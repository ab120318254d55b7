"""Homotopy search: one-step conditions, chains, equivalence checks."""
import itertools
import random

import pytest

from closuretop import (CUBE_J1_BOX, CUBE_J1_TIMES, CUBE_JPLUS_BOX,
                        CUBE_JPLUS_TIMES, SIMPLEX_J1, SIMPLEX_JPLUS,
                        BadParameter, BoundExceeded, CapExceeded,
                        ContinuousMap, ProductKind, build_space,
                        is_continuous, j1, j_bits, j_bot, j_leq, j_minus,
                        j_plain, j_plus, j_top, point_space, product,
                        subspace)
from closuretop.homotopy import (HomotopyQuery, MapGraph,
                                 enumerate_continuous_maps, homotopic,
                                 homotopy_core, homotopy_equivalent,
                                 is_contractible, one_step_homotopic)
from closuretop.spaces import parse_interval
from conftest import rand_space


def _maps_between(X, Y):
    out = []
    for combo in itertools.product(Y.points, repeat=len(X.points)):
        m = dict(zip(X.points, combo))
        if is_continuous(m, X, Y):
            out.append(ContinuousMap(X, Y, m, check=False))
    return out


def test_enumerate_continuous_maps_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        X = rand_space(rng, rng.randint(1, 4), prefix="x")
        Y = rand_space(rng, rng.randint(1, 4), prefix="y")
        fast = enumerate_continuous_maps(X, Y)
        yi = {y: i for i, y in enumerate(Y.points)}
        slow = sorted(tuple(yi[m.mapping[x]] for x in X.points)
                      for m in _maps_between(X, Y))
        assert sorted(fast) == slow


def test_enumerate_continuous_maps_on_a_long_chain():
    n = 1200
    chain = build_space(range(n), {i: {i, min(i + 1, n - 1)} for i in range(n)})
    assert enumerate_continuous_maps(chain, point_space()) == [(0,) * n]


def _one_step_oracle(f, g, J, kind):
    """Literal check: search all endpoint-pinned tuples of continuous maps."""
    X, Y = f.source, f.target
    XJ = product(X, J, kind)
    maps = _maps_between(X, Y)
    for mid in itertools.product(maps, repeat=len(J) - 2):
        stages = [f, *mid, g]
        H = {(x, i): stages[i].mapping[x] for x in X.points
             for i in J.points}
        if is_continuous(H, XJ, Y):
            return True
    return False


def test_one_step_against_literal_oracle():
    rng = random.Random(23)
    intervals = [j1(), j_plus(), j_minus(), j_plain(2), j_top(2), j_leq(2),
                 j_bot(1), j_top(3), j_plain(3), j_leq(3), j_bits(3, 5)]
    checked = 0
    while checked < 40:
        X = rand_space(rng, rng.randint(1, 3), prefix="x")
        Y = rand_space(rng, rng.randint(1, 3), prefix="y")
        maps = _maps_between(X, Y)
        if len(maps) < 2:
            continue
        f, g = rng.sample(maps, 2)
        J = rng.choice(intervals)
        for kind in ProductKind:
            got = one_step_homotopic(f, g, J, kind) is not None
            assert got == _one_step_oracle(f, g, J, kind)
        checked += 1


def test_map_graph_edges_against_literal_oracle():
    """Every ordered pair of maps: one_step against the literal oracle,
    and the search's first ring around u against one-step edges either way."""
    rng = random.Random(29)
    intervals = [j1(), j_plus(), j_minus(), j_bot(1), j_plain(2), j_top(2),
                 j_leq(2), j_bits(2, 1), j_plain(3), j_leq(3), j_bits(3, 5)]
    for J in intervals:
        X = rand_space(rng, 2, prefix="x")
        Y = rand_space(rng, rng.randint(2, 3), prefix="y")
        for kind in ProductKind:
            graph = MapGraph(X, Y, J, kind)
            maps = [ContinuousMap(X, Y, {x: Y.points[i] for x, i in
                                         zip(X.points, t)}, check=False)
                    for t in graph.maps]
            n = len(maps)
            edge = [[graph.one_step(u, v) for v in range(n)] for u in range(n)]
            for u, v in itertools.product(range(n), repeat=2):
                assert edge[u][v] == _one_step_oracle(maps[u], maps[v], J, kind)
                if u == v:
                    continue
                try:
                    near = graph.find_chain(u, v, 1) is not None
                except BoundExceeded:
                    near = False
                assert near == (edge[u][v] or edge[v][u])


def _j1_times_one_step(f, g):
    """Closed form for one-step homotopy with the indiscrete pair and PRODUCT.

    f and g are one-step homotopic iff for every x and x' in c(x) both
    g(x') in c(f(x)) and f(x') in c(g(x)).
    """
    X, Y = f.source, f.target
    for x in X.points:
        cf = Y.closure_map[f.mapping[x]]
        cg = Y.closure_map[g.mapping[x]]
        for x2 in X.closure_map[x]:
            if g.mapping[x2] not in cf or f.mapping[x2] not in cg:
                return False
    return True


def test_j1_times_closed_form_agrees_with_generic():
    rng = random.Random(31)
    for _ in range(30):
        X = rand_space(rng, rng.randint(1, 4), prefix="x")
        Y = rand_space(rng, rng.randint(1, 4), prefix="y")
        maps = _maps_between(X, Y)
        for f, g in itertools.product(maps[:4], repeat=2):
            fast = _j1_times_one_step(f, g)
            generic = one_step_homotopic(f, g, j1(),
                                         ProductKind.PRODUCT) is not None
            assert fast == generic


def test_discrete_interval_relates_everything():
    rng = random.Random(37)
    for _ in range(10):
        X = rand_space(rng, rng.randint(1, 3), prefix="x")
        Y = rand_space(rng, rng.randint(1, 3), prefix="y")
        maps = _maps_between(X, Y)
        for f, g in itertools.product(maps[:3], repeat=2):
            for kind in ProductKind:
                assert one_step_homotopic(f, g, j_bot(1), kind) is not None


def test_witness_chain_is_verifiable():
    # every step is a continuous H : X (x) J -> Y whose ends are the
    # consecutive stages, in the order its forward flag says
    rng = random.Random(41)
    directions = set()
    for J, kind in itertools.product((j1(), j_plus(), j_top(2), j_leq(2)),
                                     ProductKind):
        q = HomotopyQuery(interval=J, product=kind)
        found = 0
        while found < 3:
            X = rand_space(rng, rng.randint(2, 4), prefix="x")
            Y = rand_space(rng, rng.randint(2, 4), prefix="y")
            maps = _maps_between(X, Y)
            if len(maps) < 2:
                continue
            f, g = rng.sample(maps, 2)
            try:
                w = homotopic(f, g, q)
            except BoundExceeded:
                continue
            if w is None:
                continue
            assert w.stages[0] == f.mapping and w.stages[-1] == g.mapping
            assert len(w.steps) == w.step_count >= 1
            for s in w.stages:
                assert is_continuous(s, X, Y)
            XJ = product(X, J, kind)
            for k, step in enumerate(w.steps):
                assert len(step.maps) == len(J)
                H = {(x, i): h[x] for i, h in enumerate(step.maps)
                     for x in X.points}
                assert is_continuous(H, XJ, Y)
                directions.add(step.forward)
                ends = (step.maps[0], step.maps[-1])
                if not step.forward:
                    ends = ends[::-1]
                assert ends == (w.stages[k], w.stages[k + 1])
            found += 1
    assert directions == {True, False}


def test_not_homotopic_on_disconnected_target():
    X = point_space("s")
    Y = build_space(["a", "b"], {"a": {"a"}, "b": {"b"}})
    f = ContinuousMap(X, Y, {"s": "a"})
    g = ContinuousMap(X, Y, {"s": "b"})
    q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
    assert homotopic(f, g, q) is None


def test_cap_and_bound():
    X = rand_space(random.Random(1), 6)
    f = ContinuousMap.identity(X)
    q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
    with pytest.raises(CapExceeded):
        homotopic(f, f, q)
    # a tight budget raises instead of deciding: the two ends of the
    # three-point path need two steps, through the constant middle map
    P3 = j_plain(2)
    c0 = ContinuousMap.constant(P3, P3, 0)
    c2 = ContinuousMap.constant(P3, P3, 2)
    q1 = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT,
                       max_steps=1)
    with pytest.raises(BoundExceeded):
        homotopic(c0, c2, q1)
    q2 = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT,
                       max_steps=4)
    w = homotopic(c0, c2, q2)
    assert w is not None and w.step_count == 2


def test_intervals_are_contractible():
    for J, kind in [(j1(), ProductKind.PRODUCT),
                    (j1(), ProductKind.INDUCTIVE),
                    (j_plus(), ProductKind.PRODUCT),
                    (j_plus(), ProductKind.INDUCTIVE)]:
        q = HomotopyQuery(interval=J, product=kind)
        assert is_contractible(J, q) is not None


def test_homotopy_equivalence_interval_vs_point():
    q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
    res = homotopy_equivalent(j1(), point_space(), q)
    assert res is not None
    # two-point discrete space is not equivalent to the point
    D = build_space(["a", "b"], {"a": {"a"}, "b": {"b"}})
    assert homotopy_equivalent(D, point_space(), q) is None


def _equivalence_by_pairs(X, Y, query):
    """homotopy_equivalent's answer from one chain search per pair (f, g):
    (f, g, steps on X, steps on Y), None, or "bounded"."""
    graphs = [MapGraph(Z, Z, query.interval, query.product) for Z in (X, Y)]
    bounded = False

    def steps(graph, t):
        nonlocal bounded
        identity = graph.index[tuple(range(len(t)))]
        try:
            chain = graph.find_chain(graph.index[t], identity, query.max_steps)
        except BoundExceeded:
            bounded = True
            return None
        return None if chain is None else len(chain) - 1

    for ft in enumerate_continuous_maps(X, Y):
        for gt in enumerate_continuous_maps(Y, X):
            sx = steps(graphs[0], tuple(gt[i] for i in ft))
            sy = None if sx is None else steps(graphs[1],
                                               tuple(ft[i] for i in gt))
            if sy is not None:
                return (dict(zip(X.points, (Y.points[i] for i in ft))),
                        dict(zip(Y.points, (X.points[i] for i in gt))), sx, sy)
    return "bounded" if bounded else None


def test_homotopy_equivalent_searches_each_round_trip_once(monkeypatch):
    rng = random.Random(61)
    cases = []
    for _ in range(60):
        X = rand_space(rng, rng.randint(1, 3), prefix="x")
        Y = rand_space(rng, rng.randint(1, 3), prefix="y")
        query = HomotopyQuery(rng.choice([j1(), j_plus(), j_top(2), j_leq(2)]),
                              rng.choice(list(ProductKind)),
                              max_steps=rng.choice([1, 2, 3, 8]))
        cases.append((X, Y, query, _equivalence_by_pairs(X, Y, query)))
    searched = []
    find_chain = MapGraph.find_chain

    def counted(graph, u, v, max_steps):
        searched.append((graph, u, v))
        return find_chain(graph, u, v, max_steps)

    monkeypatch.setattr(MapGraph, "find_chain", counted)
    for X, Y, query, want in cases:
        searched.clear()
        try:
            res = homotopy_equivalent(X, Y, query)
        except BoundExceeded:
            res = "bounded"
        if isinstance(res, tuple):
            f, g, wx, wy = res
            res = f.mapping, g.mapping, wx.step_count, wy.step_count
        assert res == want
        assert len(searched) == len(set(searched))


def test_product_compatibility_of_homotopies():
    """f ~ g and h ~ k imply f x h ~ g x k on the product spaces."""
    rng = random.Random(53)
    q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
    done = 0
    while done < 6:
        X = rand_space(rng, 2, prefix="x")
        Y = rand_space(rng, 2, prefix="y")
        maps = _maps_between(X, Y)
        if len(maps) < 2:
            continue
        f, g = rng.sample(maps, 2)
        h, k = rng.sample(maps, 2)
        try:
            wfg = homotopic(f, g, q)
            whk = homotopic(h, k, q)
        except BoundExceeded:
            continue
        if wfg is None or whk is None:
            continue
        P = product(X, X, ProductKind.PRODUCT)
        Q = product(Y, Y, ProductKind.PRODUCT)
        fh = ContinuousMap(P, Q, {(a, b): (f.mapping[a], h.mapping[b])
                                  for (a, b) in P.points})
        gk = ContinuousMap(P, Q, {(a, b): (g.mapping[a], k.mapping[b])
                                  for (a, b) in P.points})
        q_big = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT,
                              max_steps=12, size_cap=6)
        assert homotopic(fh, gk, q_big) is not None
        done += 1


_INTERVALS_AND_PRODUCTS = [(j1(), ProductKind.PRODUCT),
                           (j1(), ProductKind.INDUCTIVE),
                           (j_plus(), ProductKind.PRODUCT),
                           (j_plus(), ProductKind.INDUCTIVE)]


def _one_step_retractions(X, J, kind):
    """The pairs (x, y) in point order whose retraction r, sending x to y
    and fixing the rest, is continuous and one step from the identity in
    either direction, read off the map graph of X."""
    graph = MapGraph(X, X, J, kind)
    at = {p: i for i, p in enumerate(X.points)}
    ident = graph.index[tuple(range(len(X.points)))]
    out = []
    for x, y in itertools.permutations(X.points, 2):
        u = graph.index.get(tuple(at[y] if p == x else at[p]
                                  for p in X.points))
        if u is not None and (graph.one_step(u, ident)
                              or graph.one_step(ident, u)):
            out.append((x, y))
    return out


def test_homotopy_core_against_the_map_graph():
    rng = random.Random(223)
    for _ in range(60):
        X = rand_space(rng, rng.randint(1, 5), p=rng.choice((0.3, 0.5, 0.7)))
        for J, kind in _INTERVALS_AND_PRODUCTS:
            core = homotopy_core(X, J, kind)
            assert core == subspace(X, core.points)
            assert homotopy_core(core, J, kind) == core
            if len(core.points) > 1:
                assert _one_step_retractions(core, J, kind) == []
            # replay the removals: each takes the first point in order that
            # has a one-step retraction, with a verified witness
            Y = X
            for _ in range(len(X.points) - len(core.points)):
                x, y = _one_step_retractions(Y, J, kind)[0]
                r = ContinuousMap(Y, Y, {p: y if p == x else p
                                         for p in Y.points})
                ident = ContinuousMap.identity(Y)
                assert (one_step_homotopic(r, ident, J, kind)
                        or one_step_homotopic(ident, r, J, kind))
                Y = subspace(Y, [p for p in Y.points if p != x])
            assert Y == core


def test_an_interval_has_the_points_0_to_m():
    # one point, or points other than 0, 1, ..., m in that order, are no
    # interval object for any homotopy entry point
    X = build_space(["x", "y"], {"x": {"x", "y"}, "y": {"y"}})
    f = ContinuousMap.identity(X)
    bad = [point_space(), point_space(0),
           build_space(["a", "b"], {"a": {"a", "b"}, "b": {"b"}}),
           build_space([1, 0], {0: {0, 1}, 1: {1}})]
    for J in bad:
        for kind in ProductKind:
            q = HomotopyQuery(interval=J, product=kind)
            for call in (lambda: homotopy_core(X, J, kind),
                         lambda: homotopic(f, f, q),
                         lambda: one_step_homotopic(f, f, J, kind),
                         lambda: MapGraph(X, X, J, kind)):
                with pytest.raises(BadParameter, match="points 0, 1"):
                    call()


def _outcome(f, g, q):
    try:
        w = homotopic(f, g, q)
    except BoundExceeded:
        return "bounded"
    if w is None:
        return None
    return w.stages, [(s.maps, s.forward) for s in w.steps]


def test_a_built_interval_acts_as_the_named_one():
    # the space 0 -> 1 built by hand is j_plus, and homotopic answers the same
    J = build_space([0, 1], {0: [0, 1], 1: [1]})
    rng = random.Random(29)
    answers = set()
    for _ in range(12):
        X = rand_space(rng, rng.randint(1, 3), prefix="x")
        Y = rand_space(rng, rng.randint(1, 3), prefix="y")
        maps = _maps_between(X, Y)
        for kind in ProductKind:
            for f, g in itertools.product(maps[:4], repeat=2):
                got = _outcome(f, g, HomotopyQuery(J, kind, max_steps=1))
                assert got == _outcome(f, g, HomotopyQuery(j_plus(), kind,
                                                           max_steps=1))
                answers.add(got if got in (None, "bounded") else "found")
    assert answers == {None, "bounded", "found"}


def test_homotopy_core_of_interval_powers_is_a_point():
    for theory in (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES,
                   CUBE_JPLUS_BOX, SIMPLEX_J1, SIMPLEX_JPLUS):
        J = parse_interval(theory.interval)
        for X in (point_space(), J, product(J, J)):
            assert len(homotopy_core(X, J, theory.product).points) == 1
