"""Homotopy search: one-step conditions, chains, equivalence checks."""
import itertools
import random

import pytest

from closuretop import (BoundExceeded, CapExceeded, ContinuousMap,
                        ProductKind, build_space, interval, is_continuous,
                        j1, j_bits, j_bot, j_leq, j_minus, j_plain, j_plus,
                        j_top, point_space, product)
from closuretop.homotopy import (HomotopyQuery, MapGraph, _j1_times_one_step,
                                 enumerate_continuous_maps, homotopic,
                                 homotopy_equivalent, is_contractible,
                                 one_step_homotopic)
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
    Jsp = interval(J)
    XJ = product(X, Jsp, kind)
    maps = _maps_between(X, Y)
    m = J.m
    for mid in itertools.product(maps, repeat=m - 1):
        stages = [f, *mid, g]
        H = {(x, i): stages[i].mapping[x] for x in X.points
             for i in Jsp.points}
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
    rng = random.Random(41)
    q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
    found = 0
    while found < 10:
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
        assert len(w.steps) == w.step_count
        for s in w.stages:
            assert is_continuous(s, X, Y)
        found += 1


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
    P3 = interval(j_plain(2))
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
        assert is_contractible(interval(J), q) is not None


def test_homotopy_equivalence_interval_vs_point():
    q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
    res = homotopy_equivalent(interval(j1()), point_space(), q)
    assert res is not None
    # two-point discrete space is not equivalent to the point
    D = build_space(["a", "b"], {"a": {"a"}, "b": {"b"}})
    assert homotopy_equivalent(D, point_space(), q) is None


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
