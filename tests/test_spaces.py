"""Closure axioms, continuity, categorical constructions, intervals."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from closuretop import (BadParameter, ContinuousMap, FiniteClosureSpace,
                        MissingPoint, NotContinuous, NotReflexive,
                        ParseError, ProductKind, SourceTargetMismatch,
                        build_space, closure, coequalizer, coproduct,
                        interior, is_closed, is_continuous, is_open,
                        is_symmetric, j1, j_bits, j_bot, j_leq, j_minus,
                        j_plain, j_plus, j_top, local_base, point_space,
                        product, product_power, pushout, qd, relabel,
                        reverse, space_from_json, space_to_json, subspace,
                        symmetrize, topological_modification)
from closuretop.spaces import (_quotient, homomorphisms, parse_interval,
                               point_names)
from conftest import rand_space

SEED_SPACES = [rand_space(random.Random(100 + i), n, p)
               for i, (n, p) in enumerate([(1, 0.5), (2, 0.3), (3, 0.5),
                                           (4, 0.4), (5, 0.5), (6, 0.3),
                                           (6, 0.7), (5, 0.2)])]


def test_rejects_missing_reflexivity():
    with pytest.raises(NotReflexive):
        build_space(["a", "b"], {"a": {"b"}, "b": {"b"}})


def test_rejects_closure_escaping_points():
    with pytest.raises(MissingPoint):
        build_space(["a"], {"a": {"a", "zzz"}})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_closure_axioms_on_subsets(seed, n):
    X = rand_space(random.Random(seed), n)
    rng = random.Random(seed + 1)
    pts = list(X.points)
    A = {x for x in pts if rng.random() < 0.5}
    B = {x for x in pts if rng.random() < 0.5}
    assert closure(X, set()) == frozenset()
    assert A <= closure(X, A)
    assert closure(X, A | B) == closure(X, A) | closure(X, B)
    # pointwise generation: closure of a set is the union over its points
    assert closure(X, A) == frozenset().union(*(X.closure_map[x] for x in A)) \
        if A else closure(X, A) == frozenset()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_interior_duality_and_openness(seed, n):
    X = rand_space(random.Random(seed), n)
    rng = random.Random(seed + 7)
    A = {x for x in X.points if rng.random() < 0.5}
    comp = set(X.points) - A
    assert interior(X, A) == frozenset(X.points) - closure(X, comp)
    assert is_open(X, A) == (interior(X, A) == frozenset(A))
    assert is_closed(X, A) == (closure(X, A) == frozenset(A))
    assert is_open(X, A) == is_closed(X, comp)


def test_continuity_pointwise_criterion():
    X = build_space(["a", "b"], {"a": {"a", "b"}, "b": {"b"}})
    Y = build_space(["u", "v"], {"u": {"u"}, "v": {"v"}})
    # a maps into u while b (in the closure of a) maps to v: not continuous
    assert not is_continuous({"a": "u", "b": "v"}, X, Y)
    assert is_continuous({"a": "u", "b": "u"}, X, Y)
    with pytest.raises(NotContinuous):
        ContinuousMap(X, Y, {"a": "u", "b": "v"})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_composition_of_continuous_maps(seed):
    rng = random.Random(seed)
    X = rand_space(rng, rng.randint(1, 4), prefix="x")
    Y = rand_space(rng, rng.randint(1, 4), prefix="y")
    Z = rand_space(rng, rng.randint(1, 4), prefix="z")
    fs = [dict(zip(X.points, c)) for c in _all_maps(X.points, Y.points)
          if is_continuous(dict(zip(X.points, c)), X, Y)]
    gs = [dict(zip(Y.points, c)) for c in _all_maps(Y.points, Z.points)
          if is_continuous(dict(zip(Y.points, c)), Y, Z)]
    for f in fs[:5]:
        for g in gs[:5]:
            gf = {x: g[f[x]] for x in X.points}
            assert is_continuous(gf, X, Z)


def _all_maps(src, tgt):
    import itertools
    return itertools.product(tgt, repeat=len(src))


def test_identity_and_constant_are_continuous():
    for X in SEED_SPACES:
        ContinuousMap.identity(X)
        ContinuousMap.constant(X, X, X.points[0])


def test_symmetrize_reverse_topmod():
    for X in SEED_SPACES:
        S = symmetrize(X)
        assert is_symmetric(S)
        for x in X.points:
            # the mutual part is the largest symmetric relation inside c
            assert S.closure_map[x] <= X.closure_map[x]
            for y in X.closure_map[x]:
                if x in X.closure_map[y]:
                    assert y in S.closure_map[x]
        R = reverse(X)
        for x in X.points:
            for y in X.points:
                assert (y in X.closure_map[x]) == (x in R.closure_map[y])
        T = topological_modification(X)
        # idempotent closure afterwards
        for x in T.points:
            assert closure(T, T.closure_map[x]) == T.closure_map[x]
        assert qd(X) == X


def test_local_base():
    X = build_space(["a", "b"], {"a": {"a", "b"}, "b": {"b"}})
    assert local_base(X, "b") == frozenset({"a", "b"})
    assert local_base(X, "a") == frozenset({"a"})


# ---------------------------------------------------------------------------
# products, coproducts, quotients

def _product_oracle(X, Y, kind):
    pts = [(x, y) for x in X.points for y in Y.points]
    cmap = {}
    for (x, y) in pts:
        cl = set()
        for (x2, y2) in pts:
            in_prod = x2 in X.closure_map[x] and y2 in Y.closure_map[y]
            if kind is ProductKind.PRODUCT:
                ok = in_prod
            else:
                ok = in_prod and (x2 == x or y2 == y)
            if ok:
                cl.add((x2, y2))
        cmap[(x, y)] = cl
    return build_space(pts, cmap)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_products_match_relational_definitions(seed):
    rng = random.Random(seed)
    X = rand_space(rng, rng.randint(1, 4), prefix="x")
    Y = rand_space(rng, rng.randint(1, 4), prefix="y")
    for kind in ProductKind:
        assert product(X, Y, kind) == _product_oracle(X, Y, kind)


def test_projections_continuous_and_product_universal():
    rng = random.Random(5)
    X = rand_space(rng, 3, prefix="x")
    Y = rand_space(rng, 3, prefix="y")
    for kind in ProductKind:
        P = product(X, Y, kind)
        assert is_continuous({p: p[0] for p in P.points}, P, X)
        assert is_continuous({p: p[1] for p in P.points}, P, Y)
    # box refines times: the inductive closure is contained in the product one
    Pt = product(X, Y, ProductKind.PRODUCT)
    Pb = product(X, Y, ProductKind.INDUCTIVE)
    for p in Pt.points:
        assert Pb.closure_map[p] <= Pt.closure_map[p]


def test_product_power_small_cases():
    X = rand_space(random.Random(9), 2)
    P0 = product_power(X, 0, ProductKind.PRODUCT)
    assert len(P0.points) == 1
    P1 = product_power(X, 1, ProductKind.PRODUCT)
    assert len(P1.points) == 2
    P2 = product_power(X, 2, ProductKind.INDUCTIVE)
    assert len(P2.points) == 4
    for u in P2.points:
        for v in P2.closure_map[u]:
            assert sum(a != b for a, b in zip(u, v)) <= 1


def test_coproduct_is_disjoint_union():
    X = build_space(["a"], {"a": {"a"}})
    Y = build_space(["a", "b"], {"a": {"a", "b"}, "b": {"b"}})
    C = coproduct([X, Y])
    assert len(C.points) == 3
    assert C.closure_map[(0, "a")] == frozenset({(0, "a")})
    assert C.closure_map[(1, "a")] == frozenset({(1, "a"), (1, "b")})


def test_coequalizer_collapses_pair():
    X = point_space("s")
    Y = build_space(["a", "b"], {"a": {"a"}, "b": {"b"}})
    f = ContinuousMap(X, Y, {"s": "a"})
    g = ContinuousMap(X, Y, {"s": "b"})
    Q, proj = coequalizer(f, g)
    assert len(Q.points) == 1
    assert proj("a") == proj("b")


def test_pushout_glues_two_intervals_into_a_longer_one():
    # two copies of the indiscrete interval glued end to start give the
    # three-point zigzag: 1 related to both endpoints both ways
    J = j1()
    P = point_space("s")
    f = ContinuousMap(P, J, {"s": 1})
    g = ContinuousMap(P, J, {"s": 0})
    G, inl, inr = pushout(f, g)
    assert len(G.points) == 3
    glued = inl(1)
    assert glued == inr(0)
    left, right = inl(0), inr(1)
    assert glued in G.closure_map[left] and left in G.closure_map[glued]
    assert glued in G.closure_map[right] and right in G.closure_map[glued]
    assert right not in G.closure_map[left]
    assert left not in G.closure_map[right]
    # matches the plain three-point interval up to relabeling
    expect = j_plain(2)
    lab = {left: 0, glued: 1, right: 2}
    assert relabel(G, lab) == expect


def test_pushout_of_directed_intervals():
    # down-interval then up-interval glued at the middle: c(1) = {0, 1, 2}
    Jm = j_minus()
    Jp = j_plus()
    P = point_space("s")
    f = ContinuousMap(P, Jm, {"s": 1})
    g = ContinuousMap(P, Jp, {"s": 0})
    G, inl, inr = pushout(f, g)
    lab = {inl(0): 0, inl(1): 1, inr(1): 2}
    expect = j_bits(2, 2)  # 0 <- 1 -> 2 as closures
    assert relabel(G, lab) == expect


def test_subspace_closures():
    X = build_space(["a", "b", "c"],
                    {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}})
    S = subspace(X, ["a", "b"])
    assert S.closure_map["a"] == frozenset({"a", "b"})
    assert S.closure_map["b"] == frozenset({"b"})


# ---------------------------------------------------------------------------
# interval objects

def test_interval_families():
    J = j1()
    assert J.closure_map[0] == frozenset({0, 1})
    assert J.closure_map[1] == frozenset({0, 1})
    Jp = j_plus()
    assert Jp.closure_map[0] == frozenset({0, 1})
    assert Jp.closure_map[1] == frozenset({1})
    Jm = j_minus()
    assert Jm.closure_map[1] == frozenset({0, 1})
    assert Jm.closure_map[0] == frozenset({0})
    Jb = j_bot(2)
    assert all(Jb.closure_map[i] == frozenset({i}) for i in range(3))
    Jt = j_top(2)
    assert all(Jt.closure_map[i] == frozenset({0, 1, 2}) for i in range(3))
    J2 = j_plain(2)
    assert J2.closure_map[1] == frozenset({0, 1, 2})
    assert J2.closure_map[0] == frozenset({0, 1})
    Jl = j_leq(2)
    assert Jl.closure_map[0] == frozenset({0, 1, 2})
    assert Jl.closure_map[1] == frozenset({1, 2})
    assert Jl.closure_map[2] == frozenset({2})


def test_parse_interval_names_and_errors():
    named = {"j1": j1(), " JPlus ": j_plus(), "jminus": j_minus(),
             "top:2": j_top(2), "bot:1": j_bot(1), "plain:3": j_plain(3),
             "leq:2": j_leq(2), "bits:2:1": j_bits(2, 1)}
    for text, J in named.items():
        got = parse_interval(text)
        assert isinstance(got, FiniteClosureSpace)
        assert got == J and got.points == tuple(range(len(J)))
    # bits:2:1 directs 0 -> 1 (1 in c(0)) and 1 <- 2 (1 in c(2))
    assert parse_interval("bits:2:1") == build_space(
        [0, 1, 2], {0: {0, 1}, 1: {1}, 2: {1, 2}})
    # a malformed name is a parse error, an out-of-range m or k is not
    for text in ("top:x", "bits:2:y", "top", "bits:2", "j1:1", "foo", ""):
        with pytest.raises(ParseError):
            parse_interval(text)
    for text in ("top:0", "leq:-1", "bits:1:5"):
        with pytest.raises(BadParameter):
            parse_interval(text)


def test_bits_family_covers_plus_minus():
    assert j_bits(1, 1) == j_plus() == build_space([0, 1], {0: {0, 1}, 1: {1}})
    assert j_bits(1, 0) == j_minus() == build_space([0, 1], {0: {0}, 1: {0, 1}})
    for make, args in ((j_bits, (2, 4)), (j_bits, (2, -1)), (j_bits, (0, 0)),
                       (j_top, (0,)), (j_bot, (0,)), (j_plain, (-1,)),
                       (j_leq, (0,))):
        with pytest.raises(BadParameter):
            make(*args)


def test_json_roundtrip():
    for X in SEED_SPACES:
        assert space_from_json(space_to_json(X)) == X
    P = product(SEED_SPACES[2], SEED_SPACES[1], ProductKind.PRODUCT)
    assert space_from_json(space_to_json(P)) == P


def test_compose_and_closure_of():
    X = build_space(["a", "b"], {"a": {"a", "b"}, "b": {"b"}})
    Y = build_space([0, 1], {0: {0, 1}, 1: {1}})
    Z = point_space("z")
    f = ContinuousMap(X, Y, {"a": 0, "b": 1})
    g = ContinuousMap.constant(Y, Z, "z")
    gf = g.compose(f)
    assert gf == ContinuousMap.constant(X, Z, "z")
    assert f.compose(ContinuousMap.identity(X)) == f
    with pytest.raises(SourceTargetMismatch):
        f.compose(g)  # g lands in Z, but f starts at X
    assert X.closure_of("a") == frozenset({"a", "b"})
    with pytest.raises(MissingPoint):
        X.closure_of("c")


def _rescan_quotient(Y, pairs):
    """The quotient as the rescanning implementation built it: union-find,
    each class labeled by its least member in Y's point order, and each
    quotient point's fiber found by a scan over all points."""
    parent = {x: x for x in Y.points}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    order = {x: i for i, x in enumerate(Y.points)}
    classes = {}
    for x in Y.points:
        classes.setdefault(find(x), []).append(x)
    label = {}
    for members in classes.values():
        rep = min(members, key=order.__getitem__)
        for x in members:
            label[x] = rep
    qpts = [x for x in Y.points if label[x] == x]
    cmap = {}
    for q in qpts:
        cl = set()
        for x in Y.points:
            if label[x] == q:
                cl |= {label[y] for y in Y.closure_map[x]}
        cmap[q] = cl
    return FiniteClosureSpace(qpts, cmap), label


def test_quotient_against_rescanning_quotient():
    rng = random.Random(431)
    for _ in range(200):
        Y = rand_space(rng, rng.randint(1, 7), p=rng.choice((0.2, 0.5)))
        if rng.random() < 0.3:
            Y = coproduct([Y, rand_space(rng, rng.randint(1, 3), prefix="q")])
        pairs = [(rng.choice(Y.points), rng.choice(Y.points))
                 for _ in range(rng.randint(0, 6))]
        Q, label = _quotient(Y, pairs)
        want, want_label = _rescan_quotient(Y, pairs)
        assert Q == want and Q.points == want.points
        assert label == want_label


def test_point_names():
    point = point_names([(0, 1), "a", 2], "f.json")
    assert point("(0, 1)") == point([0, 1]) == (0, 1)
    assert point("a") == "a" and point("2") == 2 and point(2) == 2
    with pytest.raises(ParseError, match="f.json: unknown point 'b'"):
        point("b")
    with pytest.raises(ParseError, match="cannot be a JSON object"):
        point({"a": 1})


def test_shared_names_on_read_and_write():
    # 1 and "1" are both named "1": reading refuses the file, and writing
    # refuses a file whose closure keys would collide
    text = '{"points": [1, "1"], "closure": {"1": ["1"]}}'
    with pytest.raises(ParseError, match="points 1 and '1' share the name"):
        space_from_json(text)
    for pts in ([1, "1"], [(0, 1), "(0, 1)"]):
        X = build_space(pts, {p: {p} for p in pts})
        with pytest.raises(BadParameter, match="share the name"):
            space_to_json(X)
    with pytest.raises(ParseError, match="share the name"):
        space_from_json('{"points": ["a", "a"], "closure": {"a": ["a"]}}')
    deep = 0
    for _ in range(5000):
        deep = (deep,)
    with pytest.raises(BadParameter):  # a point too deep to name
        space_to_json(build_space([deep], {deep: {deep}}))


@pytest.mark.parametrize("depth", [900, 5000])
def test_deep_points_are_parse_errors(depth):
    point = "[" * depth + "0" + "]" * depth
    for text in ('{"points": [%s], "closure": {}}' % point,
                 '{"points": ["a"], "closure": {"a": ["a", %s]}}' % point):
        with pytest.raises(ParseError, match="nested too deeply"):
            space_from_json(text)
    nested = 0
    for _ in range(depth):
        nested = [nested]
    with pytest.raises(ParseError, match="nested too deeply"):
        point_names(["a"], "f.json")(nested)


def _masks(R):
    """The (out, in) masks of a square boolean matrix given as rows."""
    k = range(len(R))
    return ([sum(1 << q for q in k if R[p][q]) for p in k],
            [sum(1 << p for p in k if R[p][q]) for q in k])


def test_homomorphisms_against_brute_force():
    rng = random.Random(127)
    for _ in range(80):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        src = [[b for b in range(n) if rng.random() < 0.4] for _ in range(n)]
        R = [[rng.random() < 0.5 for _ in range(k)] for _ in range(k)]
        want = [h for h in itertools.product(range(k), repeat=n)
                if all(R[h[a]][h[b]] for a in range(n) for b in src[a])]
        assert list(homomorphisms(src, _masks(R))) == want
        if n and k:
            # pins (one-bit masks) and wider domains, empty ones included
            domains = {w: rng.choice([1 << rng.randrange(k),
                                      rng.randrange(1 << k)])
                       for w in rng.sample(range(n), rng.randint(1, n))}
            order = sorted(domains) + [w for w in range(n) if w not in domains]
            allowed = [h for h in want
                       if all(m >> h[w] & 1 for w, m in domains.items())]
            allowed.sort(key=lambda h: [h[w] for w in order])
            assert list(homomorphisms(src, _masks(R), domains)) == allowed
