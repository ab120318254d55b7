"""Closure axioms, continuity, categorical constructions, intervals."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from closuretop import (BadParameter, ContinuousMap, FiniteClosureSpace,
                        IntervalFamily, IntervalSpec, MissingPoint,
                        NotContinuous, NotReflexive, ProductKind, build_space,
                        closure, coequalizer, coproduct, interior, interval,
                        is_closed, is_continuous, is_open, is_symmetric, j1,
                        j_bits, j_bot, j_leq, j_minus, j_plain, j_plus, j_top,
                        local_base, point_space, product, product_power,
                        pushout, qd, relabel, reverse, space_from_json,
                        space_to_json, subspace, symmetrize,
                        topological_modification)
from closuretop.spaces import homomorphisms
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
    J = interval(j1())
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
    expect = interval(j_plain(2))
    lab = {left: 0, glued: 1, right: 2}
    assert relabel(G, lab) == expect


def test_pushout_of_directed_intervals():
    # down-interval then up-interval glued at the middle: c(1) = {0, 1, 2}
    Jm = interval(j_minus())
    Jp = interval(j_plus())
    P = point_space("s")
    f = ContinuousMap(P, Jm, {"s": 1})
    g = ContinuousMap(P, Jp, {"s": 0})
    G, inl, inr = pushout(f, g)
    lab = {inl(0): 0, inl(1): 1, inr(1): 2}
    expect = interval(j_bits(2, 2))  # 0 <- 1 -> 2 as closures
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
    J = interval(j1())
    assert J.closure_map[0] == frozenset({0, 1})
    assert J.closure_map[1] == frozenset({0, 1})
    Jp = interval(j_plus())
    assert Jp.closure_map[0] == frozenset({0, 1})
    assert Jp.closure_map[1] == frozenset({1})
    Jm = interval(j_minus())
    assert Jm.closure_map[1] == frozenset({0, 1})
    assert Jm.closure_map[0] == frozenset({0})
    Jb = interval(j_bot(2))
    assert all(Jb.closure_map[i] == frozenset({i}) for i in range(3))
    Jt = interval(j_top(2))
    assert all(Jt.closure_map[i] == frozenset({0, 1, 2}) for i in range(3))
    J2 = interval(j_plain(2))
    assert J2.closure_map[1] == frozenset({0, 1, 2})
    assert J2.closure_map[0] == frozenset({0, 1})
    Jl = interval(j_leq(2))
    assert Jl.closure_map[0] == frozenset({0, 1, 2})
    assert Jl.closure_map[1] == frozenset({1, 2})
    assert Jl.closure_map[2] == frozenset({2})


def test_bits_family_covers_plus_minus():
    assert interval(j_bits(1, 1)) == interval(j_plus())
    assert interval(j_bits(1, 0)) == interval(j_minus())
    with pytest.raises(BadParameter):
        IntervalSpec(IntervalFamily.BITS, 2, 4)
    with pytest.raises(BadParameter):
        IntervalSpec(IntervalFamily.TOP, 0)


def test_json_roundtrip():
    for X in SEED_SPACES:
        assert space_from_json(space_to_json(X)) == X
    P = product(SEED_SPACES[2], SEED_SPACES[1], ProductKind.PRODUCT)
    assert space_from_json(space_to_json(P)) == P


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
            fixed = {w: rng.randrange(k)
                     for w in rng.sample(range(n), rng.randint(1, n))}
            pinned = [h for h in want
                      if all(h[w] == t for w, t in fixed.items())]
            assert list(homomorphisms(src, _masks(R), fixed)) == pinned
