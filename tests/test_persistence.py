"""Persistence diagrams, towers, bottleneck, distortion, interleavings."""
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from closuretop.persistence import INF
from closuretop import (BadParameter, CapExceeded, Decoration,
                        FilteredClosureSpace, InfinityMismatch,
                        NotACorrespondence, ParseError, PersistenceDiagram,
                        ShapeMismatch, SIMPLEX_J1, WeightedDigraph,
                        bottleneck, cech, check_correspondence,
                        complex_chain_complex, diagram_from_json,
                        diagram_to_json, distortion, filtered_from_metric,
                        filtered_from_sublevel,
                        filtered_from_weighted_digraph, filtered_simplices,
                        gh_distance, homology, inclusion_interleaving_maps,
                        metric_from_matrix, persistence_complex,
                        persistence_tower, singular_chain_complex,
                        tower_to_diagram, verify_interleaving, vr)
from closuretop._linalg import PrimeField, RationalField
from closuretop.persistence import Tower
from conftest import rand_metric, rand_space


def test_diagram_json_roundtrip():
    D = PersistenceDiagram(1, ((Fraction(1, 2), 2), (0, None), (0, 3)))
    D2 = diagram_from_json(diagram_to_json(D))
    assert D2.degree == 1
    assert D2.as_multiset() == D.as_multiset()
    with pytest.raises(ParseError):
        diagram_from_json("{not json")
    with pytest.raises(ParseError):
        diagram_from_json('{"pairs": []}')
    with pytest.raises(ParseError):
        diagram_from_json('{"degree": 0, "pairs": [[0, "x"]]}')
    with pytest.raises(BadParameter):
        PersistenceDiagram(0, ((3, 1),))


def test_two_point_metric_diagram():
    M = metric_from_matrix(["a", "b"], [[0, 3], [3, 0]])
    F = filtered_from_metric(M)
    out = persistence_complex(F, "vr", max_dim=1)
    assert out[0].as_multiset() == {(0, 3): 1, (0, None): 1}
    assert len(out[1]) == 0


def test_square_metric_degree_one_bar():
    # unit square in the taxicab metric: the loop is born with the four
    # sides at 1 and filled by the diagonals at 2
    pts = ["a", "b", "c", "d"]
    coords = {"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)}
    d = [[abs(coords[p][0] - coords[q][0]) + abs(coords[p][1] - coords[q][1])
          for q in pts] for p in pts]
    F = filtered_from_metric(metric_from_matrix(pts, d))
    out = persistence_complex(F, "vr", max_dim=1)
    assert out[1].as_multiset() == {(1, 2): 1}
    assert out[0].as_multiset() == {(0, 1): 3, (0, None): 1}


def test_filtered_simplices_first_appearance():
    M = metric_from_matrix(["a", "b"], [[0, 3], [3, 0]])
    F = filtered_from_metric(M)
    sims = filtered_simplices(F, "vr", 0)
    assert sims == [(0, ("a",)), (0, ("b",)), (3, ("a", "b"))]
    with pytest.raises(BadParameter):
        filtered_simplices(F, "alpha")
    with pytest.raises(BadParameter):
        filtered_simplices(F, "vr", -1)
    with pytest.raises(BadParameter):
        persistence_complex(F, "cech", max_dim=-1)


def _stage_by_stage_simplices(F, construction, max_dim):
    """Reference: build the whole complex of every stage, keep first appearances."""
    build = vr if construction == "vr" else cech
    births = {}
    for t, stage in zip(F.grid, F.stages):
        if not stage.points:
            continue
        for s in build(stage).simplices:
            if len(s) <= max_dim + 2 and s not in births:
                births[s] = t
    return sorted(((births[s], tuple(sorted(s, key=repr))) for s in births),
                  key=lambda bs: (bs[0], len(bs[1]), tuple(map(repr, bs[1]))))


def _rand_filtration(rng, kind):
    n = rng.randint(1, 7)
    if kind == "metric":
        return filtered_from_metric(rand_metric(rng, n))
    if kind == "sublevel":
        X = rand_space(rng, n, p=rng.choice([0.3, 0.6]))
        return filtered_from_sublevel(
            X, {x: Fraction(rng.randint(0, 4)) for x in X.points})
    pts = [f"v{i}" for i in range(n)]
    weights = {(a, b): Fraction(rng.randint(0, 5)) for a in pts for b in pts
               if a != b and rng.random() < 0.5}
    return filtered_from_weighted_digraph(WeightedDigraph(pts, weights))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["metric", "digraph",
                                                  "sublevel"]),
       st.sampled_from(["vr", "cech"]), st.integers(0, 2))
def test_filtered_simplices_match_stage_by_stage_build(seed, kind,
                                                       construction, max_dim):
    F = _rand_filtration(random.Random(seed), kind)
    assert (filtered_simplices(F, construction, max_dim)
            == _stage_by_stage_simplices(F, construction, max_dim))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_singular_simplex_j1_homology_equals_vr_homology(seed, n):
    rng = random.Random(seed)
    X = rand_space(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
    S = singular_chain_complex(X, SIMPLEX_J1, 3)
    K = complex_chain_complex(vr(X), top=3)
    for coefficients in ("z", "f2"):
        for degree in (0, 1, 2):
            a = homology(S, degree, coefficients=coefficients)
            b = homology(K, degree, coefficients=coefficients)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)


def _union_find_diagram(points, edge_births):
    """Degree-0 bars of points born at 0, merged by edges in birth order."""
    parent = {x: x for x in points}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    for b, x, y in sorted(edge_births):
        rx, ry = root(x), root(y)
        if rx != ry:
            parent[rx] = ry
            if b != 0:
                pairs.append((0, b))
    pairs.extend((0, None) for x in points if root(x) == x)
    return PersistenceDiagram(0, tuple(pairs))


def test_forty_point_metric_within_budget():
    M = rand_metric(random.Random(163), 40, coord_range=20)
    F = filtered_from_metric(M)
    pts = M.points
    edges = {"vr": [(M.d(x, y), x, y) for x, y in
                    itertools.combinations(pts, 2)],
             "cech": [(min(max(M.d(z, x), M.d(z, y)) for z in pts), x, y)
                      for x, y in itertools.combinations(pts, 2)]}
    for construction in ("vr", "cech"):
        start = time.perf_counter()
        out = persistence_complex(F, construction, max_dim=1)
        assert time.perf_counter() - start < 20
        assert (out[0].as_multiset() ==
                _union_find_diagram(pts, edges[construction]).as_multiset())


def test_persistence_builds_no_stage(monkeypatch):
    """The filtration factories, persistence_complex, distortion and
    gh_distance read the pair-birth table and build no closure space."""
    from closuretop import filtrations
    built = []
    real = filtrations.FiniteClosureSpace

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    rng = random.Random(167)
    M = rand_metric(rng, 6)
    X = rand_space(rng, 5)
    monkeypatch.setattr(filtrations, "FiniteClosureSpace", counting)
    filtered = [filtered_from_metric(M, dec) for dec in Decoration]
    filtered.append(filtered_from_sublevel(
        X, {x: Fraction(rng.randint(0, 3)) for x in X.points}))
    filtered.append(filtered_from_weighted_digraph(WeightedDigraph(
        M.points, {(x, y): M.d(x, y) for x in M.points for y in M.points
                   if x < y})))
    for F in filtered:
        for construction in ("vr", "cech"):
            persistence_complex(F, construction, max_dim=1)
        C = {(x, rng.choice(M.points)) for x in F.points}
        C |= {(rng.choice(F.points), y) for y in M.points}
        distortion(C, F, filtered[0])
    small = filtered_from_metric(rand_metric(rng, 3))
    gh_distance(small, small)
    assert built == []
    assert filtered[0].stage(2).points == M.points  # on demand it builds
    assert len(built) == 1


def test_eighty_point_generic_metric():
    """Generic distances give thousands of grid values, and degree 0
    still matches Kruskal's tree."""
    rng = random.Random(173)
    coords = set()
    while len(coords) < 80:
        coords.add((rng.randrange(10 ** 6), rng.randrange(10 ** 6)))
    coords = sorted(coords)
    pts = [f"m{i}" for i in range(80)]
    d = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in coords] for a in coords]
    M = metric_from_matrix(pts, d)
    F = filtered_from_metric(M)
    assert len(F.grid) > 3000
    out = persistence_complex(F, "vr", max_dim=0)
    edges = [(d[i][j], pts[i], pts[j])
             for i, j in itertools.combinations(range(80), 2)]
    assert out[0].as_multiset() == \
        _union_find_diagram(pts, edges).as_multiset()


def test_tower_diagram_matches_matrix_reduction():
    rng = random.Random(131)
    for _ in range(10):
        M = rand_metric(rng, rng.randint(2, 5))
        F = filtered_from_metric(M)
        reduced = persistence_complex(F, "vr", max_dim=1, coefficients="f2")
        for deg in (0, 1):
            T = persistence_tower(F, "complex-vr", deg, "f2")
            D = tower_to_diagram(T)
            assert D.as_multiset() == reduced[deg].as_multiset()


def test_tower_ranks_and_indexing():
    M = metric_from_matrix(["a", "b"], [[0, 3], [3, 0]])
    F = filtered_from_metric(M)
    T = persistence_tower(F, "complex-vr", 0, "f2")
    assert T.dims == [2, 1]
    assert tower_to_diagram(T).as_multiset() == {(0, 3): 1, (0, None): 1}
    assert T.index_at(-1) is None and T.dim_at(-1) == 0
    assert T.index_at(Fraction(5, 2)) == 0
    with pytest.raises(ShapeMismatch):
        T.map_between(1, 0)
    with pytest.raises(BadParameter):
        persistence_tower(F, "complex-vr", 0, "z")


def test_tower_index_against_scan_and_grid_order():
    grid = (0, Fraction(1, 2), 2, 5)
    T = Tower(grid, [0] * 4, [[]] * 3, PrimeField(2), 0)
    for t in (-1, 0, Fraction(1, 4), Fraction(1, 2), 1, 2, 3, 5, 6):
        below = [i for i, v in enumerate(grid) if v <= t]
        assert T.index_at(t) == (below[-1] if below else None)
    for bad in ((0, 2, 1), (0, 1, 1)):
        with pytest.raises(ShapeMismatch):
            Tower(bad, [0] * 3, [[]] * 2, PrimeField(2), 0)


def _oracle_mul(F, A, B, cols):
    """A times B for dense matrices (lists of rows); B has cols columns."""
    out = []
    for row in A:
        out.append([F.zero] * cols)
        for t, a in enumerate(row):
            for c in range(cols):
                out[-1][c] = F.add(out[-1][c], F.mul(a, B[t][c]))
    return out


def _oracle_rank(F, A):
    """Rank of a dense matrix (list of rows) by Gaussian elimination."""
    rows = [list(r) for r in A]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][c])
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = F.mul(rows[r][c], inv)
                rows[r] = [F.sub(a, F.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _oracle_diagram(T):
    """Bars by inclusion-exclusion on the rank function r(i, j) of T."""
    F, k = T.field, len(T.grid)
    r = [[0] * k for _ in range(k)]
    for i in range(k):
        acc = [[F.one if a == b else F.zero for b in range(T.dims[i])]
               for a in range(T.dims[i])]
        r[i][i] = T.dims[i]
        for j in range(i + 1, k):
            acc = _oracle_mul(F, T.maps[j - 1], acc, T.dims[i])
            r[i][j] = _oracle_rank(F, acc)

    def rr(i, j):
        return 0 if i < 0 else r[i][j]

    bars = {}
    for i in range(k):
        for j in range(i + 1, k):
            m = rr(i, j - 1) - rr(i, j) - rr(i - 1, j - 1) + rr(i - 1, j)
            if m:
                bars[(T.grid[i], T.grid[j])] = m
        m = rr(i, k - 1) - rr(i - 1, k - 1)
        if m:
            bars[(T.grid[i], None)] = m
    return bars


def test_tower_sweep_matches_rank_function_oracle():
    rng = random.Random(577)
    fields = [PrimeField(2), PrimeField(3), RationalField()]
    ranks_seen = set()
    for n in range(1200):
        F = fields[n % 3]
        k = rng.randint(1, 7)
        grid = sorted(rng.sample(range(20), k))
        dims = [rng.randint(0, 4) for _ in range(k)]
        maps = []
        for a, b in zip(dims, dims[1:]):
            # a product through a random inner dimension gives every rank
            # from 0 (a zero map) up to min(a, b)
            inner = rng.randint(0, min(a, b))
            L = [[F.of(rng.randint(-2, 2)) for _ in range(inner)]
                 for _ in range(b)]
            R = [[F.of(rng.randint(-2, 2)) for _ in range(a)]
                 for _ in range(inner)]
            M = _oracle_mul(F, L, R, a)
            ranks_seen.add((min(a, b), _oracle_rank(F, M)))
            maps.append(M)
        T = Tower(grid, dims, maps, F, 0)
        assert tower_to_diagram(T).as_multiset() == _oracle_diagram(T)
    assert {(m, r) for m in range(5) for r in range(m + 1)} <= ranks_seen


def test_bottleneck_hand_values():
    D0 = PersistenceDiagram(0, ())
    D1 = PersistenceDiagram(0, ((0, 4),))
    D2 = PersistenceDiagram(0, ((1, 3),))
    assert bottleneck(D1, D1) == 0
    assert bottleneck(D1, D0) == 2  # match to the diagonal
    assert bottleneck(D2, D0) == 1
    assert bottleneck(D1, D2) == 1  # shrink beats two diagonal hits
    A = PersistenceDiagram(0, ((0, None), (0, 4)))
    B = PersistenceDiagram(0, ((1, None), (0, 3)))
    assert bottleneck(A, B) == 1
    # within 1, (0, 12) reaches only (0, 11), which (0, 10) takes first
    E = PersistenceDiagram(0, ((0, 10), (0, 12)))
    G = PersistenceDiagram(0, ((0, 11), (1, 10)))
    assert bottleneck(E, G) == 1
    with pytest.raises(InfinityMismatch):
        bottleneck(A, D1)
    with pytest.raises(BadParameter):
        bottleneck(D1, PersistenceDiagram(1, ()))


def test_bottleneck_of_long_diagrams():
    # 1200 bars each side: a recursive augmenting-path search goes about
    # one level deeper per matched diagonal copy and overflows the stack
    A = PersistenceDiagram(0, tuple((i, i + 10) for i in range(1200)))
    half = Fraction(1, 2)
    B = PersistenceDiagram(0, tuple((i + half, i + 10 + half)
                                    for i in range(1200)))
    assert bottleneck(A, B) == half
    # within 1/2, bar j of C reaches bars j - 1 and j of D and takes bar
    # j while it is free; bar 1000 of C then reaches only the taken bar
    # 999, and its augmenting path runs down through every bar of C to
    # the extra bar (-1/2, 99/2) of D, 1000 levels deep
    C = PersistenceDiagram(0, tuple((j, j + 50) for j in range(1001)))
    D = PersistenceDiagram(0, tuple((i + half, i + 50 + half)
                                    for i in range(1000))
                           + ((-half, 50 - half),))
    assert bottleneck(C, D) == half


def _rand_diagram(rng, degree=0, n_inf=0, max_bars=4):
    pairs = []
    for _ in range(rng.randint(0, max_bars)):
        b = Fraction(rng.randint(0, 6))
        pairs.append((b, b + rng.randint(0, 5)))
    pairs.extend((Fraction(rng.randint(0, 4)), None) for _ in range(n_inf))
    return PersistenceDiagram(degree, tuple(pairs))


def _brute_force_bottleneck(A, B):
    """Least worst cost over all matchings of bars and diagonal copies."""
    bars1 = [bd for bd in A.pairs if bd[1] is not None]
    bars2 = [bd for bd in B.pairs if bd[1] is not None]
    n1, n2 = len(bars1), len(bars2)

    def cost(i, j):
        # left: bars1, then diagonal copies of bars2; right: bars2, then
        # diagonal copies of bars1
        if i < n1 and j < n2:
            (b, d), (b2, d2) = bars1[i], bars2[j]
            return max(abs(b - b2), abs(d - d2))
        if i < n1:
            return (bars1[i][1] - bars1[i][0]) / 2 if j - n2 == i else INF
        if j < n2:
            return (bars2[j][1] - bars2[j][0]) / 2 if i - n1 == j else INF
        return 0

    best = min((max((cost(i, j) for i, j in enumerate(perm)), default=0)
                for perm in itertools.permutations(range(n1 + n2))))
    inf1 = sorted(b for b, d in A.pairs if d is None)
    inf2 = sorted(b for b, d in B.pairs if d is None)
    return max([best] + [abs(a - b) for a, b in zip(inf1, inf2)])


def test_bottleneck_against_brute_force():
    rng = random.Random(139)
    for _ in range(40):
        k = rng.randint(0, 1)
        A = _rand_diagram(rng, n_inf=k, max_bars=3)
        B = _rand_diagram(rng, n_inf=k, max_bars=3)
        assert bottleneck(A, B) == _brute_force_bottleneck(A, B)


def test_bottleneck_is_a_pseudo_metric():
    rng = random.Random(137)
    for _ in range(25):
        k = rng.randint(0, 2)
        A = _rand_diagram(rng, n_inf=k)
        B = _rand_diagram(rng, n_inf=k)
        C = _rand_diagram(rng, n_inf=k)
        ab, ba = bottleneck(A, B), bottleneck(B, A)
        assert ab == ba
        assert bottleneck(A, A) == 0
        assert bottleneck(A, C) <= ab + bottleneck(B, C)


# ---------------------------------------------------------------------------
# correspondences and distortion

def test_check_correspondence_validation():
    M = metric_from_matrix(["a", "b"], [[0, 1], [1, 0]])
    F = filtered_from_metric(M)
    with pytest.raises(NotACorrespondence):
        check_correspondence([("a", "a")], F, F)  # b uncovered
    with pytest.raises(NotACorrespondence):
        check_correspondence([("a", "z"), ("b", "b")], F, F)
    with pytest.raises(NotACorrespondence):
        check_correspondence(["ab"], F, F)
    rel = check_correspondence([("a", "b"), ("b", "a")], F, F)
    assert len(rel) == 2


def _distortion_oracle(C, FX, FY):
    """Scan candidate shifts for the least one making C compatible."""
    gx, gy = list(FX.grid), list(FY.grid)
    cands = sorted({abs(a - b) for a in gx + gy for b in gx + gy} | {0})

    def compatible(eps):
        for t in sorted(set(gx) | set(gy)):
            SX, SY = FX.stage_at(t), FY.stage_at(t + eps)
            SY2, SX2 = FY.stage_at(t), FX.stage_at(t + eps)
            for (x, y) in C:
                for (x2, y2) in C:
                    if x in SX.point_set() and x2 in SX.closure_map[x]:
                        if y not in SY.point_set() or \
                                y2 not in SY.closure_map[y]:
                            return False
                    if y in SY2.point_set() and y2 in SY2.closure_map[y]:
                        if x not in SX2.point_set() or \
                                x2 not in SX2.closure_map[x]:
                            return False
        return True

    for eps in cands:
        if compatible(eps):
            return eps
    return INF


def _rand_correspondence(rng, FX, FY):
    X = list(FX.final_stage().points)
    Y = list(FY.final_stage().points)
    rel = {(x, rng.choice(Y)) for x in X}
    rel |= {(rng.choice(X), y) for y in Y}
    return rel


def test_distortion_matches_scan_oracle():
    rng = random.Random(139)
    for _ in range(25):
        X = rand_space(rng, rng.randint(2, 4), prefix="x")
        Y = rand_space(rng, rng.randint(2, 4), prefix="y")
        FX = filtered_from_sublevel(
            X, {p: Fraction(rng.randint(0, 3)) for p in X.points})
        FY = filtered_from_sublevel(
            Y, {p: Fraction(rng.randint(0, 3)) for p in Y.points})
        C = _rand_correspondence(rng, FX, FY)
        assert distortion(C, FX, FY) == _distortion_oracle(C, FX, FY)


def test_distortion_on_metric_pairs():
    a, b = 2, 5
    FA = filtered_from_metric(metric_from_matrix(["x", "y"],
                                                 [[0, a], [a, 0]]))
    FB = filtered_from_metric(metric_from_matrix(["u", "v"],
                                                 [[0, b], [b, 0]]))
    bij = [("x", "u"), ("y", "v")]
    assert distortion(bij, FA, FB) == abs(a - b)
    full = [(p, q) for p in "xy" for q in "uv"]
    # relating both points of one side to one point of the other forces
    # the whole diameter
    assert distortion(full, FA, FB) == max(a, b)
    assert gh_distance(FA, FB) == Fraction(abs(a - b), 2)


def test_gh_distance_is_exact():
    # half an odd integer term is a Fraction, not a rounded float
    big = 2 ** 60
    FA = filtered_from_metric(metric_from_matrix(["x", "y"], [[0, 1], [1, 0]]))
    FB = filtered_from_metric(metric_from_matrix(["u", "v"],
                                                 [[0, big], [big, 0]]))
    got = gh_distance(FA, FB)
    assert type(got) is Fraction
    assert got == Fraction(big - 1, 2)
    GA = filtered_from_weighted_digraph(WeightedDigraph("xy", {("x", "y"): 1}))
    GB = filtered_from_weighted_digraph(WeightedDigraph("uv", {("u", "v"): 4}))
    got = gh_distance(GA, GB)
    assert type(got) is Fraction
    assert got == Fraction(3, 2)
    # float distances stay floats
    FC = filtered_from_metric(metric_from_matrix(["x", "y"],
                                                 [[0, 0.5], [0.5, 0]]))
    FD = filtered_from_metric(metric_from_matrix(["u", "v"],
                                                 [[0, 1.5], [1.5, 0]]))
    assert gh_distance(FC, FC) == 0
    assert gh_distance(FC, FD) == 0.5


def test_distortion_bounds_sublevel_shift():
    rng = random.Random(149)
    for _ in range(10):
        X = rand_space(rng, rng.randint(2, 4))
        f = {p: Fraction(rng.randint(0, 4)) for p in X.points}
        s = Fraction(rng.randint(0, 3))
        g = {p: f[p] + s for p in X.points}
        FX = filtered_from_sublevel(X, f)
        FY = filtered_from_sublevel(X, g)
        ident = [(p, p) for p in X.points]
        assert distortion(ident, FX, FY) == s


def _metric_gh_oracle(MX, MY):
    """Brute-force metric Gromov-Hausdorff: half the least worst distance
    disagreement over all correspondences."""
    X, Y = list(MX.points), list(MY.points)
    best = INF
    choices = [list(range(1, 1 << len(Y))) for _ in X]
    for pick in itertools.product(*choices):
        covered = 0
        rel = []
        for i, s in enumerate(pick):
            covered |= s
            rel.extend((X[i], Y[j]) for j in range(len(Y)) if s >> j & 1)
        if covered != (1 << len(Y)) - 1:
            continue
        worst = max(abs(MX.d(x, x2) - MY.d(y, y2))
                    for (x, y) in rel for (x2, y2) in rel)
        best = min(best, worst)
    return Fraction(best, 2)


def test_gh_specializes_to_metric_gh():
    rng = random.Random(151)
    for _ in range(12):
        MX = rand_metric(rng, rng.randint(2, 3))
        MY = rand_metric(rng, rng.randint(2, 3))
        FX = filtered_from_metric(MX)
        FY = filtered_from_metric(MY)
        got = gh_distance(FX, FY)
        assert got == _metric_gh_oracle(MX, MY)
        assert got == gh_distance(FY, FX)
        assert gh_distance(FX, FX) == 0


def test_gh_cap():
    M = rand_metric(random.Random(3), 5)
    F = filtered_from_metric(M)
    with pytest.raises(CapExceeded):
        gh_distance(F, F)
    gh_distance(F, F, cap=5)


# ---------------------------------------------------------------------------
# interleavings

def _merged_towers(FX, FY, degree, eps):
    grid = tuple(sorted(set(FX.grid) | set(FY.grid) |
                        {t + eps for t in FX.grid} |
                        {t + eps for t in FY.grid}))
    M = persistence_tower(FX, SIMPLEX_J1, degree, "f2", grid=grid)
    N = persistence_tower(FY, SIMPLEX_J1, degree, "f2", grid=grid)
    return M, N


def test_interleaving_of_close_sublevel_functions():
    rng = random.Random(157)
    done = 0
    while done < 6:
        X = rand_space(rng, rng.randint(2, 4))
        f = {p: Fraction(rng.randint(0, 3)) for p in X.points}
        g = {p: Fraction(rng.randint(0, 3)) for p in X.points}
        eps = max(abs(f[p] - g[p]) for p in X.points)
        FX = filtered_from_sublevel(X, f)
        FY = filtered_from_sublevel(X, g)
        for degree in (0, 1):
            M, N = _merged_towers(FX, FY, degree, eps)
            phi = inclusion_interleaving_maps(M, N, eps)
            psi = inclusion_interleaving_maps(N, M, eps)
            assert verify_interleaving(M, N, eps, phi, psi)
        done += 1


def test_interleaving_rejects_bad_maps():
    M2 = metric_from_matrix(["a", "b"], [[0, 1], [1, 0]])
    F2 = filtered_from_metric(M2)
    T2 = persistence_tower(F2, "complex-vr", 0, "f2")  # dims [2, 1]
    X1 = filtered_from_sublevel(rand_space(random.Random(2), 1),
                                {"p0": Fraction(0)})
    grid = (Fraction(0), Fraction(1))
    T1 = persistence_tower(X1, "complex-vr", 0, "f2", grid=grid)
    F = T1.field
    one = F.one
    zero = F.zero
    # zero maps have the right shapes but break the triangle identity
    phi = [[[zero, zero]], [[zero]]]
    psi = [[[zero], [zero]], [[zero]]]
    assert not verify_interleaving(T2, T1, 0, phi, psi)
    # an honest collapse map passes: everything merges by the shift
    eps = Fraction(1)
    phi = [[[one, one]], [[one]]]
    psi = [[[one]], [[one]]]
    assert verify_interleaving(T2, T1, eps, phi, psi)
    with pytest.raises(ShapeMismatch):
        verify_interleaving(T2, T1, 0, [[[zero]]], psi)
    grid3 = (Fraction(0), Fraction(2))
    T3 = persistence_tower(X1, "complex-vr", 0, "f2", grid=grid3)
    with pytest.raises(ShapeMismatch):
        verify_interleaving(T3, T1, 0, phi, psi)
