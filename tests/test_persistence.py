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
                        bottleneck, build_space, cech, check_correspondence,
                        complex_chain_complex, diagram_from_json,
                        diagram_to_json, distortion, filtered_from_metric,
                        filtered_from_sublevel,
                        filtered_from_weighted_digraph,
                        gh_distance, homology, inclusion_interleaving_maps,
                        metric_closure, metric_from_matrix,
                        persistence_complex,
                        persistence_tower, singular_chain_complex,
                        tower_to_diagram, verify_interleaving, vr)
from closuretop import persistence as persistence_mod
from closuretop._linalg import Field, FieldReducer
from closuretop.complexes import _skeleton
from closuretop.persistence import Tower, _birth_rule, _levels, _pair_term
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


def _filtered_simplices(F, construction, max_dim):
    """(birth, simplex) for the simplices of at most max_dim + 2 points,
    from the birth rule and levels that persistence_complex reads, sorted
    by birth, then size, then the points' reprs."""
    points, vertex, grow = _birth_rule(F, construction)
    levels = _levels(vertex, grow, len(F.grid), max_dim + 2)
    ordered = sorted((bcs for level in levels for bcs in level),
                     key=lambda bcs: (bcs[0], len(bcs[2]), bcs[1]))
    return [(F.grid[b], tuple(points[i] for i in s)) for b, _, s in ordered]


def test_filtered_simplices_first_appearance():
    M = metric_from_matrix(["a", "b"], [[0, 3], [3, 0]])
    F = filtered_from_metric(M)
    sims = _filtered_simplices(F, "vr", 0)
    assert sims == [(0, ("a",)), (0, ("b",)), (3, ("a", "b"))]
    with pytest.raises(BadParameter):
        persistence_complex(F, "alpha")
    for construction in ("vr", "cech"):
        with pytest.raises(BadParameter):
            persistence_complex(F, construction, max_dim=-1)


def test_filtered_simplices_vr_thirty_point_births():
    """VR births up to triangles read straight off the distances: a
    simplex is born at its largest pairwise distance."""
    M = rand_metric(random.Random(30), 30)
    births = {(x,): 0 for x in M.points}
    for r in (2, 3):
        for s in itertools.combinations(M.points, r):
            births[s] = max(M.dist[p] for p in itertools.combinations(s, 2))
    expected = sorted(((b, tuple(sorted(s, key=repr))) for s, b in births.items()),
                      key=lambda bs: (bs[0], len(bs[1]), tuple(map(repr, bs[1]))))
    assert _filtered_simplices(filtered_from_metric(M), "vr", 1) == expected


def _stage_by_stage_simplices(F, construction, max_dim):
    """Reference: build the complex of every stage up to simplices of
    max_dim + 2 points, keep first appearances."""
    births = {}
    for t, stage in zip(F.grid, F.stages):
        for s in _skeleton(stage, construction, max_dim + 2).simplices:
            births.setdefault(s, t)
    return sorted(((births[s], tuple(sorted(s, key=repr))) for s in births),
                  key=lambda bs: (bs[0], len(bs[1]), tuple(map(repr, bs[1]))))


def _rand_filtration(rng, kind):
    n = rng.randint(1, 7)
    if kind == "metric":
        return filtered_from_metric(rand_metric(rng, n))
    if kind == "grid":
        # l1 distances on a 4 x 4 integer grid tie often, so the order of
        # the points decides the pairs
        return filtered_from_metric(rand_metric(rng, n, coord_range=3))
    if kind == "sublevel":
        X = rand_space(rng, n, p=rng.choice([0.3, 0.6]))
        return filtered_from_sublevel(
            X, {x: Fraction(rng.randint(0, 4)) for x in X.points})
    pts = [f"v{i}" for i in range(n)]
    weights = {(a, b): Fraction(rng.randint(0, 5)) for a in pts for b in pts
               if a != b and rng.random() < 0.5}
    return filtered_from_weighted_digraph(WeightedDigraph(pts, weights))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["metric", "grid", "digraph",
                                                  "sublevel"]),
       st.sampled_from(["vr", "cech"]), st.integers(0, 2))
def test_filtered_simplices_match_stage_by_stage_build(seed, kind,
                                                       construction, max_dim):
    F = _rand_filtration(random.Random(seed), kind)
    assert (_filtered_simplices(F, construction, max_dim)
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
    filtered = [filtered_from_metric(M)]
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


FIELDS = {"f2": Field(2), "f3": Field(3), "q": Field(0)}


def _boundary_reduction_diagrams(F, construction, max_dim, coefficients):
    """Reference: reduce the boundary column of every simplex up to
    max_dim + 1 in filtration order; the lowest row of a column that
    stays nonzero is the simplex its simplex kills."""
    simplices = _stage_by_stage_simplices(F, construction, max_dim)
    index = {s: i for i, (_, s) in enumerate(simplices)}
    reducer = FieldReducer(FIELDS[coefficients])
    pairs = {d: [] for d in range(max_dim + 1)}
    unpaired = set()
    for j, (death, s) in enumerate(simplices):
        col = ({index[s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))}
               if len(s) > 1 else {})
        rest, _ = reducer.add(col)
        if not rest:
            unpaired.add(j)
            continue
        low = max(rest)
        unpaired.discard(low)
        birth, face = simplices[low]
        if birth != death and len(face) - 1 <= max_dim:
            pairs[len(face) - 1].append((birth, death))
    for j in unpaired:
        deg = len(simplices[j][1]) - 1
        if deg <= max_dim:
            pairs[deg].append((simplices[j][0], None))
    return {d: PersistenceDiagram(d, tuple(pairs[d]))
            for d in range(max_dim + 1)}


def _same_diagrams(got, want):
    return ({d: D.as_multiset() for d, D in got.items()}
            == {d: D.as_multiset() for d, D in want.items()})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["metric", "grid", "digraph",
                                                  "sublevel"]),
       st.sampled_from(["vr", "cech"]), st.integers(0, 2),
       st.sampled_from(sorted(FIELDS)))
def test_coboundary_reduction_matches_boundary_reduction(
        seed, kind, construction, max_dim, coefficients):
    F = _rand_filtration(random.Random(seed), kind)
    got = persistence_complex(F, construction, max_dim, coefficients)
    want = _boundary_reduction_diagrams(F, construction, max_dim,
                                        coefficients)
    assert _same_diagrams(got, want)


def test_thirty_point_coboundary_reduction_matches_boundary_reduction():
    """Thirty points on a 9 x 9 grid: thousands of triangles, many ties."""
    F = filtered_from_metric(rand_metric(random.Random(179), 30))
    for construction in ("vr", "cech"):
        for coefficients in sorted(FIELDS):
            got = persistence_complex(F, construction, 1, coefficients)
            want = _boundary_reduction_diagrams(F, construction, 1,
                                                coefficients)
            assert _same_diagrams(got, want)


def test_persistence_lists_no_row_simplex(monkeypatch):
    """The simplices of max_dim + 2 vertices are rows only: their
    births are read when a column needs them, and none is listed."""
    from closuretop import persistence
    real = persistence._levels
    listed = []

    def recording(*args):
        levels = real(*args)
        listed.extend(s for level in levels for _, _, s in level)
        return levels

    monkeypatch.setattr(persistence, "_levels", recording)
    F = filtered_from_metric(rand_metric(random.Random(181), 7))
    for construction in ("vr", "cech"):
        for max_dim in (0, 1, 2):
            listed.clear()
            out = persistence_complex(F, construction, max_dim)
            assert sum(len(D) for D in out.values()) > 0
            assert listed and max(map(len, listed)) == max_dim + 1


def test_tower_diagram_matches_matrix_reduction():
    rng = random.Random(131)
    for n in range(12):
        M = rand_metric(rng, rng.randint(2, 5))
        F = filtered_from_metric(M)
        coefficients = ("f2", "q")[n % 2]
        for construction in ("vr", "cech"):
            reduced = persistence_complex(F, construction, max_dim=1,
                                          coefficients=coefficients)
            for deg in (0, 1):
                T = persistence_tower(F, f"complex-{construction}", deg,
                                      coefficients)
                D = tower_to_diagram(T)
                assert D.as_multiset() == reduced[deg].as_multiset()


def _full_stage_complex(stage, theory, top):
    """A tower stage from the whole complex: every clique or every subset
    of every closure, cut to degree top only at assembly."""
    K = vr(stage) if theory == "complex-vr" else cech(stage)
    return complex_chain_complex(K, top=top)


def test_tower_stages_list_only_the_simplices_their_degree_reads(monkeypatch):
    rng = random.Random(179)
    cases = 0
    for kind in ("metric", "digraph", "sublevel"):
        for _ in range(6):
            F = _rand_filtration(rng, kind)
            if len(F.stage_at(F.grid[-1]).points) < 2:
                continue
            for theory in ("complex-vr", "complex-cech"):
                for deg in (0, 1):
                    for coeffs in ("f2", "q"):
                        T = persistence_tower(F, theory, deg, coeffs)
                        with monkeypatch.context() as m:
                            m.setattr(persistence_mod, "_stage_complex",
                                      _full_stage_complex)
                            R = persistence_tower(F, theory, deg, coeffs)
                        assert T.dims == R.dims
                        for C, D in zip(T._complexes, R._complexes):
                            assert (C.basis, C.boundaries) == (D.basis,
                                                               D.boundaries)
                        assert (tower_to_diagram(T).as_multiset()
                                == tower_to_diagram(R).as_multiset())
                        cases += 1
    assert cases >= 100


def test_tower_of_sixteen_points_within_budget():
    # 121 stages; whole complexes took 8 s (VR) and 51 s (Cech) in degree 0
    F = filtered_from_metric(rand_metric(random.Random(173), 16,
                                         coord_range=10 ** 6))
    assert len(F.grid) == 121
    for construction in ("vr", "cech"):
        reduced = persistence_complex(F, construction, max_dim=1)
        for deg in (0, 1):
            start = time.perf_counter()
            D = tower_to_diagram(persistence_tower(
                F, f"complex-{construction}", deg))
            assert time.perf_counter() - start < 2, (construction, deg)
            assert D.as_multiset() == reduced[deg].as_multiset()


def test_tower_ranks_and_indexing():
    M = metric_from_matrix(["a", "b"], [[0, 3], [3, 0]])
    F = filtered_from_metric(M)
    T = persistence_tower(F, "complex-vr", 0, "f2")
    assert T.dims == [2, 1]
    assert tower_to_diagram(T).as_multiset() == {(0, 3): 1, (0, None): 1}
    assert T.index_at(-1) is None and T.dim_at(-1) == 0
    assert T.index_at(Fraction(5, 2)) == 0
    assert T.push(0, 1, {0: 1, 1: 1}) == {}  # both points merge at 3
    with pytest.raises(ShapeMismatch):
        T.push(1, 0, {})
    with pytest.raises(BadParameter):
        persistence_tower(F, "complex-vr", 0, "z")


def test_tower_index_against_scan_and_grid_order():
    grid = (0, Fraction(1, 2), 2, 5)
    T = Tower(grid, [0] * 4, [[]] * 3, Field(2), 0)
    for t in (-1, 0, Fraction(1, 4), Fraction(1, 2), 1, 2, 3, 5, 6):
        below = [i for i, v in enumerate(grid) if v <= t]
        assert T.index_at(t) == (below[-1] if below else None)
    for bad in ((0, 2, 1), (0, 1, 1)):
        with pytest.raises(ShapeMismatch):
            Tower(bad, [0] * 3, [[]] * 2, Field(2), 0)
    # a map from dimension 2 to 1 is two sparse columns with rows in {0}
    assert Tower((0, 1), [2, 1], [[{0: 1}, {}]], Field(2), 0).dims == [2, 1]
    for bad in ([{0: 1}], [{0: 1}, {}, {}], [{0: 1}, {1: 1}],
                [{0: 1}, {-1: 1}]):
        with pytest.raises(ShapeMismatch, match="map 0"):
            Tower((0, 1), [2, 1], [bad], Field(2), 0)


def _columns(A, cols):
    """The dense matrix A (a list of rows) with cols columns as sparse
    columns, the form of tower and interleaving maps."""
    return [{r: row[c] for r, row in enumerate(A) if row[c]}
            for c in range(cols)]


def _rows(F, M, rows):
    """The sparse columns M as a dense matrix with the given row count."""
    return [[col.get(r, F.zero) for col in M] for r in range(rows)]


def _oracle_mul(F, A, B, cols):
    """A times B for dense matrices (lists of rows); B has cols columns."""
    out = []
    for row in A:
        out.append([F.zero] * cols)
        for t, a in enumerate(row):
            for c in range(cols):
                out[-1][c] = F.of(out[-1][c] + a * B[t][c])
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
                f = F.of(rows[r][c] * inv)
                rows[r] = [F.of(a - f * b)
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _oracle_diagram(T):
    """Bars by inclusion-exclusion on the rank function r(i, j) of T."""
    F, k = T.field, len(T.grid)
    r = [[0] * k for _ in range(k)]
    for i in range(k):
        acc = [[F.of(1) if a == b else F.zero for b in range(T.dims[i])]
               for a in range(T.dims[i])]
        r[i][i] = T.dims[i]
        for j in range(i + 1, k):
            acc = _oracle_mul(F, _rows(F, T.maps[j - 1], T.dims[j]), acc,
                              T.dims[i])
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
    fields = [Field(2), Field(3), Field(0)]
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
            maps.append(_columns(M, a))
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
    # 1200 bars each side, each bar shifted by 1/2
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


def _matching_costs(A, B):
    """The cost of each edge of the matching problem, as a square table:
    left bars of A then diagonal copies of B's bars, right bars of B
    then diagonal copies of A's bars; with the cost of the infinite bars."""
    bars1 = [bd for bd in A.pairs if bd[1] is not None]
    bars2 = [bd for bd in B.pairs if bd[1] is not None]
    n1, n2 = len(bars1), len(bars2)

    def cost(i, j):
        if i < n1 and j < n2:
            (b, d), (b2, d2) = bars1[i], bars2[j]
            return max(abs(b - b2), abs(d - d2))
        if i < n1:
            return (bars1[i][1] - bars1[i][0]) / 2 if j - n2 == i else INF
        if j < n2:
            return (bars2[j][1] - bars2[j][0]) / 2 if i - n1 == j else INF
        return 0

    inf1 = sorted(b for b, d in A.pairs if d is None)
    inf2 = sorted(b for b, d in B.pairs if d is None)
    return ([[cost(i, j) for j in range(n1 + n2)] for i in range(n1 + n2)],
            max((abs(a - b) for a, b in zip(inf1, inf2)), default=0))


def _brute_force_bottleneck(A, B):
    """Least worst cost over all matchings of bars and diagonal copies."""
    costs, inf_cost = _matching_costs(A, B)
    best = min((max((costs[i][j] for i, j in enumerate(perm)), default=0)
                for perm in itertools.permutations(range(len(costs)))))
    return max(best, inf_cost)


def _scan_bottleneck(A, B):
    """Least cost, scanned upward, at which a recursive augmenting-path
    search over every edge within it matches all vertices."""
    costs, inf_cost = _matching_costs(A, B)
    size = len(costs)

    def augment(i, eps, match, seen):
        for j in range(size):
            if costs[i][j] <= eps and j not in seen:
                seen.add(j)
                if j not in match or augment(match[j], eps, match, seen):
                    match[j] = i
                    return True
        return False

    for eps in sorted({0} | {c for row in costs for c in row} - {INF}):
        match = {}
        if all(augment(i, eps, match, set()) for i in range(size)):
            return max(eps, inf_cost)


def test_bottleneck_against_brute_force():
    # within 2, the long bar (0, 6) of A reaches only the short bar (2, 4)
    # of B, and the long bar (20, 26) of B only the short bar (22, 24) of
    # A: each side's long bars are covered, through different short bars
    A = PersistenceDiagram(0, ((0, 6), (22, 24)))
    B = PersistenceDiagram(0, ((20, 26), (2, 4)))
    assert bottleneck(A, B) == _brute_force_bottleneck(A, B) == 2
    rng = random.Random(139)
    for _ in range(40):
        k = rng.randint(0, 1)
        A = _rand_diagram(rng, n_inf=k, max_bars=3)
        B = _rand_diagram(rng, n_inf=k, max_bars=3)
        assert bottleneck(A, B) == _brute_force_bottleneck(A, B)


def test_bottleneck_against_scan_with_ties():
    """Diagrams of up to 14 bars on a small integer grid, so distances
    tie often and some bars have length zero."""
    rng = random.Random(151)
    for _ in range(30):
        k = rng.randint(0, 2)
        A, B = (_rand_diagram(rng, n_inf=k, max_bars=rng.choice([6, 14]))
                for _ in range(2))
        assert bottleneck(A, B) == _scan_bottleneck(A, B)


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


def _gh_branch_and_bound(FX, FY):
    """Half the least distortion by branch-and-bound over each point's
    nonempty image subset: exponential, an oracle for a few points.  It
    compares the ranks of the pair terms, which is faster than comparing
    fractions."""
    X, Y = list(FX.points), list(FY.points)
    nx, ny = len(X), len(Y)
    W = {(p, q): _pair_term(FX, FY, (X[p[0]], X[q[0]]), (Y[p[1]], Y[q[1]]))
         for p in itertools.product(range(nx), range(ny))
         for q in itertools.product(range(nx), range(ny))}
    values = sorted(set(W.values()))
    rank = {v: r for r, v in enumerate(values)}
    W = {pq: rank[v] for pq, v in W.items()}
    best = len(values)

    def extend(i, chosen, covered, cur):
        nonlocal best
        if cur >= best:
            return
        if i == nx:
            if covered == (1 << ny) - 1:
                best = cur
            return
        for s in range(1, 1 << ny):
            new = [(i, j) for j in range(ny) if s >> j & 1]
            m = cur
            for p, q in itertools.product(new, chosen + new):
                m = max(m, W[(p, q)], W[(q, p)])
                if m >= best:
                    break
            if m < best:
                extend(i + 1, chosen + new, covered | s, m)

    extend(0, [], 0, 0)
    return values[best] / Fraction(2)


def test_gh_against_branch_and_bound():
    """Equal value and type on metrics, pseudo ones included, weighted digraphs and sublevel filtrations.  Most digraph
    and sublevel pairs share a relation, so that their distance is
    finite."""
    rng = random.Random(163)

    def draw(kind, n):
        if kind == "metric":
            return [filtered_from_metric(
                rand_metric(rng, n, pseudo=rng.random() < 0.3))
                for _ in range(2)]
        if kind == "sublevel":
            X = rand_space(rng, n)
            return [filtered_from_sublevel(
                X, {x: Fraction(rng.randint(0, 4)) for x in X.points})
                for _ in range(2)]
        pts = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a in pts for b in pts
                 if a != b and rng.random() < 0.6]
        return [filtered_from_weighted_digraph(WeightedDigraph(
            pts, {e: Fraction(rng.randint(1, 5)) for e in edges}))
            for _ in range(2)]

    for k in range(420):
        kind = ("metric", "digraph", "sublevel")[k % 3]
        FX, FY = draw(kind, rng.randint(1, 4))
        if k % 4 == 0:
            FY = draw(kind, rng.randint(1, 4))[0]
        got, want = gh_distance(FX, FY), _gh_branch_and_bound(FX, FY)
        assert got == want and type(got) is type(want)


def test_strict_balls_give_the_closed_ball_results():
    """A metric filtration holds the strict balls off the grid values, so
    strict balls give the closed-ball diagrams and GH distances."""
    M = metric_from_matrix(["a", "b", "c"],
                           [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    F = filtered_from_metric(M)
    t = Fraction(3, 2)
    assert F.stage_at(t) == metric_closure(M, t, Decoration.MINUS)
    assert F.stage_at(t).closure_map["a"] == frozenset({"a", "b"})
    D0 = persistence_complex(F, "vr", 0)[0]
    assert D0.sorted_pairs() == [(0, 1), (0, 2), (0, None)]
    two = [filtered_from_metric(metric_from_matrix(["x", "y"],
                                                   [[0, d], [d, 0]]))
           for d in (2, 5)]
    assert gh_distance(*two) == Fraction(3, 2)


def test_gh_cap():
    M = rand_metric(random.Random(3), 7)
    F = filtered_from_metric(M)
    with pytest.raises(CapExceeded):
        gh_distance(F, F)
    gh_distance(F, F, cap=7)


def _stability_terms(seed, construction, kind):
    """GH distance of a seeded pair of filtrations on 2-6 points, l1
    metrics or weighted digraphs, and the bottleneck distances of their
    degree 0 and 1 diagrams; infinite when the infinite bars differ in
    number, which only an infinite GH distance allows.  Half the digraph
    pairs have every edge, so that their GH distance is finite."""
    rng = random.Random(seed)
    density = rng.choice((0.6, 1))

    def draw():
        n = rng.randint(2, 6)
        if kind == "metric":
            return filtered_from_metric(rand_metric(rng, n))
        pts = [f"v{i}" for i in range(n)]
        weights = {(a, b): Fraction(rng.randint(1, 5)) for a in pts
                   for b in pts if a != b and rng.random() < density}
        return filtered_from_weighted_digraph(WeightedDigraph(pts, weights))

    FX, FY = draw(), draw()
    DX, DY = (persistence_complex(F, construction, max_dim=1)
              for F in (FX, FY))
    dists = []
    for deg in (0, 1):
        try:
            dists.append(bottleneck(DX[deg], DY[deg]))
        except InfinityMismatch:
            dists.append(INF)
    return gh_distance(FX, FY), dists


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["vr", "cech"]),
       st.sampled_from(["metric", "digraph"]))
def test_bottleneck_at_most_twice_gh(seed, construction, kind):
    # the paper's stability theorem for its VR and Cech constructions
    gh, dists = _stability_terms(seed, construction, kind)
    assert all(d <= 2 * gh for d in dists)


# seeds of _stability_terms whose pair attains the bound in some degree,
# so that a GH distance read too large fails as well as one too small
STABILITY_ATTAINED = {("vr", "metric"): 15, ("vr", "digraph"): 30,
                      ("cech", "metric"): 15, ("cech", "digraph"): 167}


def test_stability_bound_attained_on_seeded_pairs():
    for (construction, kind), seed in STABILITY_ATTAINED.items():
        gh, dists = _stability_terms(seed, construction, kind)
        assert gh != INF and max(dists) == 2 * gh


# ---------------------------------------------------------------------------
# interleavings

def _merged_towers(FX, FY, degree, eps):
    grid = tuple(sorted(set(FX.grid) | set(FY.grid) |
                        {t + eps for t in FX.grid} |
                        {t + eps for t in FY.grid}))
    M = persistence_tower(FX, SIMPLEX_J1, degree, "f2", grid=grid)
    N = persistence_tower(FY, SIMPLEX_J1, degree, "f2", grid=grid)
    return M, N


def _oracle_structure(T, i, j):
    """The structure map of T from stage i to stage j as a dense matrix."""
    F = T.field
    acc = [[F.of(1) if a == b else F.zero for b in range(T.dims[i])]
           for a in range(T.dims[i])]
    for k in range(i, j):
        acc = _oracle_mul(F, _rows(F, T.maps[k], T.dims[k + 1]), acc,
                          T.dims[i])
    return acc


def _oracle_failures(M, N, eps, phi, psi):
    """Dense products of the interleaving identities on a shared grid: the
    set of those that fail, numbered 0 for the triangle through M, 1
    through N, 2 for the naturality square of phi and 3 of psi."""
    F, grid, k = M.field, M.grid, len(M.grid)
    shift = [N.index_at(t + eps) for t in grid]
    failed = set()
    for i in range(k):
        j = shift[i]
        jj = M.index_at(grid[j] + eps)
        two = M.index_at(grid[i] + 2 * eps)
        for which, (A, f, g) in enumerate(((M, phi, psi), (N, psi, phi))):
            d = A.dims[i]
            lhs = _oracle_mul(F, _oracle_structure(A, jj, two),
                              _oracle_mul(F, g[j], f[i], d), d)
            if lhs != _oracle_structure(A, i, two):
                failed.add(which)
    for i in range(k - 1):
        for which, (A, B, f) in enumerate(((M, N, phi), (N, M, psi)), 2):
            d = A.dims[i]
            lhs = _oracle_mul(F, f[i + 1], _oracle_structure(A, i, i + 1), d)
            rhs = _oracle_mul(F, _oracle_structure(B, shift[i], shift[i + 1]),
                              f[i], d)
            if lhs != rhs:
                failed.add(which)
    return frozenset(failed)


def _rand_matrix(rng, F, rows, cols):
    return [[F.of(rng.randint(-2, 2)) for _ in range(cols)]
            for _ in range(rows)]


def _rand_tower(rng, F, grid):
    """Stage dimensions 0-3 and maps of every rank through an inner space."""
    dims = [rng.randint(0, 3) for _ in grid]
    maps = []
    for a, b in zip(dims, dims[1:]):
        inner = rng.randint(0, min(a, b))
        maps.append(_columns(_oracle_mul(F, _rand_matrix(rng, F, b, inner),
                                         _rand_matrix(rng, F, inner, a), a),
                             a))
    return Tower(grid, dims, maps, F, 0)


def test_verify_interleaving_against_dense_oracle():
    # a tower is eps-interleaved with itself by its structure maps; random
    # entries added to one phi[i] or psi[i] can break one square alone,
    # and random maps between random towers one triangle alone
    rng = random.Random(599)
    fields = [Field(2), Field(3), Field(0)]
    seen = set()
    for n in range(600):
        F = fields[n % 3]
        grid = tuple(sorted(rng.sample(range(8), rng.randint(2, 6))))
        eps = rng.choice((0, 1, 2, 3))
        M = _rand_tower(rng, F, grid)
        shift = [M.index_at(t + eps) for t in grid]
        if n % 2:
            N = M
            phi = [_oracle_structure(M, i, j) for i, j in enumerate(shift)]
            psi = [[row[:] for row in m] for m in phi]
            for row in rng.choice((phi, psi))[rng.randrange(len(grid))]:
                for c in range(len(row)):
                    if rng.random() < 0.5:
                        row[c] = F.of(row[c] + rng.randint(1, 2))
        else:
            N = _rand_tower(rng, F, grid)
            phi = [_rand_matrix(rng, F, N.dims[j], M.dims[i])
                   for i, j in enumerate(shift)]
            psi = [_rand_matrix(rng, F, M.dims[j], N.dims[i])
                   for i, j in enumerate(shift)]
        failed = _oracle_failures(M, N, eps, phi, psi)
        sparse_phi = [_columns(m, M.dims[i]) for i, m in enumerate(phi)]
        sparse_psi = [_columns(m, N.dims[i]) for i, m in enumerate(psi)]
        assert (verify_interleaving(M, N, eps, sparse_phi, sparse_psi)
                == (not failed))
        seen.add(failed)
    assert {frozenset(s) for s in ((), (0,), (1,), (2,), (3,))} <= seen

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
    one = F.of(1)
    # zero maps have the right shapes but break the triangle identity
    phi = [[{}, {}], [{}]]
    psi = [[{}], [{}]]
    assert not verify_interleaving(T2, T1, 0, phi, psi)
    # an honest collapse map passes: everything merges by the shift
    eps = Fraction(1)
    phi = [[{0: one}, {0: one}], [{0: one}]]
    psi = [[{0: one}], [{0: one}]]
    assert verify_interleaving(T2, T1, eps, phi, psi)
    with pytest.raises(ShapeMismatch):
        verify_interleaving(T2, T1, 0, [[{}]], psi)
    # phi[0] takes the two generators of T2 at 0 into the one of T1, and
    # psi[0] the one of T1 at 0 into the two of T2: a column too few or
    # too many, or a row out of range, has the wrong shape
    for bad in ([{}], [{}, {}, {}], [{}, {1: one}]):
        with pytest.raises(ShapeMismatch, match=r"phi\[0\]"):
            verify_interleaving(T2, T1, 0, [bad, [{}]], psi)
    for bad in ([], [{}, {}], [{2: one}]):
        with pytest.raises(ShapeMismatch, match=r"psi\[0\]"):
            verify_interleaving(T2, T1, 0, phi, [bad, [{}]])
    grid3 = (Fraction(0), Fraction(2))
    T3 = persistence_tower(X1, "complex-vr", 0, "f2", grid=grid3)
    with pytest.raises(ShapeMismatch):
        verify_interleaving(T3, T1, 0, phi, psi)


def test_verify_interleaving_refuses_towers_over_different_fields():
    # the identity interleaves a tower with itself at eps 0; the same tower
    # over another field on the same grid is refused
    def tower(p):
        F = Field(p)
        return Tower((0, 1), [1, 1], [[{0: F.of(1)}]], F, 0)

    ident = [[{0: 1}], [{0: 1}]]
    for p, q in ((2, 3), (2, 0)):
        assert verify_interleaving(tower(p), tower(p), 0, ident, ident)
        with pytest.raises(ShapeMismatch):
            verify_interleaving(tower(p), tower(q), 0, ident, ident)


def test_towers_of_another_degree_or_field_are_refused():
    # the path a - b - c with sublevel values 0, 1, 2: towers on one grid
    # but of two degrees or over two fields make no interleaving frame
    X = build_space(["a", "b", "c"], {"a": {"a", "b"}, "b": {"a", "b", "c"},
                                      "c": {"b", "c"}})
    F = filtered_from_sublevel(X, {"a": 0, "b": 1, "c": 2})
    T0 = persistence_tower(F, "complex-vr", 0, "f2")
    T1 = persistence_tower(F, "complex-vr", 1, "f2")
    Tq = persistence_tower(F, "complex-vr", 0, "q")
    for T in (T0, T1, Tq):
        phi = inclusion_interleaving_maps(T, T, 0)
        assert verify_interleaving(T, T, 0, phi, phi)
    for A, B, what in ((T0, T1, "degree"), (T1, T0, "degree"),
                       (T0, Tq, "field"), (Tq, T0, "field")):
        with pytest.raises(ShapeMismatch, match=what):
            inclusion_interleaving_maps(A, B, 0)
        with pytest.raises(ShapeMismatch, match=what):
            verify_interleaving(A, B, 0, [], [])
