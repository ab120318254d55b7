"""End-to-end acceptance checks, one per headline capability.

Each test prints a single pass/fail line with its runtime and enforces
a wall-clock budget.
"""
import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np

from closuretop import (CUBE_J1_BOX, CUBE_J1_TIMES, CUBE_JPLUS_BOX,
                        CUBE_JPLUS_TIMES, SIMPLEX_J1, ContinuousMap,
                        ProductKind, Theory, bottleneck, cech,
                        filtered_from_metric, filtered_from_sublevel,
                        gh_distance, homology, inclusion_interleaving_maps,
                        is_continuous, is_hypergraph_map,
                        is_simplicial, j1, j_bits, j_bot, j_leq, j_plain,
                        j_plus, j_top, metric_from_matrix, persistence_complex,
                        persistence_tower, point_space, product,
                        product_power, singular_chain_complex,
                        singular_homology, symmetrize, tower_to_diagram,
                        tr1, cosk1, dc, g_functor, Hypergraph,
                        SimplicialComplex, verify_interleaving, vr)
from closuretop.homology import chain_map_columns, induced_map
from closuretop.homotopy import MapGraph, one_step_homotopic
from closuretop._linalg import rank_and_invariants
from closuretop.persistence import INF
from conftest import all_spaces, rand_metric, rand_space, space_iso_classes


def criterion(num, label, limit):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.perf_counter()
            try:
                fn(*a, **k)
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"criterion {num:2d} [{label}]: FAIL after {dt:.2f}s")
                raise
            dt = time.perf_counter() - t0
            print(f"criterion {num:2d} [{label}]: PASS in {dt:.2f}s "
                  f"(limit {limit}s)")
            assert dt < limit, f"criterion {num} exceeded {limit}s"
        return wrapper
    return deco


@criterion(1, "directed square has one directed loop", 1)
def test_c01_directed_square():
    P = product(j_plus(), j_plus(), ProductKind.INDUCTIVE)
    C = singular_chain_complex(P, CUBE_JPLUS_TIMES, 2)
    assert all(col == {} for col in C.boundary_columns(2))
    g = homology(C, 1)
    assert g.rank == 1 and g.torsion == ()


@criterion(2, "undirected square kernel and image ranks", 5)
def test_c02_undirected_square():
    P = product(j1(), j1(), ProductKind.INDUCTIVE)
    C = singular_chain_complex(P, CUBE_J1_TIMES, 2)
    r1, _ = rank_and_invariants(C.boundary_columns(1))
    r2, _ = rank_and_invariants(C.boundary_columns(2))
    assert C.dim(1) - r1 == 5
    assert r2 == 4
    g = homology(C, 1)
    assert g.rank == 1 and g.torsion == ()


@criterion(3, "directed interval splits under the undirected theories", 1)
def test_c03_directed_interval_components():
    Jp = j_plus()
    for th in (CUBE_J1_TIMES, CUBE_J1_BOX):
        g = singular_homology(Jp, th, 0)
        assert g.rank == 2 and g.torsion == ()


@criterion(4, "interval powers are acyclic in their own theory", 30)
def test_c04_interval_powers_acyclic():
    combos = [(j1(), CUBE_J1_TIMES, ProductKind.PRODUCT),
              (j1(), CUBE_J1_BOX, ProductKind.INDUCTIVE),
              (j_plus(), CUBE_JPLUS_TIMES, ProductKind.PRODUCT),
              (j_plus(), CUBE_JPLUS_BOX, ProductKind.INDUCTIVE)]
    for J, th, kind in combos:
        for n in (0, 1, 2):
            X = product_power(J, n, kind)
            for deg in (0, 1, 2):
                g = singular_homology(X, th, deg, reduced=True)
                assert str(g) == "0", (J, th, n, deg)


@criterion(5, "clique and nerve complexes of the running example", 1)
def test_c05_complex_constructions():
    from closuretop import build_space
    X = build_space(["x", "y", "z"],
                    {"x": {"x", "y"}, "y": {"x", "y"}, "z": {"x", "y", "z"}})
    K = vr(X)
    want_vr = {frozenset(s) for s in ({"x"}, {"y"}, {"z"}, {"x", "y"})}
    assert K.simplices == frozenset(want_vr)
    C = cech(X)
    want = want_vr | {frozenset(s) for s in
                      ({"x", "z"}, {"y", "z"}, {"x", "y", "z"})}
    assert C.simplices == frozenset(want)


@criterion(6, "one-step homotopic maps induce equal maps on homology", 120)
def test_c06_homotopy_invariance():
    rng = random.Random(211)
    theories = [(CUBE_J1_TIMES, j1(), ProductKind.PRODUCT),
                (CUBE_J1_BOX, j1(), ProductKind.INDUCTIVE),
                (CUBE_JPLUS_TIMES, j_plus(), ProductKind.PRODUCT),
                (CUBE_JPLUS_BOX, j_plus(), ProductKind.INDUCTIVE)]
    done = 0
    while done < 100:
        th, J, kind = theories[done % 4]
        X = rand_space(rng, rng.randint(2, 5), prefix="x")
        Y = rand_space(rng, rng.randint(2, 5), prefix="y")
        graph = MapGraph(X, Y, J, kind)
        n = len(graph.maps)
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and graph.one_step(u, v)]
        if not pairs:
            continue
        u, v = pairs[rng.randrange(len(pairs))]
        yi = list(Y.points)
        f = ContinuousMap(X, Y, dict(zip(X.points,
                                         (yi[i] for i in graph.maps[u]))))
        g = ContinuousMap(X, Y, dict(zip(X.points,
                                         (yi[i] for i in graph.maps[v]))))
        for n in (0, 1):
            assert induced_map(f, th, n).matrix == \
                induced_map(g, th, n).matrix
        done += 1


@criterion(7, "product constructions match their relational definitions", 10)
def test_c07_product_oracles():
    rng = random.Random(223)
    for _ in range(100):
        X = rand_space(rng, rng.randint(1, 6), prefix="x")
        Y = rand_space(rng, rng.randint(1, 6), prefix="y")
        for kind in ProductKind:
            P = product(X, Y, kind)
            for (x, y) in P.points:
                want = set()
                for (x2, y2) in P.points:
                    ok = x2 in X.closure_map[x] and y2 in Y.closure_map[y]
                    if kind is ProductKind.INDUCTIVE:
                        ok = ok and (x2 == x or y2 == y)
                    if ok:
                        want.add((x2, y2))
                assert P.closure_map[(x, y)] == frozenset(want)
            assert is_continuous({p: p[0] for p in P.points}, P, X)
            assert is_continuous({p: p[1] for p in P.points}, P, Y)


def _all_vertex_maps(src_pts, tgt_pts):
    for combo in itertools.product(tgt_pts, repeat=len(src_pts)):
        yield dict(zip(src_pts, combo))


def _all_complexes(points):
    points = list(points)
    singletons = {frozenset({p}) for p in points}
    candidates = [frozenset(s) for r in range(2, len(points) + 1)
                  for s in itertools.combinations(points, r)]
    for keep in itertools.product([False, True], repeat=len(candidates)):
        chosen = set(singletons) | {c for c, k in zip(candidates, keep) if k}
        ok = all(frozenset(t) in chosen
                 for s in chosen for r in range(1, len(s))
                 for t in itertools.combinations(s, r))
        if ok:
            yield SimplicialComplex(points, chosen)


@criterion(8, "hom-set bijections for the functor tower", 60)
def test_c08_adjunctions():
    spaces = [X for n in (1, 2, 3) for X in all_spaces(n)]
    complexes = [K for n in (1, 2, 3)
                 for K in _all_complexes([f"k{i}" for i in range(n)])]
    for K in complexes:
        GK = g_functor(K)
        TK = tr1(K)
        for X in spaces:
            VRX = vr(X)
            for m in _all_vertex_maps(K.points, X.points):
                assert is_continuous(m, GK, X) == is_simplicial(m, K, VRX)
    graphs = [X for X in spaces if symmetrize(X) == X]
    for K in complexes:
        TK = tr1(K)
        for G in graphs:
            CG = cosk1(G)
            for m in _all_vertex_maps(K.points, G.points):
                assert is_continuous(m, TK, G) == is_simplicial(m, K, CG)
    hypers = []
    for n in (1, 2):
        pts = [f"h{i}" for i in range(n)]
        subsets = [frozenset(s) for r in range(1, n + 1)
                   for s in itertools.combinations(pts, r)]
        for keep in itertools.product([False, True], repeat=len(subsets)):
            hypers.append(Hypergraph(pts, {s for s, k in zip(subsets, keep)
                                           if k}))
    closed = [Hypergraph(K.points, K.simplices) for K in complexes]
    for H in hypers:
        DH = dc(H)
        for K in closed:
            for m in _all_vertex_maps(H.points, K.points):
                assert is_hypergraph_map(m, DH, K) == is_hypergraph_map(m, H, K)
    sym = [X for X in spaces if symmetrize(X) == X]
    for S in sym:
        for X in spaces:
            SX = symmetrize(X)
            for m in _all_vertex_maps(S.points, X.points):
                assert is_continuous(m, S, X) == is_continuous(m, S, SX)


@criterion(9, "matrix reduction and rank-function diagrams coincide", 120)
def test_c09_pipeline_cross_oracle():
    rng = random.Random(227)
    for _ in range(50):
        M = rand_metric(rng, rng.randint(2, 5))
        F = filtered_from_metric(M)
        reduced = persistence_complex(F, "vr", max_dim=1, coefficients="f2")
        for deg in (0, 1):
            T = persistence_tower(F, "complex-vr", deg, "f2")
            assert tower_to_diagram(T).as_multiset() == \
                reduced[deg].as_multiset()


@criterion(10, "sublevel persistence is stable under sup-norm changes", 120)
def test_c10_sublevel_stability():
    rng = random.Random(229)
    for _ in range(100):
        X = rand_space(rng, rng.randint(2, 6))
        f = {p: Fraction(rng.randint(0, 4)) for p in X.points}
        g = {p: Fraction(rng.randint(0, 4)) for p in X.points}
        sup = max(abs(f[p] - g[p]) for p in X.points)
        Ff = filtered_from_sublevel(X, f)
        Fg = filtered_from_sublevel(X, g)
        for deg in (0, 1):
            Df = tower_to_diagram(persistence_tower(Ff, SIMPLEX_J1, deg))
            Dg = tower_to_diagram(persistence_tower(Fg, SIMPLEX_J1, deg))
            assert bottleneck(Df, Dg) <= sup


@criterion(11, "persistence is stable against the correspondence metric", 300)
def test_c11_gh_stability():
    rng = random.Random(233)
    for _ in range(50):
        MX = rand_metric(rng, rng.randint(2, 6))
        MY = rand_metric(rng, rng.randint(2, 6))
        FX = filtered_from_metric(MX)
        FY = filtered_from_metric(MY)
        gh = gh_distance(FX, FY)
        DX = persistence_complex(FX, "vr", max_dim=1)
        DY = persistence_complex(FY, "vr", max_dim=1)
        for deg in (0, 1):
            assert bottleneck(DX[deg], DY[deg]) <= 2 * gh


def _partition(X, Y, J, kind):
    graph = MapGraph(X, Y, J, kind)
    n = len(graph.maps)
    seen = [False] * n
    blocks = set()
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            a = stack.pop()
            comp.append(graph.maps[a])
            for b in range(n):
                if not seen[b] and (graph.one_step(a, b)
                                    or graph.one_step(b, a)):
                    seen[b] = True
                    stack.append(b)
        blocks.add(frozenset(comp))
    return blocks


@criterion(12, "interval families generate matching homotopy relations", 300)
def test_c12_interval_equivalences():
    reps = space_iso_classes(3)
    group_a = [j1(), j_plain(2), j_top(2)]
    group_b = [j_plus(), j_leq(2)] + [j_bits(2, k) for k in range(4)]
    for X in reps:
        for Y in reps:
            for kind in ProductKind:
                parts_a = [_partition(X, Y, J, kind) for J in group_a]
                assert all(p == parts_a[0] for p in parts_a[1:])
                parts_b = [_partition(X, Y, J, kind) for J in group_b]
                assert all(p == parts_b[0] for p in parts_b[1:])
                bot = _partition(X, Y, j_bot(1), kind)
                assert len(bot) <= 1


@criterion(13, "correspondence distance specializes to the metric one", 60)
def test_c13_metric_specialization():
    rng = random.Random(239)
    for _ in range(10):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        FA = filtered_from_metric(metric_from_matrix(["x", "y"],
                                                     [[0, a], [a, 0]]))
        FB = filtered_from_metric(metric_from_matrix(["u", "v"],
                                                     [[0, b], [b, 0]]))
        got = gh_distance(FA, FB)
        assert abs(got - Fraction(abs(a - b), 2)) <= 1e-9
    for _ in range(50):
        MX = rand_metric(rng, rng.randint(2, 4))
        MY = rand_metric(rng, rng.randint(2, 4))
        got = gh_distance(filtered_from_metric(MX), filtered_from_metric(MY))
        assert abs(got - _metric_gh_oracle(MX, MY)) <= 1e-9


def _metric_gh_oracle(MX, MY):
    """Vectorized brute force over correspondences built from a pair of
    surjection-free maps phi: X -> Y and psi: Y -> X.  Every correspondence
    contains one of these, so the minimum agrees."""
    X, Y = list(MX.points), list(MY.points)
    nx, ny = len(X), len(Y)
    dX = np.array([[float(MX.d(p, q)) for q in X] for p in X])
    dY = np.array([[float(MY.d(p, q)) for q in Y] for p in Y])
    phis = np.array(list(itertools.product(range(ny), repeat=nx)))
    psis = np.array(list(itertools.product(range(nx), repeat=ny)))
    # distortion of each phi alone: max |dX(x,x') - dY(phi x, phi x')|
    dis_phi = np.abs(dX[None, :, :] -
                     dY[phis[:, :, None], phis[:, None, :]]).max(axis=(1, 2))
    dis_psi = np.abs(dY[None, :, :] -
                     dX[psis[:, :, None], psis[:, None, :]]).max(axis=(1, 2))
    # cross terms: max over (x, y) of |dX(x, psi y) - dY(phi x, y)|
    best = INF
    A = dX[:, psis]            # shape (nx, n_psi, ny): dX(x, psi_j(y))
    B = dY[phis]               # shape (n_phi, nx, ny): dY(phi_i(x), y)
    for i in range(len(phis)):
        cross = np.abs(A.transpose(1, 0, 2) - B[i][None, :, :]).max(axis=(1, 2))
        total = np.maximum(np.maximum(dis_psi, cross), dis_phi[i])
        best = min(best, total.min())
    return best / 2
