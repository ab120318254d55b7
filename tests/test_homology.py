"""Exact linear algebra oracles and singular homology checks."""
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form

from closuretop import (CUBE_J1_BOX, CUBE_J1_TIMES, CUBE_JPLUS_BOX,
                        CUBE_JPLUS_TIMES, SIMPLEX_J1, SIMPLEX_JPLUS,
                        ContinuousMap, DegreeOutOfRange, DimensionTooLarge,
                        ProductKind, Theory, build_space,
                        complex_chain_complex, complex_from_text,
                        cubical_chain_complex, homology, homology_basis,
                        induced_map, interval, j1, j_plus, point_space,
                        product, product_power, singular_chain_complex,
                        singular_homology)
from closuretop._linalg import (PrimeField, RationalField, field_kernel,
                                integer_kernel_basis, rank_and_invariants,
                                rank_mod_p, snf_with_row_transform,
                                solve_rational)
from closuretop.homology import cube_degenerate, cube_face
from conftest import rand_space


def _rand_sparse_columns(rng, n_rows, n_cols, lo=-3, hi=3, density=0.5):
    cols = []
    for _ in range(n_cols):
        col = {r: rng.randint(lo, hi) for r in range(n_rows)
               if rng.random() < density}
        cols.append({r: c for r, c in col.items() if c})
    return cols


def _dense(cols, n_rows):
    return [[col.get(r, 0) for col in cols] for r in range(n_rows)]


def test_rank_and_invariants_against_sympy():
    rng = random.Random(71)
    for _ in range(40):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        cols = _rand_sparse_columns(rng, n_rows, n_cols)
        M = sympy.Matrix(_dense(cols, n_rows))
        rank, invs = rank_and_invariants(n_rows, cols)
        assert rank == M.rank()
        if rank:
            D = smith_normal_form(M)
            expect = sorted(abs(D[i, i]) for i in range(min(M.shape))
                            if D[i, i] != 0)
            assert sorted(invs) == expect
        else:
            assert invs == []


def test_rank_mod_p_against_fraction_elimination():
    rng = random.Random(73)
    for _ in range(30):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        p = rng.choice([2, 3, 5])
        cols = _rand_sparse_columns(rng, n_rows, n_cols)
        F = PrimeField(p)
        dense = [[F.of(col.get(r, 0)) for r in range(n_rows)] for col in cols]
        oracle = n_cols - len(field_kernel(F, n_rows, dense))
        assert rank_mod_p(n_rows, cols, p) == oracle


def test_integer_kernel_and_solver():
    rng = random.Random(79)
    for _ in range(30):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        cols = _rand_sparse_columns(rng, n_rows, n_cols)
        K = integer_kernel_basis(n_rows, cols)
        rank, _ = rank_and_invariants(n_rows, cols)
        assert len(K) == n_cols - rank
        for k in K:
            for r in range(n_rows):
                assert sum(k[j] * cols[j].get(r, 0)
                           for j in range(n_cols)) == 0
        if K:
            coeffs = [rng.randint(-2, 2) for _ in K]
            b = [sum(c * k[j] for c, k in zip(coeffs, K))
                 for j in range(n_cols)]
            a = solve_rational(K, b)
            assert a is not None
            assert [int(x) for x in a] == coeffs


def test_snf_row_transform_consistency():
    rng = random.Random(83)
    for _ in range(25):
        k = rng.randint(1, 4)
        m = rng.randint(1, 4)
        R = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        diag, U, Uinv = snf_with_row_transform(R)
        # U and Uinv are inverse integer matrices
        for i in range(k):
            for j in range(k):
                assert sum(U[i][t] * Uinv[t][j] for t in range(k)) == \
                    (1 if i == j else 0)
        M = sympy.Matrix(R)
        if M.rank():
            D = smith_normal_form(M)
            expect = [abs(D[i, i]) for i in range(min(k, m)) if D[i, i] != 0]
            assert diag == expect
        else:
            assert diag == []


def test_unit_pivot_fast_path_on_structured_matrix():
    # block with many duplicate columns and a torsion block
    cols = [{0: 1, 1: -1}] * 5 + [{1: 2, 2: 2}, {2: 4}] + [{}]
    rank, invs = rank_and_invariants(3, cols)
    M = sympy.Matrix(_dense(cols, 3))
    D = smith_normal_form(M)
    assert rank == M.rank()
    assert sorted(invs) == sorted(abs(D[i, i]) for i in range(3)
                                  if D[i, i] != 0)


def _sympy_invariants(cols, n_rows):
    M = sympy.Matrix(_dense(cols, n_rows))
    if not M.rank():
        return []
    D = smith_normal_form(M)
    return sorted(abs(D[i, i]) for i in range(min(M.shape)) if D[i, i] != 0)


def test_unit_pivot_update_does_not_wrap_around_int64():
    # eliminating the unit pivot multiplies 2**40 by 2**40
    cols = [{0: 1, 1: 2 ** 40}, {0: 2 ** 40, 1: 1}]
    assert rank_and_invariants(2, cols) == (2, [1, 2 ** 80 - 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rank_and_invariants_large_entries_against_sympy(seed):
    # units make the int64 elimination path run; entries up to 2**40
    # make its products leave int64
    rng = random.Random(seed)
    n_rows = rng.randint(1, 4)
    cols = _rand_sparse_columns(rng, n_rows, rng.randint(1, 4), density=0.8)
    for col in cols:
        for r in col:
            if rng.random() < 0.5:
                col[r] = rng.randint(-2 ** 40, 2 ** 40) or 1
    rank, invs = rank_and_invariants(n_rows, cols)
    expect = _sympy_invariants(cols, n_rows)
    assert rank == len(expect)
    assert sorted(invs) == expect


# ---------------------------------------------------------------------------
# cube combinatorics

def test_cube_faces_commute():
    # classical identity: dropping coordinate i then j equals dropping
    # j+1 then i when i <= j
    rng = random.Random(89)
    vals = tuple(rng.randint(0, 9) for _ in range(8))
    n = 3
    for i in range(1, n + 1):
        for j in range(i, n):
            for a in (0, 1):
                for b in (0, 1):
                    left = cube_face(cube_face(vals, n, i, a), n - 1, j, b)
                    right = cube_face(cube_face(vals, n, j + 1, b), n - 1, i, a)
                    assert left == right


def test_degeneracy_detection():
    assert cube_degenerate((5, 5), 1)
    assert not cube_degenerate((5, 6), 1)
    assert cube_degenerate((1, 2, 1, 2), 2)  # independent of coordinate 1
    assert not cube_degenerate((1, 2, 2, 1), 2)


# ---------------------------------------------------------------------------
# worked examples

def test_directed_square_h1():
    P = product(interval(j_plus()), interval(j_plus()), ProductKind.INDUCTIVE)
    C = cubical_chain_complex(P, CUBE_JPLUS_TIMES, 2)
    assert (C.dim(0), C.dim(1), C.dim(2)) == (4, 4, 8)
    assert all(col == {} for col in C.boundary_columns(2))
    g = homology(C, 1)
    assert g.rank == 1 and g.torsion == ()


def test_undirected_square_h1():
    P = product(interval(j1()), interval(j1()), ProductKind.INDUCTIVE)
    C = cubical_chain_complex(P, CUBE_J1_TIMES, 2)
    assert C.dim(1) == 8
    r1, _ = rank_and_invariants(C.dim(0), C.boundary_columns(1))
    r2, _ = rank_and_invariants(C.dim(1), C.boundary_columns(2))
    assert C.dim(1) - r1 == 5 and r2 == 4
    g = homology(C, 1)
    assert g.rank == 1 and g.torsion == ()


def test_h0_of_directed_interval():
    Jp = interval(j_plus())
    for th in (CUBE_J1_TIMES, CUBE_J1_BOX):
        g = singular_homology(Jp, th, 0)
        assert g.rank == 2 and g.torsion == ()
    # same interval in its own directed theory is connected
    assert singular_homology(Jp, CUBE_JPLUS_TIMES, 0).rank == 1


def test_point_homology():
    pt = point_space()
    for th in (CUBE_J1_TIMES, CUBE_JPLUS_BOX, SIMPLEX_J1, SIMPLEX_JPLUS):
        assert singular_homology(pt, th, 0).rank == 1
        for n in range(3):
            assert str(singular_homology(pt, th, n, reduced=True)) == "0"
    # unnormalized simplicial chains of the point have rank one everywhere
    C = singular_chain_complex(pt, SIMPLEX_J1, 4)
    assert all(C.dim(n) == 1 for n in range(5))


def test_h0_counts_relation_components():
    rng = random.Random(97)
    for _ in range(20):
        X = rand_space(rng, rng.randint(1, 5))
        sym = nx.Graph()
        sym.add_nodes_from(X.points)
        mutual = nx.Graph()
        mutual.add_nodes_from(X.points)
        for x in X.points:
            for y in X.closure_map[x]:
                if x != y:
                    sym.add_edge(x, y)
                    if x in X.closure_map[y]:
                        mutual.add_edge(x, y)
        assert singular_homology(X, CUBE_J1_TIMES, 0).rank == \
            nx.number_connected_components(mutual)
        assert singular_homology(X, CUBE_JPLUS_TIMES, 0).rank == \
            nx.number_connected_components(sym)
        assert singular_homology(X, SIMPLEX_J1, 0).rank == \
            nx.number_connected_components(mutual)
        assert singular_homology(X, SIMPLEX_JPLUS, 0).rank == \
            nx.number_connected_components(sym)


RP2 = ("1 2 3\n1 2 6\n1 3 5\n1 4 5\n1 4 6\n"
       "2 3 4\n2 4 5\n2 5 6\n3 4 6\n3 5 6\n")


def test_torsion_of_projective_plane():
    K = complex_from_text(RP2, close_downward=True)
    C = complex_chain_complex(K)
    h1 = homology(C, 1)
    assert h1.rank == 0 and h1.torsion == (2,)
    assert homology(C, 1, "q").rank == 0
    assert homology(C, 1, "f2").rank == 1
    assert homology(C, 1, "f3").rank == 0
    # the coefficient field sees the torsion in degree 2 as well
    assert homology(C, 0).rank == 1


def test_coefficient_consistency():
    rng = random.Random(101)
    for _ in range(10):
        X = rand_space(rng, rng.randint(1, 4))
        th = rng.choice([CUBE_J1_TIMES, CUBE_JPLUS_TIMES, SIMPLEX_J1])
        C = singular_chain_complex(X, th, 2)
        for n in (0, 1):
            z = homology(C, n)
            q = homology(C, n, "q")
            assert q.rank == z.rank
            f5 = homology(C, n, "f5")
            extra = sum(1 for d in z.torsion if d % 5 == 0)
            # p-rank gains torsion from this and the next degree
            assert f5.rank >= z.rank + extra


def test_homology_basis_coords_roundtrip():
    Jp = interval(j_plus())
    P = product(Jp, Jp, ProductKind.INDUCTIVE)
    for coeffs in ("z", "q", "f2"):
        C = cubical_chain_complex(P, CUBE_JPLUS_TIMES, 2)
        B = homology_basis(C, 1, coeffs)
        assert B.dimension == 1
        for i, gen in enumerate(B.generators):
            coords = B.coords(gen)
            expect = [0] * B.dimension
            expect[i] = 1
            assert [Fraction(c) for c in coords] == expect


def test_induced_map_identity_and_functoriality():
    rng = random.Random(103)
    for _ in range(6):
        X = rand_space(rng, rng.randint(2, 4))
        th = rng.choice([CUBE_J1_TIMES, SIMPLEX_J1])
        idm = ContinuousMap.identity(X)
        for n in (0, 1):
            im = induced_map(idm, th, n)
            d = im.source.dimension
            assert im.matrix == [[1 if i == j else 0 for j in range(d)]
                                 for i in range(d)]


def test_degree_and_cap_errors():
    X = point_space()
    C = singular_chain_complex(X, CUBE_J1_TIMES, 2)
    with pytest.raises(DegreeOutOfRange):
        homology(C, 2)  # complex only built to degree 2
    with pytest.raises(DegreeOutOfRange):
        homology(C, -1)
    with pytest.raises(DimensionTooLarge):
        singular_chain_complex(X, CUBE_J1_TIMES, 7)
    singular_chain_complex(X, CUBE_J1_TIMES, 7, cap=8)


def test_normalized_simplicial_variant_agrees_on_small_spaces():
    norm = Theory("simplex", "j1", normalized=True)
    rng = random.Random(107)
    for _ in range(8):
        X = rand_space(rng, rng.randint(1, 4))
        for n in (0, 1):
            a = singular_homology(X, SIMPLEX_J1, n)
            b = singular_homology(X, norm, n)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)


def test_homotopy_invariance_sample():
    from closuretop.homotopy import MapGraph
    rng = random.Random(109)
    theories = [(CUBE_J1_TIMES, j1(), ProductKind.PRODUCT),
                (CUBE_JPLUS_TIMES, j_plus(), ProductKind.PRODUCT),
                (CUBE_J1_BOX, j1(), ProductKind.INDUCTIVE),
                (CUBE_JPLUS_BOX, j_plus(), ProductKind.INDUCTIVE)]
    done = 0
    while done < 8:
        X = rand_space(rng, rng.randint(2, 4), prefix="x")
        Y = rand_space(rng, rng.randint(2, 4), prefix="y")
        th, J, kind = rng.choice(theories)
        graph = MapGraph(X, Y, J, kind)
        import numpy as np
        pairs = np.argwhere(graph.adjacency)
        pairs = [tuple(p) for p in pairs if p[0] != p[1]]
        if not pairs:
            continue
        u, v = pairs[rng.randrange(len(pairs))]
        yi = list(Y.points)
        f = ContinuousMap(X, Y, dict(zip(X.points,
                                         (yi[i] for i in graph.maps[u]))))
        g = ContinuousMap(X, Y, dict(zip(X.points,
                                         (yi[i] for i in graph.maps[v]))))
        for n in (0, 1):
            mf = induced_map(f, th, n)
            mg = induced_map(g, th, n)
            assert mf.matrix == mg.matrix
        done += 1
