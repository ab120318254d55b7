"""Exact linear algebra oracles and singular homology checks."""
import importlib
import itertools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ, ZZ
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from closuretop import (CUBE_J1_BOX, CUBE_J1_TIMES, CUBE_JPLUS_BOX,
                        CUBE_JPLUS_TIMES, SIMPLEX_J1, SIMPLEX_JPLUS,
                        ContinuousMap, DegreeOutOfRange, DimensionTooLarge,
                        NotContinuous, ParseError, ProductKind, Theory,
                        build_space, cech, complex_chain_complex,
                        complex_from_text, cubical_chain_complex, homology,
                        homology_basis, induced_map, interval, is_continuous,
                        j1, j_plus, parse_coefficients, point_space, product,
                        product_power, singular_chain_complex,
                        singular_homology, singular_homology_groups, vr)
from closuretop import _linalg
from closuretop._linalg import (FieldReducer, PrimeField, RationalField,
                                _is_prime, integer_kernel_basis,
                                rank_and_invariants, smith)
from closuretop.homology import (_cube_faces, _lower_boundary_data,
                                 chain_map_columns,
                                 cube_degenerate, cube_face, enumerate_cubes,
                                 enumerate_simplices, homology_groups,
                                 induced_map_between)
from closuretop.spaces import parse_interval
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
        rank, invs = rank_and_invariants(cols)
        assert rank == M.rank()
        if rank:
            D = smith_normal_form(M)
            expect = sorted(abs(D[i, i]) for i in range(min(M.shape))
                            if D[i, i] != 0)
            assert sorted(invs) == expect
        else:
            assert invs == []


def _field_kernel(F, cols):
    """Kernel vectors of the reducer: the tags of the columns that empty."""
    reducer = FieldReducer(F)
    kernel = []
    for j, col in enumerate(cols):
        rest, tag = reducer.add(col, {j: 1})
        if not rest:
            kernel.append(tag)
    return reducer.rank, kernel


def test_field_rank_and_kernel_against_sympy():
    rng = random.Random(73)
    big = 4294967311  # (p - 1)^2 is past the int64 range
    fields = [(RationalField(), QQ)] + [(PrimeField(p), GF(p))
                                        for p in (2, 3, 5, big)]
    for _ in range(30):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        cols = _rand_sparse_columns(rng, n_rows, n_cols)
        if rng.random() < 0.3:
            # a column p - 1 times another, the shape of the int64 bug
            cols.append({r: (big - 1) * c for r, c in cols[0].items()})
        dm = DomainMatrix.from_list_sympy(n_rows, len(cols),
                                          _dense(cols, n_rows))
        for F, dom in fields:
            rank, kernel = _field_kernel(F, cols)
            oracle = dm.convert_to(dom)
            assert rank == oracle.rank()
            assert len(kernel) == oracle.nullspace().shape[0]
            for k in kernel:
                for r in range(n_rows):
                    acc = F.zero
                    for j, c in k.items():
                        acc = F.add(acc, F.mul(c, F.of(cols[j].get(r, 0))))
                    assert acc == F.zero


def test_field_rank_does_not_wrap_around_int64_for_large_primes():
    # (p - 1)^2 exceeds 2^63 - 1; the second column is p - 1 times the first
    p = 4294967311
    cols = [{0: 1, 1: p - 2}, {0: p - 1, 1: (p - 1) * (p - 2) % p}]
    assert FieldReducer(PrimeField(p), cols).rank == 1


def test_field_reducer_stores_the_returned_column_scaled_to_one():
    rng = random.Random(127)
    for F in (PrimeField(2), PrimeField(3), RationalField()):
        reducer = FieldReducer(F)
        for j, col in enumerate(_rand_sparse_columns(rng, 6, 12)):
            tag = {j: 2, j + 1: -1}
            before = dict(col), dict(tag)
            rest, rest_tag = reducer.add(col, tag)
            assert (col, tag) == before
            if rest:
                stored = reducer.pivots[max(rest)]
                assert stored[0] is rest and stored[1] is rest_tag
        for low, (stored, _) in reducer.pivots.items():
            assert max(stored) == low and stored[low] == F.one


def _unit_free_columns(rng, n_rows, n_cols, density=0.3):
    """Sparse columns with entries +-2 .. +-6: no entry is a unit."""
    return [{r: rng.choice((-1, 1)) * rng.randint(2, 6)
             for r in range(n_rows) if rng.random() < density}
            for _ in range(n_cols)]


def _check_integer_kernel(rng, n_rows, cols):
    # a lattice basis of the kernel, and its reader against the oracle: the
    # rational reducer over the basis gives a lattice vector's coordinates
    # as its negated tag, and leaves a vector off the lattice a remainder
    n_cols = len(cols)
    K, coords = integer_kernel_basis(cols)
    A = DomainMatrix.from_list_sympy(n_rows, n_cols, _dense(cols, n_rows))
    assert len(K) == n_cols - A.convert_to(QQ).rank()
    for k in K:
        for r in range(n_rows):
            assert sum(c * cols[j].get(r, 0) for j, c in k.items()) == 0
    assert coords({}) == {}
    if not K:
        assert coords({rng.randrange(n_cols): rng.choice((-1, 1))}) is None
        return
    # a basis of the whole lattice, not of a sublattice such as 2K: every
    # invariant factor is 1.  LLL changes the basis, not the lattice, and
    # spares sympy's Smith form the large entries it makes on its own
    rows = DomainMatrix([[k.get(j, 0) for j in range(n_cols)] for k in K],
                        (len(K), n_cols), ZZ).lll()
    D = smith_normal_form(rows.to_Matrix())
    assert [abs(D[i, i]) for i in range(len(K))] == [1] * len(K)
    lattice = FieldReducer(RationalField())
    for i, k in enumerate(K):
        assert lattice.add(k, {i: 1})[0]

    def oracle(z):
        rest, tag = lattice.reduce(z, {})
        if rest or any(c.denominator != 1 for c in tag.values()):
            return None
        return {i: -int(c) for i, c in tag.items() if c}

    for _ in range(4):
        coeffs = [rng.randint(-2, 2) for _ in K]
        b = {}
        for a, k in zip(coeffs, K):
            for j, c in k.items():
                b[j] = b.get(j, 0) + a * c
        want = {i: a for i, a in enumerate(coeffs) if a}
        assert coords(b) == want == oracle(b)
        # off the lattice unless the column moved along is zero
        j = rng.randrange(n_cols)
        b[j] = b.get(j, 0) + rng.choice((-1, 1))
        assert coords(b) == oracle(b)
        assert (coords(b) is None) == bool(cols[j])
        z = {j: rng.randint(-3, 3) for j in range(n_cols)}
        assert coords(z) == oracle(z)


def test_integer_kernel_and_solver():
    rng = random.Random(79)
    for _ in range(30):
        n_rows = rng.randint(1, 5)
        cols = _rand_sparse_columns(rng, n_rows, rng.randint(1, 5))
        _check_integer_kernel(rng, n_rows, cols)
    # with no unit entry the reader replays Euclid steps
    stepped = 0
    for _ in range(30):
        n_rows = rng.randint(1, 5)
        cols = _unit_free_columns(rng, n_rows, rng.randint(2, 8), 0.6)
        stepped += bool(_linalg._eliminate(
            {**col, ~j: 1} for j, col in enumerate(cols))[2])
        _check_integer_kernel(rng, n_rows, cols)
    assert stepped >= 15


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_integer_kernel_without_unit_entries(seed):
    # no unit entry, so every column the elimination removes or keeps
    # owes it to Euclid steps
    rng = random.Random(seed)
    n_rows = rng.randint(1, 12)
    cols = _unit_free_columns(rng, n_rows, rng.randint(1, 40),
                              density=rng.choice((0.2, 0.4)))
    _check_integer_kernel(rng, n_rows, cols)


def test_snf_row_transform_consistency():
    rng = random.Random(83)
    for _ in range(25):
        k = rng.randint(1, 4)
        m = rng.randint(1, 4)
        R = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        diag, U, Uinv = smith(R)
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


def _check_smith(R):
    """smith(R) against sympy's invariant factors, with U * Uinv = I, the
    rows of U R past the rank zero and row i divisible by d_i; returns its
    time and the bit length of U's largest entry."""
    k, m = len(R), len(R[0]) if R else 0
    start = time.perf_counter()
    diag, U, Uinv = smith(R)
    seconds = time.perf_counter() - start
    expect = []
    if any(map(any, R)):
        D = smith_normal_form(sympy.Matrix(R))
        expect = [abs(D[i, i]) for i in range(min(k, m)) if D[i, i] != 0]
    assert diag == expect
    for i in range(k):
        for j in range(k):
            assert sum(U[i][t] * Uinv[t][j] for t in range(k)) == (i == j)
    for i in range(k):
        UR = [sum(U[i][t] * R[t][j] for t in range(k)) for j in range(m)]
        if i < len(diag):
            assert all(a % diag[i] == 0 for a in UR)
        else:
            assert not any(UR)
    return seconds, max((abs(a).bit_length() for row in U for a in row),
                        default=0)


def test_smith_keeps_the_row_transform_small():
    # whole unit-free matrices, as a direct caller hands them: without
    # least-entry pivots, U reaches 10^5-bit entries and a 20x26 call
    # takes minutes
    rng = random.Random(137)
    for _ in range(300):
        k, m = rng.randint(0, 8), rng.randint(0, 8)
        lo = rng.choice((0, -2, -6))
        _check_smith([[rng.randint(lo, 6) * rng.choice((0, 1, 1))
                       for _ in range(m)] for _ in range(k)])
    for n_rows, n_cols, density in [(14, 18, 0.3), (20, 26, 0.3),
                                    (20, 26, 0.6)]:
        for _ in range(5):
            cols = _unit_free_columns(rng, n_rows, n_cols, density)
            seconds, bits = _check_smith(_dense(cols, n_rows))
            assert seconds < 1 and bits < 2000


def test_primality_against_sympy():
    assert [n for n in range(3000) if _is_prime(n)] == \
        list(sympy.primerange(3000))
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 318665857834031151167461 to each of the first twelve prime bases
    for n in (3215031751, 318665857834031151167461, 4294967311,
              10 ** 18 + 3, 2 ** 61 - 1, 2 ** 61 + 1):
        assert _is_prime(n) == sympy.isprime(n)


def test_large_prime_coefficients():
    start = time.perf_counter()
    assert parse_coefficients("f1000000000000000003") == ("f", 10 ** 18 + 3)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ParseError):
        parse_coefficients("f1000000000000000001")  # 101 * 9901 * ...
    with pytest.raises(ParseError):
        # a prime past the bound up to which primality is decided
        parse_coefficients("f3317044064679887385962123")
    # torsion-free, so every field sees the rational ranks
    P = product(interval(j_plus()), interval(j_plus()), ProductKind.INDUCTIVE)
    C = cubical_chain_complex(P, CUBE_JPLUS_TIMES, 2)
    for n in (0, 1):
        assert homology(C, n).torsion == ()
        assert homology(C, n, "f1000000000000000003").rank == \
            homology(C, n, "q").rank


def test_unit_pivot_fast_path_on_structured_matrix():
    # block with many duplicate columns and a torsion block
    cols = [{0: 1, 1: -1}] * 5 + [{1: 2, 2: 2}, {2: 4}] + [{}]
    rank, invs = rank_and_invariants(cols)
    M = sympy.Matrix(_dense(cols, 3))
    D = smith_normal_form(M)
    assert rank == M.rank()
    assert sorted(invs) == sorted(abs(D[i, i]) for i in range(3)
                                  if D[i, i] != 0)


def _sympy_invariants(cols, n_rows):
    if not any(cols):
        return []
    M = sympy.Matrix(_dense(cols, n_rows))
    D = smith_normal_form(M)
    return sorted(abs(D[i, i]) for i in range(min(M.shape)) if D[i, i] != 0)


def test_unit_pivot_update_does_not_wrap_around_int64():
    # eliminating the unit pivot multiplies 2**40 by 2**40
    cols = [{0: 1, 1: 2 ** 40}, {0: 2 ** 40, 1: 1}]
    assert rank_and_invariants(cols) == (2, [1, 2 ** 80 - 1])


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
    rank, invs = rank_and_invariants(cols)
    expect = _sympy_invariants(cols, n_rows)
    assert rank == len(expect)
    assert sorted(invs) == expect


def test_unit_free_invariants_against_sympy():
    # smith sees only the residue Euclid steps leave, which stays small;
    # test_smith_keeps_the_row_transform_small hands it whole matrices
    rng = random.Random(131)
    for n_rows, n_cols in [(2, 2), (4, 5), (7, 9), (11, 15), (16, 22),
                           (21, 29), (26, 36)]:
        for density in (0.3, 0.6):
            cols = _unit_free_columns(rng, n_rows, n_cols, density)
            rank, invs = rank_and_invariants(cols)
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


def test_cube_faces_against_literal_definition():
    # _cube_faces reads faces off index tables; cube_face is the formula
    rng = random.Random(97)
    for n in range(1, 6):
        size = 1 << n
        tables = [tuple(rng.randrange(3) for _ in range(size))
                  for _ in range(40)]
        for i in range(1, n + 1):  # ignore coordinate i
            for _ in range(5):
                base = [rng.randrange(4) for _ in range(size)]
                tables.append(tuple(base[u & ~(1 << (n - i))]
                                    for u in range(size)))
        for t in tables:
            ignored = any(cube_face(t, n, i, 0) == cube_face(t, n, i, 1)
                          for i in range(1, n + 1))
            got = _cube_faces(t, n)
            if ignored:
                assert got is None
            else:
                assert got == _literal_cube_faces(t, n)
                assert all(isinstance(face, tuple) for face, _ in got)


def test_degeneracy_detection():
    assert cube_degenerate((5, 5), 1)
    assert not cube_degenerate((5, 6), 1)
    assert cube_degenerate((1, 2, 1, 2), 2)  # independent of coordinate 1
    assert not cube_degenerate((1, 2, 2, 1), 2)


def _brute_force_maps(S, X):
    """Point tuples of the continuous maps S -> X, in lexicographic order."""
    return [combo for combo in itertools.product(X.points, repeat=len(S.points))
            if is_continuous(dict(zip(S.points, combo)), S, X)]


def test_shape_enumerators_against_brute_force():
    # same list in the same order: basis order fixes the boundary matrices
    rng = random.Random(113)
    simplex_theories = [SIMPLEX_J1, SIMPLEX_JPLUS,
                        Theory("simplex", "j1", normalized=True),
                        Theory("simplex", "jplus", normalized=True)]
    for size in (1, 2, 3, 3):
        X = rand_space(rng, size)
        for th in (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES,
                   CUBE_JPLUS_BOX):
            J = interval(parse_interval(th.interval))
            for n in range(4):
                assert enumerate_cubes(X, th, n) == _brute_force_maps(
                    product_power(J, n, th.product), X)
        for th in simplex_theories:
            for n in range(4):
                S = build_space(range(n + 1), {
                    a: range(0 if th.interval == "j1" else a, n + 1)
                    for a in range(n + 1)})
                want = [t for t in _brute_force_maps(S, X)
                        if not th.normalized
                        or all(a != b for a, b in zip(t, t[1:]))]
                assert enumerate_simplices(X, th, n) == want


def _literal_complex(shapes, signed_faces, degenerate, top):
    """Basis and boundary columns by the literal loop: every n-shape,
    degenerate ones dropped, and every face retested for degeneracy."""
    basis = {0: shapes(0)}
    boundaries = {}
    for n in range(1, top + 1):
        prev_index = {b: i for i, b in enumerate(basis[n - 1])}
        basis[n] = [s for s in shapes(n) if not degenerate(s, n)]
        cols = []
        for s in basis[n]:
            col = {}
            for face, sign in signed_faces(s, n):
                if degenerate(face, n - 1):
                    continue
                row = prev_index[face]
                col[row] = col.get(row, 0) + sign
            cols.append({r: c for r, c in col.items() if c})
        boundaries[n] = cols
    return basis, boundaries


def _literal_cube_faces(table, n):
    return [(cube_face(table, n, i, bit), (-1) ** (i + bit))
            for i in range(1, n + 1) for bit in (0, 1)]


def _literal_simplex_faces(tup, n):
    return [(tup[:i] + tup[i + 1:], (-1) ** i) for i in range(n + 1)]


def _literal_singular(X, th, top):
    if th.shape == "cube":
        J = interval(parse_interval(th.interval))
        return _literal_complex(
            lambda n: _brute_force_maps(product_power(J, n, th.product), X),
            _literal_cube_faces,
            lambda t, n: n > 0 and cube_degenerate(t, n), top)

    def shapes(n):
        S = build_space(range(n + 1), {
            a: range(0 if th.interval == "j1" else a, n + 1)
            for a in range(n + 1)})
        return _brute_force_maps(S, X)
    return _literal_complex(
        shapes, _literal_simplex_faces,
        lambda t, n: th.normalized and any(a == b for a, b in zip(t, t[1:])),
        top)


def _literal_clique(K, top):
    by_dim = {}
    for s in K.simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s, key=repr)))
    if top is None:
        top = max(by_dim, default=0)
    return _literal_complex(
        lambda n: sorted(by_dim.get(n, []),
                         key=lambda t: tuple(map(repr, t))),
        _literal_simplex_faces, lambda t, n: False, top)


def test_chain_complexes_against_literal_build():
    # same bases in the same order and the same boundary columns
    rng = random.Random(157)
    cube_theories = (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES,
                     CUBE_JPLUS_BOX)
    simplex_theories = (SIMPLEX_J1, SIMPLEX_JPLUS,
                        Theory("simplex", "j1", normalized=True),
                        Theory("simplex", "jplus", normalized=True))
    for size in (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5):
        X = rand_space(rng, size, p=rng.choice((0.3, 0.5, 0.7)))
        cases = [(th, 3 if size <= 3 else 2) for th in cube_theories]
        cases += [(th, 3) for th in simplex_theories]
        for th, top in cases:
            C = singular_chain_complex(X, th, top)
            assert (C.basis, C.boundaries) == _literal_singular(X, th, top)
        for K in (vr(X), cech(X)):
            for top in (None, 1, 3):
                C = complex_chain_complex(K, top=top)
                assert (C.basis, C.boundaries) == _literal_clique(K, top)


def test_chain_map_outside_the_target_raises_not_continuous():
    # the indiscrete two-point space into the discrete one: the edge
    # (0, 1) is a shape of the source whose image is none of the target
    X = build_space([0, 1], {0: {0, 1}, 1: {0, 1}})
    Y = build_space([0, 1, 2], {y: {y} for y in range(3)})
    cases = [(lambda S: cubical_chain_complex(S, CUBE_J1_TIMES, 2), False),
             (lambda S: singular_chain_complex(S, SIMPLEX_J1, 2), True),
             (lambda S: complex_chain_complex(vr(S), top=2), False)]
    for build, keeps_degenerate in cases:
        C_src, C_tgt = build(X), build(Y)
        for call in (
                lambda: chain_map_columns(C_src, C_tgt, 1, {0: 0, 1: 1}),
                lambda: induced_map_between(C_src, C_tgt, {0: 0, 1: 1}, 1)):
            with pytest.raises(NotContinuous, match=r"\(0, 1\)"):
                call()
        # a degenerate image maps to zero, unless the basis keeps it
        cols = chain_map_columns(C_src, C_tgt, 1, {0: 0, 1: 0})
        want = {C_tgt.index[1][(0, 0)]: 1} if keeps_degenerate else {}
        assert cols[C_src.index[1][(0, 1)]] == want


def _oracle_chain_map_columns(C_src, C_tgt, n, mapping, theory):
    """The chain-map rule written out per kind of complex: cube theories
    drop degenerate tables, normalized simplex theories drop tuples with
    equal neighbours, and theory None (a simplicial complex) drops
    repeated vertices and sorts the rest by repr with the sort's sign."""
    tgt_index = C_tgt.index.get(n, {})
    cols = []
    for b in C_src.basis.get(n, []):
        image = tuple(mapping[x] for x in b)
        sign = 1
        if theory is None:
            if len(set(image)) != len(image):
                cols.append({})
                continue
            order = sorted(range(len(image)), key=lambda i: repr(image[i]))
            for a in range(len(order)):
                for b in range(a + 1, len(order)):
                    if order[a] > order[b]:
                        sign = -sign
            image = tuple(image[i] for i in order)
        elif theory.shape == "cube":
            if n > 0 and cube_degenerate(image, n):
                cols.append({})
                continue
        elif theory.normalized and any(
                image[i] == image[i + 1] for i in range(len(image) - 1)):
            cols.append({})
            continue
        row = tgt_index.get(image)
        if row is None:
            raise NotContinuous(f"{b!r} maps outside the target's basis")
        cols.append({row: sign})
    return cols


def test_chain_map_columns_against_per_kind_oracle():
    # continuous maps, and some that are not, between random spaces; the
    # target's own rule must give the oracle's columns or its refusal
    rng = random.Random(163)
    kinds = [(lambda S, th=th: singular_chain_complex(S, th, 2), th)
             for th in (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES,
                        CUBE_JPLUS_BOX, SIMPLEX_J1, SIMPLEX_JPLUS,
                        Theory("simplex", "j1", normalized=True),
                        Theory("simplex", "jplus", normalized=True))]
    kinds += [(lambda S, K=K: complex_chain_complex(K(S), top=2), None)
              for K in (vr, cech)]
    outcomes = set()
    for _ in range(30):
        X = rand_space(rng, rng.randint(1, 4), prefix="x")
        Y = rand_space(rng, rng.randint(1, 4), prefix="y")
        maps = [dict(zip(X.points, combo)) for combo in
                itertools.product(Y.points, repeat=len(X.points))]
        continuous = [f for f in maps if is_continuous(f, X, Y)]
        picked = rng.sample(continuous, min(3, len(continuous)))
        picked.append(rng.choice(maps))
        for build, th in kinds:
            C_src, C_tgt = build(X), build(Y)
            for f in picked:
                for n in (0, 1, 2):
                    try:
                        want = _oracle_chain_map_columns(C_src, C_tgt, n, f,
                                                         th)
                    except NotContinuous:
                        with pytest.raises(NotContinuous):
                            chain_map_columns(C_src, C_tgt, n, f)
                        outcomes.add("refused")
                        continue
                    assert chain_map_columns(C_src, C_tgt, n, f) == want
                    outcomes.update(c for col in want for c in col.values())
    assert outcomes == {1, -1, "refused"}
    # the identity of the directed 3-cycle in the jplus-times theory
    X = build_space([0, 1, 2], {0: {0, 1}, 1: {1, 2}, 2: {2, 0}})
    C = singular_chain_complex(X, CUBE_JPLUS_TIMES, 2)
    assert induced_map_between(C, C, {x: x for x in X.points}, 1,
                               "q").matrix == [[1]]


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
    r1, _ = rank_and_invariants(C.boundary_columns(1))
    r2, _ = rank_and_invariants(C.boundary_columns(2))
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


def _field_rank_homology(C, n, p, reduced):
    """dim - rank_F(low) - rank_F(d_{n+1}) by field column reduction, the
    low map being d_n, or in degree 0 the augmentation when reduced."""
    F = PrimeField(p)
    if n:
        low = C.boundary_columns(n)
    else:
        low = [{0: 1} if reduced else {} for _ in range(C.dim(0))]
    return (C.dim(n) - FieldReducer(F, low).rank
            - FieldReducer(F, C.boundary_columns(n + 1)).rank)


def test_prime_field_homology_by_universal_coefficients():
    # F_p ranks read off the integer invariant factors against a direct
    # elimination over F_p, reduced and not
    primes = (2, 3, 5, 4294967311)
    theories = (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES, CUBE_JPLUS_BOX,
                SIMPLEX_J1, SIMPLEX_JPLUS,
                Theory("simplex", "j1", normalized=True),
                Theory("simplex", "jplus", normalized=True))
    rng = random.Random(167)
    complexes = []
    for _ in range(40):
        X = rand_space(rng, rng.randint(1, 5), p=rng.choice((0.3, 0.5)))
        complexes += [singular_chain_complex(
            X, th, 2 if th.shape == "cube" else 3) for th in theories]
    rp2 = complex_chain_complex(complex_from_text(RP2, True), top=3)
    complexes.append(rp2)
    for C in complexes:
        for n in range(C.top):
            for p in primes:
                for reduced in (False, True):
                    assert homology(C, n, f"f{p}", reduced).rank == \
                        _field_rank_homology(C, n, p, reduced)
    groups = {c: [str(homology(rp2, n, c)) for n in range(3)]
              for c in ("z", "f2", "q", "f3")}
    assert groups == {"z": ["Z", "Z/2", "0"], "f2": ["F2", "F2", "F2"],
                      "q": ["Q", "0", "0"], "f3": ["F3", "0", "0"]}


def test_homology_basis_coords_roundtrip():
    Jp = interval(j_plus())
    P = product(Jp, Jp, ProductKind.INDUCTIVE)
    cases = [(cubical_chain_complex(P, CUBE_JPLUS_TIMES, 2), 1),
             (complex_chain_complex(complex_from_text(RP2, True)), 1)]
    # random spaces, kept once six of them have a degree-1 class
    rng = random.Random(127)
    found = 0
    while found < 6:
        X = rand_space(rng, rng.randint(3, 5))
        th = rng.choice([CUBE_J1_TIMES, CUBE_JPLUS_BOX, SIMPLEX_J1,
                         SIMPLEX_JPLUS])
        C = singular_chain_complex(X, th, 2)
        if homology(C, 1, "q").rank:
            cases.extend([(C, 0), (C, 1)])
            found += 1
    for C, n in cases:
        for coeffs in ("z", "q", "f2", "f3", "f4294967311"):
            B = homology_basis(C, n, coeffs)
            h = homology(C, n, coeffs)
            assert B.dimension == h.rank + len(h.torsion)
            assert sorted(d for d in B.orders if d) == sorted(h.torsion)
            for i, gen in enumerate(B.generators):
                expect = [0] * B.dimension
                expect[i] = 1
                assert [Fraction(c) for c in B.coords(gen)] == expect
            for col in C.boundary_columns(n + 1):
                dense = [col.get(r, 0) for r in range(C.dim(n))]
                assert all(c == 0 for c in B.coords(dense))
    assert homology_basis(cases[0][0], 1, "q").dimension == 1


def test_coords_refuse_a_non_cycle_when_the_group_is_zero():
    # the directed 3-cycle is connected, so its reduced H0 is 0 over every
    # ring; a vertex has augmentation 1 and is no reduced cycle
    X = build_space(["a", "b", "c"],
                    {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c", "a"}})
    C = singular_chain_complex(X, CUBE_JPLUS_TIMES, 1)
    vertex = [1] + [0] * (C.dim(0) - 1)
    for coeffs in ("z", "q", "f2"):
        B = homology_basis(C, 0, coeffs, reduced=True)
        assert B.dimension == 0
        assert B.coords([0] * C.dim(0)) == []
        with pytest.raises(ValueError):
            B.coords(vertex)


def _dense_integer_orders(C, n, reduced):
    """Orders of the integer homology basis from the whole relation
    matrix, kernel rank x boundaries, handed to smith at once."""
    kernel, _ = integer_kernel_basis(_lower_boundary_data(C, n, reduced))
    lattice = FieldReducer(RationalField())
    for r, z in enumerate(kernel):
        lattice.add(z, {r: 1})
    relations = []
    for b in C.boundary_columns(n + 1):
        rest, tag = lattice.reduce(b, {})
        assert not rest and all(c.denominator == 1 for c in tag.values())
        relations.append([-int(tag.get(r, 0)) for r in range(len(kernel))])
    diag = smith([[col[r] for col in relations]
                  for r in range(len(kernel))])[0]
    return [d for d in diag + [0] * (len(kernel) - len(diag)) if d != 1]


def test_integer_basis_against_dense_relations():
    theories = (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES, CUBE_JPLUS_BOX,
                SIMPLEX_J1, SIMPLEX_JPLUS)
    rng = random.Random(173)
    cases = [(complex_chain_complex(complex_from_text(RP2, True), top=3),
              {x: x for x in "123456"})]
    for _ in range(3):
        X = rand_space(rng, rng.randint(2, 4), p=rng.choice((0.3, 0.5)))
        ident = {x: x for x in X.points}
        cases += [(singular_chain_complex(X, th, 3), ident)
                  for th in theories]
        K = vr(rand_space(rng, rng.randint(3, 6), p=0.6))
        cases.append((complex_chain_complex(K, top=3),
                      {x: x for x in K.points}))
    for C, ident in cases:
        for n in range(3):
            for reduced in (False, True):
                B = homology_basis(C, n, "z", reduced)
                assert B.orders == _dense_integer_orders(C, n, reduced)
                d = B.dimension
                unit = [[1 if i == j else 0 for j in range(d)]
                        for i in range(d)]
                assert [B.coords(g) for g in B.generators] == unit
                for col in C.boundary_columns(n + 1):
                    dense = [col.get(r, 0) for r in range(C.dim(n))]
                    assert B.coords(dense) == [0] * d
                f = induced_map_between(C, C, ident, n, "z", reduced,
                                        src_basis=B, tgt_basis=B)
                assert f.matrix == unit


def test_integer_basis_hands_smith_only_the_residue(monkeypatch):
    """RP^2 has ten 1-cycles and unit relations: the sparse elimination
    drops kernel vectors with them before smith sees the rest."""
    C = complex_chain_complex(complex_from_text(RP2, True))
    k = len(integer_kernel_basis(C.boundary_columns(1))[0])
    seen = []
    real = _linalg.smith

    def recorded(rows):
        seen.append(len(rows))
        return real(rows)

    monkeypatch.setattr(_linalg, "smith", recorded)
    assert homology_basis(C, 1, "z").orders == [2]
    assert k == 10 and seen and all(r < k for r in seen)


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
            mf = induced_map(f, th, n)
            mg = induced_map(g, th, n)
            assert mf.matrix == mg.matrix
        done += 1


_SIX_THEORIES = (CUBE_J1_TIMES, CUBE_J1_BOX, CUBE_JPLUS_TIMES, CUBE_JPLUS_BOX,
                 SIMPLEX_J1, SIMPLEX_JPLUS)


def _check_groups_on_the_core(X, theory):
    # the literal space's complex is the oracle for the groups on the core
    C = singular_chain_complex(X, theory, 3)
    for coeffs in ("z", "f2"):
        for reduced in (False, True):
            got = singular_homology_groups(X, theory, range(3), coeffs,
                                           reduced)
            assert got == homology_groups(C, range(3), coeffs, reduced), \
                (X, theory, coeffs, reduced)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_homology_on_the_core_equals_the_literal_space(seed):
    rng = random.Random(seed)
    X = rand_space(rng, rng.randint(2, 6), p=rng.choice((0.2, 0.35, 0.5)))
    for theory in _SIX_THEORIES:
        _check_groups_on_the_core(X, theory)
        n = rng.randint(0, 2)
        assert singular_homology(X, theory, n, "z") == \
            homology(singular_chain_complex(X, theory, n + 1), n, "z")


def test_homology_on_the_cores_of_interval_powers():
    # J and J x J under the theory's own product; the cores are one point
    # except on the box squares, which no single-point retraction shrinks
    for theory in _SIX_THEORIES:
        J = interval(parse_interval(theory.interval))
        for X in (J, product_power(J, 2, theory.product)):
            _check_groups_on_the_core(X, theory)


def test_homology_on_the_core_lists_only_the_cores_shapes(monkeypatch):
    # J1 x J1 has 64,812 nondegenerate 3-cubes under j1-times; its core is
    # one point, so only the point's shapes are listed
    homology_mod = importlib.import_module("closuretop.homology")
    listed = []
    enumerate_cubes = homology_mod.enumerate_cubes

    def counted(X, theory, n):
        listed.append(len(X.points))
        return enumerate_cubes(X, theory, n)

    monkeypatch.setattr(homology_mod, "enumerate_cubes", counted)
    J = interval(j1())
    groups = singular_homology_groups(product(J, J), CUBE_J1_TIMES, range(3),
                                      "z", reduced=True)
    assert [str(g) for g in groups.values()] == ["0", "0", "0"]
    assert listed == [1, 1, 1, 1]
