"""Exact linear algebra used by the homology and persistence modules.

Integer matrices are handled with arbitrary-precision arithmetic; a
numpy fast path eliminates unit pivots (which covers almost all of a
boundary matrix) and a classic Smith reduction over Python ints
finishes the small residue.  Field computations are generic over a
tiny field protocol with rational and prime-field instances.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

_OVERFLOW_LIMIT = 1 << 44


def _dedup_columns(columns):
    """Drop zero columns and duplicates (up to sign); both are column ops."""
    seen = set()
    uniq = []
    for col in columns:
        items = tuple(sorted((r, c) for r, c in col.items() if c))
        if not items:
            continue
        if items[0][1] < 0:
            items = tuple((r, -c) for r, c in items)
        if items not in seen:
            seen.add(items)
            uniq.append(items)
    return uniq


def _snf_invariants_dense(rows):
    """Invariant factors of a dense integer matrix (list of lists)."""
    rows = [list(r) for r in rows]
    k = len(rows)
    m = len(rows[0]) if rows else 0
    invariants = []
    t = 0
    while t < k and t < m:
        best = None
        for i in range(t, k):
            for j in range(t, m):
                v = rows[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        rows[t], rows[bi] = rows[bi], rows[t]
        for r in rows:
            r[t], r[bj] = r[bj], r[t]
        while True:
            # shrink the pivot until it divides its column, then clear it
            reduced = False
            for i in range(t + 1, k):
                if rows[i][t] % rows[t][t]:
                    q = rows[i][t] // rows[t][t]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
                    rows[t], rows[i] = rows[i], rows[t]
                    reduced = True
                    break
            if reduced:
                continue
            for i in range(t + 1, k):
                if rows[i][t]:
                    q = rows[i][t] // rows[t][t]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
            # same along the pivot row, with column operations
            reduced = False
            for j in range(t + 1, m):
                if rows[t][j] % rows[t][t]:
                    q = rows[t][j] // rows[t][t]
                    for r in rows:
                        r[j] -= q * r[t]
                    for r in rows:
                        r[t], r[j] = r[j], r[t]
                    reduced = True
                    break
            if reduced:
                continue
            for j in range(t + 1, m):
                if rows[t][j]:
                    q = rows[t][j] // rows[t][t]
                    for r in rows:
                        r[j] -= q * r[t]
            if all(rows[i][t] == 0 for i in range(t + 1, k)):
                break
        # the pivot must divide everything that remains
        p = abs(rows[t][t])
        offender = None
        for i in range(t + 1, k):
            if any(rows[i][j] % p for j in range(t + 1, m)):
                offender = i
                break
        if offender is not None:
            rows[t] = [a + b for a, b in zip(rows[t], rows[offender])]
            continue
        invariants.append(p)
        t += 1
    return invariants


def rank_and_invariants(n_rows, columns):
    """Rank and invariant factors of an integer matrix given as sparse columns.

    columns is an iterable of {row_index: coefficient} dicts.  Unit
    pivots are eliminated with vectorized integer row operations; the
    residue without unit entries goes through the classic reduction.
    """
    uniq = _dedup_columns(columns)
    if not uniq:
        return 0, []
    n_cols = len(uniq)
    M = np.zeros((n_rows, n_cols), dtype=np.int64)
    for j, items in enumerate(uniq):
        for r, c in items:
            M[r, j] = c
    ones = 0
    pending = list(range(n_cols))
    exact = False
    progress = True
    while progress:
        progress = False
        next_pending = []
        for j in pending:
            col = M[:, j].copy()
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            units = nz[np.abs(col[nz]) == 1]
            if units.size == 0:
                next_pending.append(j)
                continue
            r = int(units[0])
            p = int(M[r, j])
            rows = nz[nz != r]
            if rows.size:
                # |col[rows]| * |M[r, :]| + |M[rows, :]| bounds the new
                # entries, and rows together with r make up nz
                if not exact and ((int(np.abs(col[rows]).max()) + 1)
                                  * int(np.abs(M[nz, :]).max())
                                  > _OVERFLOW_LIMIT):
                    M = M.astype(object)
                    col = col.astype(object)
                    exact = True
                M[rows, :] -= np.outer(col[rows] * p, M[r, :])
            M[r, :] = 0
            ones += 1
            progress = True
        pending = next_pending
    live_rows = np.flatnonzero((M != 0).any(axis=1))
    live_cols = np.flatnonzero((M != 0).any(axis=0))
    if live_rows.size == 0 or live_cols.size == 0:
        return ones, [1] * ones
    residual = [[int(M[i, j]) for j in live_cols] for i in live_rows]
    rest = _snf_invariants_dense(residual)
    return ones + len(rest), [1] * ones + rest


def rank_mod_p(n_rows, columns, p):
    """Rank of an integer matrix over the prime field F_p."""
    uniq = _dedup_columns(columns)
    if not uniq:
        return 0
    M = np.zeros((n_rows, len(uniq)), dtype=np.int64)
    for j, items in enumerate(uniq):
        for r, c in items:
            M[r, j] = c % p
    rank = 0
    for j in range(M.shape[1]):
        col = M[rank:, j]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        M[[rank, r]] = M[[r, rank]]
        inv = pow(int(M[rank, j]), p - 2, p)
        M[rank] = (M[rank] * inv) % p
        below = np.flatnonzero(M[rank + 1:, j])
        if below.size:
            rows = below + rank + 1
            M[rows] = (M[rows] - np.outer(M[rows, j], M[rank])) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def integer_kernel_basis(n_rows, columns):
    """A lattice basis of the integer kernel of a matrix given as sparse columns.

    Returns a list of integer vectors (one per kernel generator), each
    of length len(columns).  Column order matters; no dedup here.
    """
    n_cols = len(columns)
    cols = [[0] * n_rows for _ in range(n_cols)]
    for j, col in enumerate(columns):
        for r, c in col.items():
            cols[j][r] = c
    T = [[1 if i == j else 0 for i in range(n_cols)] for j in range(n_cols)]
    # T[j] tracks the combination of original columns giving cols[j]
    used = [False] * n_cols
    for r in range(n_rows):
        active = [j for j in range(n_cols) if not used[j] and cols[j][r]]
        if not active:
            continue
        while len(active) > 1 or any(
                cols[j][r] % cols[active[0]][r] for j in active[1:]):
            active.sort(key=lambda j: abs(cols[j][r]))
            piv = active[0]
            rest = []
            for j in active[1:]:
                q = cols[j][r] // cols[piv][r]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[piv])]
                    T[j] = [a - q * b for a, b in zip(T[j], T[piv])]
                if cols[j][r]:
                    rest.append(j)
            active = [piv] + rest
            if not rest:
                break
        used[active[0]] = True
    return [T[j] for j in range(n_cols) if all(v == 0 for v in cols[j])]


def solve_rational(columns, b):
    """Solve sum_j a_j * columns[j] = b exactly; returns Fractions or None.

    columns are integer (or Fraction) vectors forming an independent
    family; returns None when b is outside their span.
    """
    n_rows = len(b)
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(b[i])]
           for i in range(n_rows)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, n_rows) if aug[i][col] != 0), None)
        if piv is None:
            return None  # independent columns should always yield a pivot
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for i in range(n_rows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * c for a, c in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, n_rows):
        if aug[i][k] != 0:
            return None
    return [aug[i][k] for i in range(row)]


def snf_with_row_transform(rows_in):
    """Smith reduction D = U R V, returning (diagonal, U, Uinv).

    Only the row transform is tracked; it is what expressing a quotient
    Z^k / col(R) in invariant coordinates needs.
    """
    R = [list(r) for r in rows_in]
    k = len(R)
    m = len(R[0]) if k else 0
    U = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    Uinv = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def row_add(i, j, q):
        # row_i += q * row_j
        R[i] = [a + q * b for a, b in zip(R[i], R[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for r in range(k):
            Uinv[r][j] -= q * Uinv[r][i]

    def row_swap(i, j):
        R[i], R[j] = R[j], R[i]
        U[i], U[j] = U[j], U[i]
        for r in range(k):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_negate(i):
        R[i] = [-a for a in R[i]]
        U[i] = [-a for a in U[i]]
        for r in range(k):
            Uinv[r][i] = -Uinv[r][i]

    def col_swap(a, b):
        for r in range(k):
            R[r][a], R[r][b] = R[r][b], R[r][a]

    def col_add(a, b, q):
        # col_a += q * col_b
        for r in range(k):
            R[r][a] += q * R[r][b]

    diag = []
    t = 0
    while t < k and t < m:
        best = None
        for i in range(t, k):
            for j in range(t, m):
                if R[i][j] and (best is None or abs(R[i][j]) < abs(best[2])):
                    best = (i, j, R[i][j])
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            moved = False
            for i in range(t + 1, k):
                if R[i][t] % R[t][t]:
                    row_add(i, t, -(R[i][t] // R[t][t]))
                    row_swap(t, i)
                    moved = True
                    break
            if moved:
                continue
            for i in range(t + 1, k):
                if R[i][t]:
                    row_add(i, t, -(R[i][t] // R[t][t]))
            moved = False
            for j in range(t + 1, m):
                if R[t][j] % R[t][t]:
                    col_add(j, t, -(R[t][j] // R[t][t]))
                    col_swap(t, j)
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, m):
                if R[t][j]:
                    col_add(j, t, -(R[t][j] // R[t][t]))
            if all(R[i][t] == 0 for i in range(t + 1, k)):
                break
        p = abs(R[t][t])
        offender = None
        for i in range(t + 1, k):
            if any(R[i][j] % p for j in range(t + 1, m)):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if R[t][t] < 0:
            row_negate(t)
        diag.append(R[t][t])
        t += 1
    return diag, U, Uinv


# ---------------------------------------------------------------------------
# fields

class RationalField:
    """The rationals, with Fraction elements."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(n):
        return Fraction(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def neg(a):
        return -a

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """F_p with integer elements in [0, p)."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def neg(self, a):
        return (-a) % self.p

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


def field_kernel(F, n_rows, columns):
    """Kernel vectors (combinations of the columns summing to zero)."""
    ech = []  # (pivot, normalized column, combo over original columns)
    kernel = []
    n_cols = len(columns)
    for j, c in enumerate(columns):
        v = list(c)
        combo = [F.zero] * n_cols
        combo[j] = F.one
        for piv, w, wc in ech:
            f = v[piv]
            if f != F.zero:
                v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, w)]
                combo = [F.sub(a, F.mul(f, b)) for a, b in zip(combo, wc)]
        piv = next((i for i, a in enumerate(v) if a != F.zero), None)
        if piv is None:
            kernel.append(combo)
        else:
            inv = F.inv(v[piv])
            ech.append((piv, [F.mul(inv, a) for a in v],
                        [F.mul(inv, a) for a in combo]))
    return kernel


class QuotientReducer:
    """Echelon store for vectors modulo a subspace, tagging each stored
    row with its expression in the chosen homology generators."""

    def __init__(self, F):
        self.F = F
        self.rows = []  # (pivot, normalized vector, tag dict)

    def _reduce(self, v):
        F = self.F
        v = list(v)
        expr = {}
        for piv, w, tag in self.rows:
            c = v[piv]
            if c != F.zero:
                v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, w)]
                for g, t in tag.items():
                    expr[g] = F.add(expr.get(g, F.zero), F.mul(c, t))
        return v, expr

    def _store(self, v, tag):
        F = self.F
        piv = next(i for i, a in enumerate(v) if a != F.zero)
        inv = F.inv(v[piv])
        v = [F.mul(inv, a) for a in v]
        tag = {g: F.mul(inv, t) for g, t in tag.items() if t != F.zero}
        self.rows.append((piv, v, tag))

    def add_boundary(self, v) -> None:
        F = self.F
        r, expr = self._reduce(v)
        if any(a != F.zero for a in r):
            self._store(r, {g: F.neg(t) for g, t in expr.items()})

    def add_generator(self, v, g) -> bool:
        """Install v as generator number g; False when v is dependent."""
        F = self.F
        r, expr = self._reduce(v)
        if all(a == F.zero for a in r):
            return False
        tag = {h: F.neg(t) for h, t in expr.items()}
        tag[g] = F.add(tag.get(g, F.zero), F.one)
        self._store(r, tag)
        return True

    def coords(self, v, n_gens):
        F = self.F
        r, expr = self._reduce(v)
        if any(a != F.zero for a in r):
            raise ValueError("vector is outside the tracked span")
        return [expr.get(g, F.zero) for g in range(n_gens)]
