"""Exact linear algebra used by the homology and persistence modules.

Over the integers, every matrix goes through ``_eliminate``, the one
column elimination, sparse over Python ints, by unit pivots and Euclid
steps; as in Dumas, Saunders and Villard (2001), ``smith`` then reduces
only the small residue it leaves, densely, in one pivot loop, least entry
first.  They give invariant factors over Z, Q and every F_p, cycle
lattices and integer homology bases, with coordinates in a cycle lattice
read off the Euclid steps it logs.

Over a field, ``FieldReducer`` is the one elimination: the column
reduction of Edelsbrunner, Letscher and Zomorodian (2002) and Zomorodian
and Carlsson (2005) on sparse columns, generic over a tiny field protocol
with rational and prime-field instances.  Kernel vectors, homology bases,
quotient coordinates and persistence pairs are read off it.
"""
from __future__ import annotations

from fractions import Fraction


def _eliminate(columns):
    """Unimodular elimination on {key: coefficient} columns whose rows are
    the keys >= 0.  A free column, one owning no row, with a unit entry is
    removed with its row after clearing it in the others; with none left,
    Euclid steps clear a row free columns share down to one, which owns it
    unless its entry is a unit: pivots still clear it, but it takes no
    steps.  Returns the unit pivots in removal order, each (row, unit,
    column) with the column as it was when removed, its row popped,
    {index: column} of the rest, independent if nonzero, and the Euclid
    steps in order, each (k, j, f) for column k -= f * column j."""
    cols = dict(enumerate({r: c for r, c in col.items() if c}
                          for col in columns))
    owned = set()  # columns that own a row: pivots still clear them
    at_row = {}  # key -> the columns with an entry there
    for j, col in cols.items():
        for r in col:
            at_row.setdefault(r, set()).add(j)
    pivots, steps = [], []
    while True:
        before = len(pivots)
        for j in [j for j in cols if j not in owned]:
            col = cols[j]
            r = next((r for r, c in col.items()
                      if c in (1, -1) and r >= 0), None)
            if r is None:
                continue
            del cols[j]
            p = col.pop(r)
            for s in col:
                at_row[s].discard(j)
            for k in at_row.pop(r) - {j}:
                other = cols[k]
                f = other.pop(r) * p
                for s, c in col.items():
                    v = other.get(s, 0) - f * c
                    if v:
                        other[s] = v
                        at_row[s].add(k)
                    else:
                        del other[s]
                        at_row[s].discard(k)
            pivots.append((r, p, col))
        if len(pivots) != before:
            continue
        r = next((r for r, ks in at_row.items()
                  if r >= 0 and len(ks - owned) > 1), None)
        if r is None:
            return pivots, cols, steps
        while len(active := at_row[r] - owned) > 1:
            j = min(active, key=lambda k: abs(cols[k][r]))
            col = cols[j]
            for k in active - {j}:
                other = cols[k]
                f = other[r] // col[r]
                steps.append((k, j, f))
                for s, c in col.items():
                    v = other.get(s, 0) - f * c
                    if v:
                        other[s] = v
                        at_row[s].add(k)
                    else:
                        del other[s]
                        at_row[s].discard(k)
        if col[r] not in (1, -1):
            owned.add(j)


def rank_and_invariants(columns):
    """Rank and invariant factors of an integer matrix given as sparse columns.

    columns is an iterable of {row_index: coefficient} dicts; each unit
    pivot is a factor 1, and ``smith`` takes the rest."""
    pivots, cols, _ = _eliminate(columns)
    rest = _residue(sorted({r for col in cols.values() for r in col}), cols)[0]
    return len(pivots) + len(rest), [1] * len(pivots) + rest


def _residue(rows, cols):
    """``smith`` of the live columns ``_eliminate`` leaves, on the given rows."""
    live = [col for col in cols.values() if col]
    return smith([[col.get(r, 0) for col in live] for r in rows])


def integer_kernel_basis(columns):
    """A lattice basis, as sparse {column: coefficient} vectors, of the
    integer kernel of a matrix given as sparse columns, and its reader.
    Column j carries an entry 1 at key ~j < 0; the columns left with no
    row hold the basis.  The reader gives z its {position: coefficient}
    in the basis, read off w = z with each Euclid step, column k -= f *
    column j, undone in order as w[j] += f * w[k] (a pivot's steps change
    only its own entry, never read), or None unless they give z back."""
    _, cols, steps = _eliminate({**col, ~j: 1}
                                for j, col in enumerate(columns))
    kept = [j for j, col in cols.items() if max(col) < 0]
    basis = [{~s: c for s, c in cols[j].items()} for j in kept]
    position = {j: r for r, j in enumerate(kept)}

    def coords(z):
        w, rest = dict(z), dict(z)
        for k, j, f in steps:
            if w.get(k):
                w[j] = w.get(j, 0) + f * w[k]
        y = {position[j]: c for j, c in w.items() if c and j in position}
        for r, c in y.items():
            for s, v in basis[r].items():
                rest[s] = rest.get(s, 0) - c * v
        return None if any(rest.values()) else y

    return basis, coords


def smith(rows_in):
    """Smith reduction D = U R V of a dense integer matrix (list of rows).

    Returns (diagonal, U, Uinv): the nonzero invariant factors, positive
    and each dividing the next, and the row transform with its inverse,
    all that a quotient Z^k / col(R) in invariant coordinates needs.
    One pivot loop, least entry first (Kannan and Bachem 1979): step t
    moves an entry of least absolute value in rows and columns >= t to
    (t, t) and takes floor multiples of row and column t from the rest.
    A remainder is nonzero and smaller than the pivot, so the step starts
    again on a smaller one, and the pivot cannot fall forever.  With row
    and column t clear, a row holding an entry the pivot does not divide
    is added to row t, to leave such a remainder; with none, the pivot is
    the next factor.  The least pivot keeps the multiples, and U, small.
    """
    R = [list(r) for r in rows_in]
    k, m = len(R), len(R[0]) if R else 0
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    Uinv = [row[:] for row in U]

    def row_add(i, j, q):  # row i += q * row j
        R[i] = [a + q * b for a, b in zip(R[i], R[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= q * row[i]

    diag, t = [], 0
    while t < min(k, m):
        block = [(abs(R[i][j]), i, j) for i in range(t, k)
                 for j in range(t, m) if R[i][j]]
        if not block:
            break
        _, i, j = min(block)
        R[t], R[i], U[t], U[i] = R[i], R[t], U[i], U[t]
        for row in Uinv:
            row[t], row[i] = row[i], row[t]
        for row in R:
            row[t], row[j] = row[j], row[t]
        p = R[t][t]
        for i in range(t + 1, k):
            if R[i][t]:
                row_add(i, t, -(R[i][t] // p))
        for j in range(t + 1, m):
            if q := R[t][j] // p:
                for row in R:
                    row[j] -= q * row[t]
        if any(R[i][t] for i in range(t + 1, k)) or any(R[t][t + 1:]):
            continue
        i = next((i for i in range(t + 1, k)
                  if any(a % p for a in R[i][t + 1:])), None)
        if i is not None:
            row_add(t, i, 1)
            continue
        if p < 0:
            R[t], U[t] = [-a for a in R[t]], [-a for a in U[t]]
            for row in Uinv:
                row[t] = -row[t]
        diag.append(abs(p))
        t += 1
    return diag, U, Uinv


# ---------------------------------------------------------------------------
# fields: elements are Python numbers, and zero is the only false one

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


# Miller-Rabin with the first 13 prime bases decides primality of every n
# below the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2017); the first 12 bases
# alone are fooled by 318665857834031151167461
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality for 0 <= n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with integer elements in [0, p)."""

    def __init__(self, p):
        if p >= _PRIME_LIMIT:
            raise ValueError(f"{p} is too large; primes below {_PRIME_LIMIT} "
                             "are supported")
        if not _is_prime(p):
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


# ---------------------------------------------------------------------------
# column reduction over a field

def _into(F, vec):
    """A copy of a sparse vector with its coefficients mapped into F."""
    out = {}
    for r, c in vec.items():
        c = F.of(c)
        if c:
            out[r] = c
    return out


def _subtract(F, vec, w, f):
    """vec -= f * w in place, dropping the entries that cancel."""
    for r, c in w.items():
        v = F.sub(vec.get(r, F.zero), F.mul(f, c))
        if v:
            vec[r] = v
        else:
            del vec[r]


class FieldReducer:
    """Column reduction over a field, on sparse {row: coefficient} columns.

    Every stored column is scaled to 1 at its lowest nonzero row, its
    pivot, and no two stored columns share a pivot.  A column is reduced
    by clearing its lowest entry against the stored column with that
    pivot until its lowest row is no pivot or it is empty; it is empty
    exactly when it lies in the span of the stored columns.  The number
    of stored columns is the rank.  When the columns are the boundaries
    of a filtration's simplices in order, the pivot of a stored column
    is the simplex whose class its simplex kills: the persistence pairs.

    A column may carry a tag, a sparse combination {label: coefficient}
    of the caller's labels, reduced alongside it: subtracting f times a
    stored column subtracts f times its tag.  Column j tagged {j: 1}
    that empties leaves a kernel vector as its tag.  A column stored
    without a tag counts as tag zero.
    """

    def __init__(self, field, columns=()):
        self.field = field
        self.pivots = {}  # pivot row -> (column, tag), scaled to 1 there
        for col in columns:
            self.add(col)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, col, tag=None):
        """Copies of col and tag (None stays None), reduced against the
        stored columns."""
        F = self.field
        col = _into(F, col)
        tag = None if tag is None else _into(F, tag)
        pivots = self.pivots
        while col:
            low = max(col)
            hit = pivots.get(low)
            if hit is None:
                break
            f = col[low]
            _subtract(F, col, hit[0], f)
            if tag is not None and hit[1]:
                _subtract(F, tag, hit[1], f)
        return col, tag

    def add(self, col, tag=None):
        """Reduce col and store it, scaled to 1 at its pivot, unless it empties.

        Returns the reduced column and tag; the column is empty when col
        was in the span of the stored columns, else its lowest row is
        the new pivot and the pair returned is the one stored, which the
        caller must not change.
        """
        col, tag = self.reduce(col, tag)
        if col:
            F = self.field
            low = max(col)
            if col[low] != F.one:
                inv = F.inv(col[low])
                for vec in (col, tag or {}):
                    for k, c in vec.items():
                        vec[k] = F.mul(inv, c)
            self.pivots[low] = (col, tag)
        return col, tag
