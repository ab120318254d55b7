"""Singular homology of finite closure spaces.

Chains are generated by continuous maps out of interval powers: either
cubes (tables of 2^n vertex values constrained by the chosen interval
and product) or simplices (tuples constrained by the interval order).
One assembly builds these complexes and those of simplicial complexes:
it lists the shapes of each degree, drops the degenerate ones, and
counts a face outside the basis below as zero.  Boundary matrices are
integer matrices; groups are read off via Smith data over Z and Q and
via column-reduction ranks over a prime field.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._linalg import (FieldReducer, PrimeField, RationalField,
                      integer_kernel_basis, rank_and_invariants, smith)
from .errors import (BadParameter, DegreeOutOfRange, DimensionTooLarge,
                     NotContinuous, ParseError)
from .spaces import (ContinuousMap, FiniteClosureSpace, ProductKind,
                     closure_masks, homomorphisms)

DEFAULT_CUBE_CAP = 6
DEFAULT_SIMPLEX_CAP = 4


@dataclass(frozen=True)
class Theory:
    """A choice of chain model: cube or simplex shapes, interval, product."""

    shape: str                 # "cube" or "simplex"
    interval: str              # "j1" or "jplus"
    product: ProductKind = ProductKind.PRODUCT  # cubes only
    normalized: bool = False   # simplices only

    def __post_init__(self):
        if self.shape not in ("cube", "simplex"):
            raise BadParameter(f"unknown shape {self.shape!r}")
        if self.interval not in ("j1", "jplus"):
            raise BadParameter(f"unknown interval {self.interval!r}")

    def default_cap(self) -> int:
        return DEFAULT_CUBE_CAP if self.shape == "cube" else DEFAULT_SIMPLEX_CAP


CUBE_J1_TIMES = Theory("cube", "j1", ProductKind.PRODUCT)
CUBE_J1_BOX = Theory("cube", "j1", ProductKind.INDUCTIVE)
CUBE_JPLUS_TIMES = Theory("cube", "jplus", ProductKind.PRODUCT)
CUBE_JPLUS_BOX = Theory("cube", "jplus", ProductKind.INDUCTIVE)
SIMPLEX_J1 = Theory("simplex", "j1")
SIMPLEX_JPLUS = Theory("simplex", "jplus")

_THEORY_NAMES = {
    "j1-times": CUBE_J1_TIMES,
    "j1-box": CUBE_J1_BOX,
    "jplus-times": CUBE_JPLUS_TIMES,
    "jplus-box": CUBE_JPLUS_BOX,
    "simplicial-j1": SIMPLEX_J1,
    "simplicial-jplus": SIMPLEX_JPLUS,
}


def parse_theory(name: str) -> Theory:
    if name not in _THEORY_NAMES:
        raise ParseError(f"unknown theory {name!r}; choose from "
                         + ", ".join(sorted(_THEORY_NAMES)))
    return _THEORY_NAMES[name]


def parse_coefficients(text: str):
    """Parse a coefficient spec: 'z', 'q', or 'f<p>' for a prime p."""
    text = text.strip().lower()
    if text in ("z", "q"):
        return (text, None)
    if text.startswith("f") and text[1:].isdigit():
        p = int(text[1:])
        try:
            PrimeField(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return ("f", p)
    raise ParseError(f"unknown coefficients {text!r}; use z, q, or f<p>")


# ---------------------------------------------------------------------------
# cube combinatorics: a singular n-cube is a table of 2^n values, the
# vertex with binary digits (a_1 .. a_n) stored at index sum a_i 2^(n-i)

def cube_face(values, n, i, bit):
    """The (n-1)-table obtained by pinning coordinate i to bit."""
    shift = n - i
    low_mask = (1 << shift) - 1
    out = []
    for w in range(1 << (n - 1)):
        high = w >> shift
        low = w & low_mask
        out.append(values[(high << (shift + 1)) | (bit << shift) | low])
    return tuple(out)


def cube_degenerate(values, n) -> bool:
    """True iff the table does not depend on some coordinate."""
    return any(cube_face(values, n, i, 0) == cube_face(values, n, i, 1)
               for i in range(1, n + 1))


def _interval_relation(interval):
    # rel[a][b] means b lies in the closure of a on the two-point interval
    if interval == "j1":
        return ((True, True), (True, True))
    return ((True, True), (False, True))


def _cube_vertex_relation(interval, kind, n):
    """Adjacency rel[u] = vertices in the closure of u on the n-cube."""
    base = _interval_relation(interval)
    size = 1 << n
    rel = []
    for u in range(size):
        row = []
        for v in range(size):
            if kind is ProductKind.PRODUCT:
                ok = all(base[(u >> b) & 1][(v >> b) & 1] for b in range(n))
            else:
                diff = u ^ v
                ok = diff == 0 or (diff & (diff - 1) == 0 and
                                   base[(u >> diff.bit_length() - 1) & 1]
                                       [(v >> diff.bit_length() - 1) & 1])
            if ok:
                row.append(v)
        rel.append(row)
    return rel


def _maps_into(X: FiniteClosureSpace, src):
    """Continuous maps from the relation src into X, as tuples of points."""
    pts = X.points
    return [tuple(pts[i] for i in h)
            for h in homomorphisms(src, closure_masks(X))]


def enumerate_cubes(X: FiniteClosureSpace, theory: Theory, n: int):
    """All continuous n-cube tables in lexicographic point order."""
    return _maps_into(X, _cube_vertex_relation(theory.interval,
                                               theory.product, n))


def enumerate_simplices(X: FiniteClosureSpace, theory: Theory, n: int):
    """All continuous (n+1)-tuples in lexicographic point order.

    The ordered simplex relates a to b for a <= b, and both ways under j1.
    Normalized theories drop tuples with two equal consecutive entries.
    """
    mutual = theory.interval == "j1"
    tuples = _maps_into(X, [list(range(0 if mutual else a, n + 1))
                            for a in range(n + 1)])
    if theory.normalized:
        tuples = [t for t in tuples if all(a != b for a, b in zip(t, t[1:]))]
    return tuples


# ---------------------------------------------------------------------------
# chain complexes

class ChainComplex:
    """Basis elements per degree and integer boundary columns."""

    __slots__ = ("basis", "index", "boundaries", "top")

    def __init__(self, basis, boundaries, top):
        self.basis = basis
        self.index = {d: {b: i for i, b in enumerate(bs)}
                      for d, bs in basis.items()}
        self.boundaries = boundaries
        self.top = top
        self._check_squares()

    def _check_squares(self):
        for d in range(2, self.top + 1):
            lower = self.boundaries.get(d - 1, [])
            for col in self.boundaries.get(d, []):
                acc = {}
                for row, c in col.items():
                    for row2, c2 in lower[row].items():
                        acc[row2] = acc.get(row2, 0) + c * c2
                if any(acc.values()):
                    raise AssertionError("boundary of boundary is nonzero")

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, []))

    def boundary_columns(self, n: int):
        return self.boundaries.get(n, [])


def _assemble(shapes, faces, top) -> ChainComplex:
    """The chain complex of shapes(n), n = 0 .. top, with signed faces.

    faces(s, n) lists the pairs (face, sign) of an n-shape s, or is None
    when s is degenerate; degenerate shapes are dropped.  A face that is
    not in the basis one degree down counts as zero.
    """
    basis = {0: shapes(0)}
    boundaries = {}
    for n in range(1, top + 1):
        prev = {b: i for i, b in enumerate(basis[n - 1])}
        basis[n] = kept = []
        boundaries[n] = cols = []
        for s in shapes(n):
            signed = faces(s, n)
            if signed is None:
                continue
            col = {}
            for face, sign in signed:
                row = prev.get(face)
                if row is not None:
                    col[row] = col.get(row, 0) + sign
            kept.append(s)
            cols.append({r: c for r, c in col.items() if c})
    return ChainComplex(basis, boundaries, top)


def _cube_faces(table, n):
    """The 2n signed faces of an n-cube table; None if it is degenerate."""
    out = []
    for i in range(1, n + 1):
        low = cube_face(table, n, i, 0)
        high = cube_face(table, n, i, 1)
        if low == high:
            return None
        sign = (-1) ** i
        out += ((low, sign), (high, -sign))
    return out


def _simplex_faces(tup, n):
    """The n+1 signed faces of an ordered n-simplex."""
    return [(tup[:i] + tup[i + 1:], (-1) ** i) for i in range(n + 1)]


def _check_singular(theory: Theory, shape: str, top: int, cap):
    if theory.shape != shape:
        raise BadParameter(f"a {shape} chain complex needs a {shape} theory")
    cap = theory.default_cap() if cap is None else cap
    if top > cap:
        raise DimensionTooLarge(f"{shape} dimension {top} exceeds the cap {cap}")


def cubical_chain_complex(X: FiniteClosureSpace, theory: Theory, top: int,
                          cap: int = None) -> ChainComplex:
    """Chain complex of nondegenerate singular cubes up to dimension top."""
    _check_singular(theory, "cube", top, cap)
    return _assemble(lambda n: enumerate_cubes(X, theory, n), _cube_faces,
                     top)


def simplicial_chain_complex(X: FiniteClosureSpace, theory: Theory, top: int,
                             cap: int = None) -> ChainComplex:
    """Chain complex of singular simplices up to dimension top.

    Unnormalized by default: degenerate tuples are kept as basis
    elements, so the point space has rank one in every degree.
    Normalized theories leave them out, so their faces count as zero.
    """
    _check_singular(theory, "simplex", top, cap)
    return _assemble(lambda n: enumerate_simplices(X, theory, n),
                     _simplex_faces, top)


def singular_chain_complex(X: FiniteClosureSpace, theory: Theory, top: int,
                           cap: int = None) -> ChainComplex:
    if theory.shape == "cube":
        return cubical_chain_complex(X, theory, top, cap=cap)
    return simplicial_chain_complex(X, theory, top, cap=cap)


def complex_chain_complex(K, top: int = None) -> ChainComplex:
    """Ordered chain complex of a simplicial complex (vertices sorted by repr)."""
    by_dim = {}
    for s in K.simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s, key=repr)))
    if top is None:
        top = max(by_dim, default=0)
    return _assemble(
        lambda n: sorted(by_dim.get(n, []), key=lambda t: tuple(map(repr, t))),
        _simplex_faces, top)


# ---------------------------------------------------------------------------
# homology groups

@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple = ()
    coefficients: str = "z"

    def __str__(self):
        sym = {"z": "Z", "q": "Q"}.get(self.coefficients,
                                       self.coefficients.upper())
        parts = []
        if self.rank == 1:
            parts.append(sym)
        elif self.rank > 1:
            parts.append(f"{sym}^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _lower_boundary_data(C: ChainComplex, n: int, reduced: bool):
    """(n_rows, columns) of the map out of degree n, with augmentation."""
    if n >= 1:
        return C.dim(n - 1), C.boundary_columns(n)
    if reduced:
        return 1, [{0: 1} for _ in range(C.dim(0))]
    return 0, [{} for _ in range(C.dim(0))]


def homology(C: ChainComplex, n: int, coefficients: str = "z",
             reduced: bool = False) -> HomologyGroup:
    """The degree-n homology of a chain complex built at least to n+1."""
    kind, p = parse_coefficients(coefficients)
    if n < 0:
        raise DegreeOutOfRange("negative degree")
    if n + 1 > C.top:
        raise DegreeOutOfRange(
            f"degree {n} needs the complex built to {n + 1}, have {C.top}")
    dim_n = C.dim(n)
    rows_low, cols_low = _lower_boundary_data(C, n, reduced)
    cols_high = C.boundary_columns(n + 1)
    if kind == "f":
        F = PrimeField(p)
        r_low = FieldReducer(F, cols_low).rank
        r_high = FieldReducer(F, cols_high).rank
        return HomologyGroup(dim_n - r_low - r_high, (), coefficients.lower())
    r_low = rank_and_invariants(rows_low, cols_low)[0] if rows_low else 0
    r_high, invs = rank_and_invariants(dim_n, cols_high) if dim_n else (0, [])
    betti = dim_n - r_low - r_high
    if kind == "q":
        return HomologyGroup(betti, (), "q")
    return HomologyGroup(betti, tuple(sorted(d for d in invs if d > 1)), "z")


def singular_homology(X: FiniteClosureSpace, theory: Theory, n: int,
                      coefficients: str = "z", reduced: bool = False,
                      cap: int = None) -> HomologyGroup:
    C = singular_chain_complex(X, theory, n + 1, cap=cap)
    return homology(C, n, coefficients=coefficients, reduced=reduced)


# ---------------------------------------------------------------------------
# homology bases with coordinates, used for induced maps and towers

class IntegerHomologyBasis:
    """Generators and coordinates for homology with integer coefficients.

    The cycles form a lattice with a basis from integer_kernel_basis; a
    rational column reduction of that basis, each vector tagged with its
    index, gives any cycle's lattice coordinates as the negated tag.
    The boundaries in those coordinates go through ``smith``.
    """

    def __init__(self, C: ChainComplex, n: int, reduced: bool = False):
        dim_n = C.dim(n)
        kernel = integer_kernel_basis(*_lower_boundary_data(C, n, reduced))
        k = len(kernel)
        self._lattice = FieldReducer(RationalField())
        for r, z in enumerate(kernel):
            self._lattice.add(dict(enumerate(z)), {r: 1})
        rel_cols = []
        for b in C.boundary_columns(n + 1):
            a = self._lattice_coords(b)
            if a is None:
                raise AssertionError("boundary outside the cycle lattice")
            rel_cols.append(a)
        R = [[col[i] for col in rel_cols] for i in range(k)]
        diag, U, Uinv = smith(R)
        orders = [diag[i] if i < len(diag) else 0 for i in range(k)]
        self._U = U
        self._kept = [i for i in range(k) if orders[i] != 1]
        self.orders = [orders[i] for i in self._kept]
        self.dimension = len(self._kept)
        self.generators = []
        for i in self._kept:
            vec = [0] * dim_n
            for r in range(k):
                if Uinv[r][i]:
                    for t in range(dim_n):
                        vec[t] += Uinv[r][i] * kernel[r][t]
            self.generators.append(vec)

    def _lattice_coords(self, chain):
        """Integer coordinates of a sparse chain in the kernel basis.

        None when the chain is not an integer combination of the basis.
        """
        rest, tag = self._lattice.reduce(chain, {})
        if rest or any(c.denominator != 1 for c in tag.values()):
            return None
        return [-int(tag.get(r, 0)) for r in range(self._lattice.rank)]

    def coords(self, cycle):
        """Coordinates of a cycle: torsion entries reduced modulo the order."""
        if self.dimension == 0:
            return []
        a = self._lattice_coords(dict(enumerate(cycle)))
        if a is None:
            raise ValueError("not a cycle in the tracked lattice")
        out = []
        for pos, i in enumerate(self._kept):
            b = sum(self._U[i][j] * a[j] for j in range(len(a)))
            d = self.orders[pos]
            out.append(b % d if d else b)
        return out


class FieldHomologyBasis:
    """Generators and coordinates for homology over a field.

    The generators are the kernel vectors of the lower boundary that are
    independent of the boundaries and of the generators before them.
    One reducer holds the boundaries, untagged, then each generator g
    tagged {g: 1}; a cycle's coordinates are the negated tag it is left
    with once reduced to zero.
    """

    def __init__(self, C: ChainComplex, n: int, field, reduced: bool = False):
        self.field = F = field
        dim_n = C.dim(n)
        _, cols_low = _lower_boundary_data(C, n, reduced)
        kernel = FieldReducer(F)
        cycles = []
        for j, col in enumerate(cols_low):
            rest, tag = kernel.add(col, {j: 1})
            if not rest:
                cycles.append(tag)
        self._reducer = FieldReducer(F, C.boundary_columns(n + 1))
        self.generators = []
        for z in cycles:
            rest, _ = self._reducer.add(z, {len(self.generators): 1})
            if rest:
                self.generators.append([z.get(i, F.zero)
                                        for i in range(dim_n)])
        self.dimension = len(self.generators)
        self.orders = [0] * self.dimension

    def coords(self, cycle):
        F = self.field
        rest, tag = self._reducer.reduce(dict(enumerate(cycle)), {})
        if rest:
            raise ValueError("vector is outside the tracked span")
        return [F.neg(tag.get(g, F.zero)) for g in range(self.dimension)]


def homology_basis(C: ChainComplex, n: int, coefficients: str = "z",
                   reduced: bool = False):
    kind, p = parse_coefficients(coefficients)
    if n < 0 or n + 1 > C.top:
        raise DegreeOutOfRange(f"degree {n} needs the complex built to {n + 1}")
    if kind == "z":
        return IntegerHomologyBasis(C, n, reduced=reduced)
    field = RationalField() if kind == "q" else PrimeField(p)
    return FieldHomologyBasis(C, n, field, reduced=reduced)


# ---------------------------------------------------------------------------
# chain maps and induced maps on homology

def _permutation_sign(values):
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


def chain_map_columns(C_src: ChainComplex, C_tgt: ChainComplex, n: int,
                      mapping, theory: Theory = None):
    """Columns of the degree-n chain map induced by a vertex map.

    With a theory the bases are singular shapes; without one they are
    ordered simplices of simplicial complexes, where images with
    repeated vertices die and reordering contributes a sign.  A
    degenerate image maps to zero; any other image must be a basis
    element of the target, else the map is not continuous.
    """
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
            sign = _permutation_sign(order)
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
            raise NotContinuous(f"the degree-{n} shape {b!r} maps to "
                                f"{image!r}, outside the target's basis")
        cols.append({row: sign})
    return cols


@dataclass
class InducedMap:
    source: object   # homology basis of the source
    target: object   # homology basis of the target
    matrix: list     # rows = target coordinates, columns = source generators


def induced_map_between(C_src: ChainComplex, C_tgt: ChainComplex, mapping,
                        n: int, coefficients: str = "z",
                        reduced: bool = False, theory: Theory = None,
                        src_basis=None, tgt_basis=None) -> InducedMap:
    src = src_basis or homology_basis(C_src, n, coefficients, reduced=reduced)
    tgt = tgt_basis or homology_basis(C_tgt, n, coefficients, reduced=reduced)
    cols = chain_map_columns(C_src, C_tgt, n, mapping, theory=theory)
    dim_tgt = C_tgt.dim(n)
    matrix_cols = []
    for gen in src.generators:
        image = [0] * dim_tgt
        zero_like = 0
        for j, coeff in enumerate(gen):
            if coeff == zero_like:
                continue
            for r, c in cols[j].items():
                image[r] += coeff * c
        matrix_cols.append(tgt.coords(image))
    matrix = [[matrix_cols[j][i] for j in range(len(matrix_cols))]
              for i in range(tgt.dimension)]
    return InducedMap(src, tgt, matrix)


def induced_map(f: ContinuousMap, theory: Theory, n: int,
                coefficients: str = "z", reduced: bool = False,
                cap: int = None) -> InducedMap:
    """Matrix of f_* on degree-n singular homology."""
    if not isinstance(f, ContinuousMap):
        raise NotContinuous("induced_map expects a validated continuous map")
    C_src = singular_chain_complex(f.source, theory, n + 1, cap=cap)
    C_tgt = singular_chain_complex(f.target, theory, n + 1, cap=cap)
    return induced_map_between(C_src, C_tgt, f.mapping, n,
                               coefficients=coefficients, reduced=reduced,
                               theory=theory)
