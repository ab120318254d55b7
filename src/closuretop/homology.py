"""Singular homology of finite closure spaces.

Chains are generated by continuous maps out of interval objects: cubes
out of the n-fold power of the interval under the chosen product (tables
of 2^n vertex values), simplices out of the interval on 0..n (tuples).
One assembly builds these complexes and those of simplicial complexes:
it lists the shapes of each degree, drops the degenerate ones, and
counts a face outside the basis below as zero.  Each complex also keeps
the rule that reads a vertex image as a signed basis element or zero,
so a chain map asks its target, not a theory.  Boundary matrices are
integer matrices; groups over Z, Q and every F_p are read off their
invariant factors, and a field reduction gives bases and induced maps.
Chains, coordinates and induced maps (one column per source generator)
are sparse {position: coefficient} vectors with no zero entries.
Each theory is homotopy invariant under its own interval and product, so
singular_homology computes a space's groups on its homotopy core
(homotopy.homotopy_core); bases, induced maps and towers need the
literal space's complex and build that.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from operator import itemgetter

from ._linalg import (Field, FieldReducer, _eliminate, _residue,
                      integer_kernel_basis, rank_and_invariants)
from .errors import (BadParameter, DegreeOutOfRange, DimensionTooLarge,
                     NotContinuous, ParseError)
from .homotopy import homotopy_core
from .spaces import (ContinuousMap, FiniteClosureSpace, ProductKind,
                     enumerate_continuous_maps, j_leq, j_top, parse_interval,
                     point_space, product_power)

DEFAULT_CUBE_CAP = 6
DEFAULT_SIMPLEX_CAP = 4


@dataclass(frozen=True)
class Theory:
    """A choice of chain model: cube or simplex shapes, interval, product."""

    shape: str                 # "cube" or "simplex"
    interval: str              # "j1" or "jplus"
    product: ProductKind = ProductKind.PRODUCT  # cubes only

    def __post_init__(self):
        if self.shape not in ("cube", "simplex"):
            raise BadParameter(f"unknown shape {self.shape!r}")
        if self.interval not in ("j1", "jplus"):
            raise BadParameter(f"unknown interval {self.interval!r}")
        if self.shape == "simplex" and self.product is not ProductKind.PRODUCT:
            raise BadParameter("simplex theories take their cores under the "
                               "product x")

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
    """The ring of a coefficient spec: None for 'z', Field(0) for 'q' and
    Field(p) for 'f<p>' with p prime."""
    text = text.strip().lower()
    if text == "z":
        return None
    if text == "q":
        return Field(0)
    if text.startswith("f") and text[1:].isdecimal():
        p = int(text[1:])
        if p == 0:  # Field(0) is Q
            raise ParseError("0 is not prime")
        try:
            return Field(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
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


@cache
def _cube_face_getters(n):
    """Per coordinate i = 1 .. n: (-1)^i and the getters of its 0- and
    1-faces, built from the face formula applied to the index table."""
    indices = tuple(range(1 << n))
    out = []
    for i in range(1, n + 1):
        getters = []
        for bit in (0, 1):
            face = cube_face(indices, n, i, bit)
            if n == 1:  # itemgetter of one index returns the bare item
                getters.append(lambda table, k=face[0]: (table[k],))
            else:
                getters.append(itemgetter(*face))
        out.append(((-1) ** i, *getters))
    return tuple(out)


def _cube_faces(table, n):
    """The 2n signed faces of an n-cube table; None if it is degenerate."""
    out = []
    for sign, low_of, high_of in _cube_face_getters(n):
        low = low_of(table)
        high = high_of(table)
        if low == high:
            return None
        out += ((low, sign), (high, -sign))
    return out


def cube_degenerate(values, n) -> bool:
    """True iff the table does not depend on some coordinate."""
    return _cube_faces(values, n) is None


@cache
def _shape_source(theory: Theory, n: int) -> FiniteClosureSpace:
    """The space that the theory's n-shapes are continuous maps out of.

    A cube's is the n-fold power of the interval under the theory's
    product; its points come in table order, first coordinate most
    significant.  A simplex's is the interval j_top(n) under j1 and
    j_leq(n) under jplus, and one point at n = 0.
    """
    if theory.shape == "cube":
        return product_power(parse_interval(theory.interval), n,
                             theory.product)
    if n == 0:
        return point_space()
    return j_top(n) if theory.interval == "j1" else j_leq(n)


def enumerate_shapes(X: FiniteClosureSpace, theory: Theory, n: int):
    """The theory's n-shapes in X: the continuous maps out of
    _shape_source(theory, n) as tuples of points of X (a cube's in table
    order), in lexicographic order of the points' indices."""
    pts = X.points
    return [tuple(pts[i] for i in h)
            for h in enumerate_continuous_maps(_shape_source(theory, n), X)]


# ---------------------------------------------------------------------------
# chain complexes

class ChainComplex:
    """Basis elements per degree and integer boundary columns.

    index[n] maps each basis element of degree n to its position.
    signed_shape(image, n) reads an n-shape of vertices mapped into this
    complex as a pair (basis element, sign), or None when it is zero.
    """

    __slots__ = ("basis", "index", "boundaries", "top", "signed_shape")

    def __init__(self, basis, index, boundaries, top, signed_shape):
        self.basis = basis
        self.index = index
        self.boundaries = boundaries
        self.top = top
        self.signed_shape = signed_shape
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


def _assemble(shapes, faces, top, signed_shape) -> ChainComplex:
    """The chain complex of shapes(n), n = 0 .. top, with signed faces.

    faces(s, n) lists the pairs (face, sign) of an n-shape s, or is None
    when s is degenerate; degenerate shapes are dropped.  A face that is
    not in the basis one degree down counts as zero.  signed_shape is
    the complex's rule for images (see ChainComplex).
    """
    basis = {0: shapes(0)}
    index = {0: {b: i for i, b in enumerate(basis[0])}}
    boundaries = {}
    for n in range(1, top + 1):
        prev = index[n - 1]
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
        index[n] = {b: i for i, b in enumerate(kept)}
    return ChainComplex(basis, index, boundaries, top, signed_shape)


def _simplex_faces(tup, n):
    """The n+1 signed faces of an ordered n-simplex."""
    return [(tup[:i] + tup[i + 1:], (-1) ** i) for i in range(n + 1)]


def _cube_image(table, n):
    return None if cube_degenerate(table, n) else (table, 1)


def _tuple_image(tup, n):
    return tup, 1


def _ordered_image(vertices, n):
    """Vertices sorted by repr, with the sort's sign; zero on a repeat."""
    if len(set(vertices)) != len(vertices):
        return None
    order = sorted(range(len(vertices)), key=lambda i: repr(vertices[i]))
    inversions = sum(a > b for a, b in combinations(order, 2))
    return tuple(vertices[i] for i in order), (-1) ** inversions


def singular_chain_complex(X: FiniteClosureSpace, theory: Theory, top: int,
                           cap: int = None) -> ChainComplex:
    """Chain complex of the theory's singular shapes up to dimension top.

    Cubes are nondegenerate tables.  Simplices are unnormalized:
    degenerate tuples are kept as basis elements, so the point space has
    rank one in every degree.
    """
    cap = theory.default_cap() if cap is None else cap
    if top > cap:
        raise DimensionTooLarge(
            f"{theory.shape} dimension {top} exceeds the cap {cap}")
    if theory.shape == "cube":
        faces, image = _cube_faces, _cube_image
    else:
        faces, image = _simplex_faces, _tuple_image
    return _assemble(lambda n: enumerate_shapes(X, theory, n), faces, top,
                     image)


def complex_chain_complex(K, top: int = None) -> ChainComplex:
    """Ordered chain complex of a simplicial complex (vertices sorted by repr)."""
    by_dim = {}
    for s in K.simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s, key=repr)))
    if top is None:
        top = max(by_dim, default=0)
    return _assemble(
        lambda n: sorted(by_dim.get(n, []), key=lambda t: tuple(map(repr, t))),
        _simplex_faces, top, _ordered_image)


# ---------------------------------------------------------------------------
# homology groups

@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple = ()
    coefficients: str = "z"

    def __str__(self):
        sym = self.coefficients.upper()
        parts = []
        if self.rank == 1:
            parts.append(sym)
        elif self.rank > 1:
            parts.append(f"{sym}^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _lower_boundary_data(C: ChainComplex, n: int, reduced: bool):
    """The columns of the map out of degree n, with augmentation."""
    if n >= 1:
        return C.boundary_columns(n)
    return [{0: 1} if reduced else {} for _ in range(C.dim(0))]


def homology_groups(C: ChainComplex, degrees, coefficients: str = "z",
                    reduced: bool = False) -> dict:
    """{n: H_n} for each n in degrees, of a complex built at least to
    max(degrees) + 1; each boundary map is eliminated once.

    Over F_p a map's rank counts its invariant factors prime to p."""
    field = parse_coefficients(coefficients)
    p = 0 if field is None else field.p
    label = "z" if field is None else str(field).lower()
    degrees = list(degrees)
    for n in degrees:
        if n < 0:
            raise DegreeOutOfRange("negative degree")
        if n + 1 > C.top:
            raise DegreeOutOfRange(
                f"degree {n} needs the complex built to {n + 1}, have {C.top}")
    # invs[m]: invariant factors of the map out of degree m
    invs = {m: rank_and_invariants(_lower_boundary_data(C, m, reduced))[1]
            for m in sorted({m for n in degrees for m in (n, n + 1)})}
    groups = {}
    for n in degrees:
        betti = C.dim(n) - sum(1 for d in invs[n] + invs[n + 1]
                               if not p or d % p)
        torsion = (tuple(sorted(d for d in invs[n + 1] if d > 1))
                   if field is None else ())
        groups[n] = HomologyGroup(betti, torsion, label)
    return groups


def homology(C: ChainComplex, n: int, coefficients: str = "z",
             reduced: bool = False) -> HomologyGroup:
    """The degree-n homology of a chain complex built at least to n+1."""
    return homology_groups(C, [n], coefficients, reduced)[n]


def singular_homology_groups(X: FiniteClosureSpace, theory: Theory, degrees,
                             coefficients: str = "z", reduced: bool = False,
                             cap: int = None) -> dict:
    """{n: H_n(X)} for each n in degrees, computed on X's homotopy core.

    The core is taken under the theory's own interval and product, under
    which its homology is homotopy invariant, so the groups are those of
    X.  Bases, induced maps and towers need X's own complex and build it.
    """
    degrees = list(degrees)
    core = homotopy_core(X, parse_interval(theory.interval), theory.product)
    C = singular_chain_complex(core, theory, max(degrees, default=0) + 1,
                               cap=cap)
    return homology_groups(C, degrees, coefficients, reduced)


def singular_homology(X: FiniteClosureSpace, theory: Theory, n: int,
                      coefficients: str = "z", reduced: bool = False,
                      cap: int = None) -> HomologyGroup:
    """The degree-n singular homology of X, computed on its homotopy core."""
    return singular_homology_groups(X, theory, [n], coefficients, reduced,
                                    cap)[n]


# ---------------------------------------------------------------------------
# homology bases with coordinates, used for induced maps and towers

class IntegerHomologyBasis:
    """Generators and coordinates for homology with integer coefficients.

    The cycles form a lattice with a sparse basis from integer_kernel_basis,
    whose reader gives any cycle's lattice coordinates by replaying the
    elimination's Euclid steps, and None for a chain outside the lattice.
    In those coordinates each boundary is a relation column, and they go
    through ``_eliminate``: a unit pivot drops a kernel vector with its
    relation, and Euclid steps only recombine relations, so the kernel
    vectors left stay as they are.  ``smith`` reduces the residue on them.
    """

    def __init__(self, C: ChainComplex, n: int, reduced: bool = False):
        kernel, self._lattice_coords = integer_kernel_basis(
            _lower_boundary_data(C, n, reduced))
        relations = list(map(self._lattice_coords, C.boundary_columns(n + 1)))
        if None in relations:
            raise AssertionError("boundary outside the cycle lattice")
        self._pivots, cols, _ = _eliminate(relations)
        gone = {r for r, _, _ in self._pivots}
        self._rows = [r for r in range(len(kernel)) if r not in gone]
        diag, self._U, Uinv = _residue(self._rows, cols)
        orders = diag + [0] * (len(self._rows) - len(diag))
        self._kept = [i for i, d in enumerate(orders) if d != 1]
        self.orders = [orders[i] for i in self._kept]
        self.dimension = len(self._kept)
        self.generators = []
        for i in self._kept:
            vec = {}
            for t, r in enumerate(self._rows):
                if u := Uinv[t][i]:
                    for s, c in kernel[r].items():
                        vec[s] = vec.get(s, 0) + u * c
            self.generators.append({s: c for s, c in vec.items() if c})

    def coords(self, cycle):
        """Coordinates {generator position: coefficient} of a sparse cycle
        {basis index: coefficient}: torsion entries reduced modulo the
        order, zero entries dropped."""
        a = self._lattice_coords(cycle)
        if a is None:
            raise BadParameter("not a cycle in the tracked lattice")
        for r, p, col in self._pivots:  # row r by the rows after it
            f = a.pop(r, 0) * p
            if f:
                for s, c in col.items():
                    a[s] = a.get(s, 0) - f * c
        y = {t: a[r] for t, r in enumerate(self._rows) if a.get(r)}
        out = {}
        for pos, (i, d) in enumerate(zip(self._kept, self.orders)):
            b = sum(self._U[i][t] * v for t, v in y.items())
            if b := (b % d if d else b):
                out[pos] = b
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
        cols_low = _lower_boundary_data(C, n, reduced)
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
                self.generators.append(z)
        self.dimension = len(self.generators)
        self.orders = [0] * self.dimension

    def coords(self, cycle):
        """Sparse coordinates of a cycle, as IntegerHomologyBasis.coords."""
        rest, tag = self._reducer.reduce(cycle, {})
        if rest:
            raise BadParameter("vector is outside the tracked span")
        return {g: self.field.of(-c) for g, c in tag.items()}


def homology_basis(C: ChainComplex, n: int, coefficients: str = "z",
                   reduced: bool = False):
    field = parse_coefficients(coefficients)
    if n < 0 or n + 1 > C.top:
        raise DegreeOutOfRange(f"degree {n} needs the complex built to {n + 1}")
    if field is None:
        return IntegerHomologyBasis(C, n, reduced=reduced)
    return FieldHomologyBasis(C, n, field, reduced=reduced)


# ---------------------------------------------------------------------------
# chain maps and induced maps on homology

def chain_map_columns(C_src: ChainComplex, C_tgt: ChainComplex, n: int,
                      mapping):
    """Columns of the degree-n chain map induced by a vertex map.

    The target's signed_shape reads each image as a signed basis element
    or zero; an image it keeps must be in the target's basis, else the
    map is not continuous.
    """
    tgt_index = C_tgt.index.get(n, {})
    cols = []
    for b in C_src.basis.get(n, []):
        signed = C_tgt.signed_shape(tuple(mapping[x] for x in b), n)
        if signed is None:
            cols.append({})
            continue
        image, sign = signed
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
    columns: list    # per source generator, its image's target coords


def induced_map_between(C_src: ChainComplex, C_tgt: ChainComplex, mapping,
                        n: int, coefficients: str = "z",
                        reduced: bool = False,
                        src_basis=None, tgt_basis=None) -> InducedMap:
    src = src_basis or homology_basis(C_src, n, coefficients, reduced=reduced)
    tgt = tgt_basis or homology_basis(C_tgt, n, coefficients, reduced=reduced)
    cols = chain_map_columns(C_src, C_tgt, n, mapping)
    columns = []
    for gen in src.generators:
        image = {}
        for j, coeff in gen.items():
            for r, c in cols[j].items():
                image[r] = image.get(r, 0) + coeff * c
        columns.append(tgt.coords(image))
    return InducedMap(src, tgt, columns)


def induced_map(f: ContinuousMap, theory: Theory, n: int,
                coefficients: str = "z", reduced: bool = False,
                cap: int = None) -> InducedMap:
    """f_* on degree-n singular homology, as sparse columns."""
    if not isinstance(f, ContinuousMap):
        raise NotContinuous("induced_map expects a validated continuous map")
    C_src = singular_chain_complex(f.source, theory, n + 1, cap=cap)
    C_tgt = singular_chain_complex(f.target, theory, n + 1, cap=cap)
    return induced_map_between(C_src, C_tgt, f.mapping, n,
                               coefficients=coefficients, reduced=reduced)
