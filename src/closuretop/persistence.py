"""Persistence of filtered closure spaces.

Diagrams come from two routes: coboundary reduction with clearing of a
filtered VR or Cech complex, and one elder-rule sweep along a tower of
stage homology groups with inclusion-induced maps.  The first lists only
the simplices that give columns and builds each coboundary when it is
reduced, reading the cofaces' births from the filtration's pair-birth
table; one birth rule per construction serves both the cofaces and the
listed simplices.  The module also provides the bottleneck distance,
correspondence distortion with the derived Gromov-Hausdorff distance,
and interleaving verification.  Tower maps act on sparse vectors: the
sweep and the interleaving identities push vectors through the stage
maps, and no composite matrix is formed.
"""
from __future__ import annotations

import json
import math
import reprlib
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from ._linalg import FieldReducer
from .complexes import _skeleton
from .errors import (BadParameter, CapExceeded, InfinityMismatch,
                     NotACorrespondence, ParseError, ShapeMismatch)
from .filtrations import FilteredClosureSpace
from .homology import (Theory, complex_chain_complex, homology_basis,
                       induced_map_between, parse_coefficients,
                       singular_chain_complex)
from .spaces import homomorphisms, read_json, refused

INF = math.inf
DEFAULT_GH_CAP = 6


def _field_from_spec(coefficients):
    field = parse_coefficients(coefficients)
    if field is None:
        raise BadParameter(
            "persistence needs field coefficients (q or f<p>)")
    return field


# ---------------------------------------------------------------------------
# diagrams

@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of bars [birth, death) in one degree; death None means +inf."""

    degree: int
    pairs: tuple

    def __post_init__(self):
        for b, d in self.pairs:
            if d is not None and not b <= d:
                raise BadParameter(f"bar with birth {b} after death {d}")

    def sorted_pairs(self):
        return sorted(self.pairs,
                      key=lambda bd: (bd[0], INF if bd[1] is None else bd[1]))

    def as_multiset(self):
        out = {}
        for bd in self.pairs:
            out[bd] = out.get(bd, 0) + 1
        return out

    def __len__(self):
        return len(self.pairs)


def num_out(v) -> float:
    """v as the float that output prints; BadParameter beyond its range."""
    try:
        return float(v)
    except OverflowError as exc:
        raise BadParameter("a value beyond the float range cannot be "
                           "printed") from exc


def _num_in(v):
    # JSON true is an int to Python, and Infinity and NaN are floats
    if isinstance(v, float) and math.isfinite(v):
        return Fraction(repr(v))
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise ParseError(f"not a finite number: {reprlib.repr(v)}")


def diagram_to_json(D: PersistenceDiagram) -> str:
    pairs = [[num_out(b), "inf" if d is None else num_out(d)]
             for b, d in D.sorted_pairs()]
    return json.dumps({"degree": D.degree, "pairs": pairs})


def diagram_from_json(text: str) -> PersistenceDiagram:
    obj = read_json(text, "diagram")
    if "degree" not in obj or "pairs" not in obj:
        raise ParseError("diagram JSON needs 'degree' and 'pairs'")
    degree = obj["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ParseError("degree must be a nonnegative integer")
    if not isinstance(obj["pairs"], list):
        raise ParseError("'pairs' must be a list")
    pairs = []
    for item in obj["pairs"]:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"bad pair {reprlib.repr(item)}")
        b = _num_in(item[0])
        d = None if item[1] == "inf" else _num_in(item[1])
        pairs.append((b, d))
    return refused("diagram", PersistenceDiagram, degree, tuple(pairs))


def load_diagram(path) -> PersistenceDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return diagram_from_json(fh.read())


# ---------------------------------------------------------------------------
# route 1: filtered simplicial complex with coboundary reduction

def _birth_rule(F: FilteredClosureSpace, construction: str):
    """The points in repr order, their births and the coface births of
    a construction, all read from F's table of pair births.

    Births are grid indices, and never = len(F.grid) stands for a
    simplex that is never born.  grow(s, b) takes a simplex s, a sorted
    tuple of point indices born at b, and returns a list whose entry v
    is the birth of s with the vertex v added, at least never if it is
    never born; the entries of s's own vertices mean nothing.  A VR
    simplex is a clique of mutually close points, so s + v is born at
    the latest of b and the births of the pairs (u, v), u in s, each
    pair born when both directions are present.  A Cech simplex is born
    at the earliest stage at which it lies in the closure of some point
    x, so s + v is born at the minimum over centres x of the latest
    (x, y) birth over its points y.
    """
    if construction not in ("vr", "cech"):
        raise BadParameter(f"unknown construction {construction!r}")
    points = sorted(F.points, key=repr)
    n = len(points)
    never = len(F.grid)
    at = {x: i for i, x in enumerate(points)}
    # rows[i][j]: first stage index with points[j] in the closure of points[i]
    rows = [[never] * n for _ in points]
    for x, row in zip(points, rows):
        for y, b in F.births[x].items():
            row[at[y]] = b
    vertex = [row[i] for i, row in enumerate(rows)]
    if construction == "vr":
        # a pair is an edge once both directions are present
        edge = [list(map(max, row, col)) for row, col in zip(rows, zip(*rows))]

        def wider(s, b):
            return list(map(max, [b] * n, *(edge[u] for u in s)))
    else:
        # cols[y][x]: the birth of y in the closure of x
        cols = [list(col) for col in zip(*rows)]

        def wider(s, b):
            # late[x]: when all of s lies in the closure of x, never
            # before b, so the list of b's changes nothing
            late = list(map(max, [b] * n, *(cols[y] for y in s)))
            return [min(map(max, late, col)) for col in cols]

        edge = [wider((u,), b) for u, b in enumerate(vertex)]

    def grow(s, b):
        # the cofaces of a vertex are its edges, born after it
        return edge[s[0]] if len(s) == 1 else wider(s, b)
    return points, vertex, grow


def _levels(vertex, grow, never, size):
    """The simplices of 1, ..., size vertices, one list per size, as
    (birth, code, simplex) in filtration order.  A simplex is a sorted
    tuple of point indices and its code that tuple read as base-n
    digits, so the lists sort by birth, then the tuple.  Each simplex of
    k + 1 vertices is grown from its first k."""
    n = len(vertex)
    level = sorted((b, i, (i,)) for i, b in enumerate(vertex))
    levels = [level]
    for _ in range(size - 1):
        level = sorted((g, c * n + v, s + (v,)) for b, c, s in level
                       for v, g in enumerate(grow(s, b)[s[-1] + 1:], s[-1] + 1)
                       if g < never)
        levels.append(level)
    return levels


def _coboundary(s, c, born, never, n):
    """The signed coboundary of the simplex s of code c, given the births
    of its cofaces by added vertex.  The coface t with the new vertex at
    position p has coefficient (-1)^p and the key -(birth * n^len(t) +
    code of t), so the largest key is the first coface in filtration
    order.  Cofaces never born are left out."""
    k = len(s) + 1
    width = n ** k
    col = {}
    lo = 0
    for p, hi in enumerate(s + (n,)):
        # the vertices v between s[p - 1] and s[p] go in at position p
        step = n ** (k - 1 - p)
        top, low = divmod(c, step)
        head = top * step * n + low
        sign = -1 if p & 1 else 1
        col.update({-(born[v] * width + head + v * step): sign
                    for v in range(lo, hi) if born[v] < never})
        lo = hi + 1
    return col


def persistence_complex(F: FilteredClosureSpace, construction: str = "vr",
                        max_dim: int = 1, coefficients: str = "f2"):
    """Persistence diagrams per degree via coboundary reduction with clearing.

    Only the simplices of at most max_dim + 1 vertices are listed; each
    column's coboundary is built when it is reduced, with the cofaces'
    births read from the pair-birth table (Bauer, "Ripser",
    arXiv:1908.02518).  Degree by degree from 0 up, the coboundaries of
    the d-simplices are added to one reducer in reverse filtration
    order, keyed so that a column's pivot is its first coface in the
    filtration order.  A column that reduces to pivot tau pairs its
    simplex with tau, whose birth and code the key holds; one that
    empties is an infinite bar.  A d-simplex that was a pivot in degree
    d - 1 kills a class there and would only empty, so its column is
    skipped (clearing).  Persistent cohomology has the same pairs as
    persistent homology over any field (de Silva, Morozov and
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).
    Bars of length zero are dropped.
    """
    field = _field_from_spec(coefficients)
    points, vertex, grow = _birth_rule(F, construction)
    if max_dim < 0:
        raise BadParameter("max_dim must be nonnegative")
    n = len(points)
    never = len(F.grid)
    diagrams = {}
    cleared = set()  # codes of the simplices paired one degree down
    for d, level in enumerate(_levels(vertex, grow, never, max_dim + 1)):
        reducer = FieldReducer(field)
        width = n ** (d + 2)
        pairs = []
        paired = set()
        for b, c, s in reversed(level):
            if c in cleared:
                continue
            col, _ = reducer.add(_coboundary(s, c, grow(s, b), never, n))
            if not col:
                pairs.append((F.grid[b], None))
                continue
            death, code = divmod(-max(col), width)
            paired.add(code)
            if b != death:
                pairs.append((F.grid[b], F.grid[death]))
        cleared = paired
        diagrams[d] = PersistenceDiagram(d, tuple(pairs))
    return diagrams


# ---------------------------------------------------------------------------
# route 2: homology towers

def _image(F, M, v):
    """The matrix M (a list of rows) applied to the sparse vector v."""
    out = {}
    p = F.p
    for r, row in enumerate(M):
        c = F.zero
        for i, a in v.items():
            c += row[i] * a
        if p:
            c %= p
        if c:
            out[r] = c
    return out


class Tower:
    """Stage homology dimensions and the maps between consecutive stages."""

    __slots__ = ("grid", "dims", "maps", "field", "degree",
                 "_complexes", "_bases")

    def __init__(self, grid, dims, maps, field, degree,
                 complexes=None, bases=None):
        grid = tuple(grid)
        if len(dims) != len(grid) or len(maps) != len(grid) - 1:
            raise ShapeMismatch("tower pieces do not align with the grid")
        if any(not a < b for a, b in zip(grid, grid[1:])):
            raise ShapeMismatch("tower grid must be strictly increasing")
        for i, M in enumerate(maps):
            if len(M) != dims[i + 1] or any(len(r) != dims[i] for r in M):
                raise ShapeMismatch(f"map {i} has the wrong shape")
        self.grid = grid
        self.dims = list(dims)
        self.maps = list(maps)
        self.field = field
        self.degree = degree
        self._complexes = complexes
        self._bases = bases

    def index_at(self, t):
        """Largest grid index with value <= t; None below the grid."""
        i = bisect_right(self.grid, t) - 1
        return None if i < 0 else i

    def dim_at(self, t) -> int:
        i = self.index_at(t)
        return 0 if i is None else self.dims[i]

    def push(self, i: int, j: int, v):
        """The sparse vector v of stage index i mapped to stage index j."""
        if not 0 <= i <= j < len(self.grid):
            raise ShapeMismatch(f"bad stage window ({i}, {j})")
        for k in range(i, j):
            v = _image(self.field, self.maps[k], v)
        return v


def _stage_complex(stage, theory, top):
    if isinstance(theory, Theory):
        return singular_chain_complex(stage, theory, top)
    if theory in ("complex-vr", "complex-cech"):
        # degrees up to top read only the simplices of top + 1 points
        K = _skeleton(stage, theory.removeprefix("complex-"), top + 1)
        return complex_chain_complex(K, top=top)
    raise BadParameter(f"unknown theory {theory!r}")


def _inclusion_matrix(C_src, B_src, C_tgt, B_tgt, degree):
    """The matrix, in the bases B_src and B_tgt, of the map on homology
    in the given degree that C_src's points (its 0-cells) induce by
    inclusion into C_tgt; ShapeMismatch if a point is missing there."""
    mapping = {b[0]: b[0] for b in C_src.basis.get(0, [])}
    for x in mapping:
        if (x,) not in C_tgt.index.get(0, {}):
            raise ShapeMismatch(f"point {x!r} is not included downstream")
    return induced_map_between(C_src, C_tgt, mapping, degree,
                               src_basis=B_src, tgt_basis=B_tgt).matrix


def persistence_tower(F: FilteredClosureSpace, theory, degree: int,
                      coefficients: str = "f2", grid=None) -> Tower:
    """Tower of degree-n homology along the filtration grid.

    theory is a singular Theory or one of "complex-vr", "complex-cech"
    for the simplicial-complex pipelines.
    """
    field = _field_from_spec(coefficients)
    grid = tuple(F.grid if grid is None else grid)
    complexes = [_stage_complex(F.stage_at(t), theory, degree + 1)
                 for t in grid]
    bases = [homology_basis(C, degree, coefficients) for C in complexes]
    maps = [_inclusion_matrix(complexes[i], bases[i], complexes[i + 1],
                              bases[i + 1], degree)
            for i in range(len(grid) - 1)]
    return Tower(grid, [b.dimension for b in bases], maps, field, degree,
                 complexes=complexes, bases=bases)


def tower_to_diagram(T: Tower) -> PersistenceDiagram:
    """Bars of the tower from one sweep along the grid (the elder rule).

    The live classes, oldest first, hold their birth index and a vector
    in the current stage, and form a basis of it.  At each stage their
    images are added in birth order to a fresh reducer: an image that
    empties lies in the span of older classes, so its class dies there;
    the others stay live.  The unit vectors that do not empty after them
    are the classes born at that stage.  See Zomorodian and Carlsson,
    "Computing persistent homology" (2005).
    """
    F = T.field
    one = F.of(1)
    k = len(T.grid)
    bars = []
    live = []  # (birth index, sparse vector in the current stage)
    for j in range(k):
        reducer = FieldReducer(F)
        survivors = []
        for b, v in live:
            w = _image(F, T.maps[j - 1], v)
            if reducer.add(w)[0]:
                survivors.append((b, w))
            else:
                bars.append((b, j))
        for r in range(T.dims[j]):
            if reducer.add({r: one})[0]:
                survivors.append((j, {r: one}))
        live = survivors
    bars += [(b, k) for b, _ in live]
    ends = T.grid + (None,)
    # one tuple per distinct bar, shared by its copies
    pair = {bd: (ends[bd[0]], ends[bd[1]]) for bd in bars}
    return PersistenceDiagram(
        T.degree, tuple(pair[bd] for bd in sorted(bars)))


# ---------------------------------------------------------------------------
# bottleneck distance

def _augment(adj, match_right, root):
    """Extend the matching along an augmenting path from root, if any.

    Depth-first over alternating paths with an explicit stack: path
    holds the left vertices of the current path, via[i] the right vertex
    joining path[i] to path[i + 1].
    """
    seen = set()
    path, via, todo = [root], [], [iter(adj[root])]
    while todo:
        for v in todo[-1]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] == -1:
                for u, w in zip(path, via + [v]):
                    match_right[w] = u
                return True
            path.append(match_right[v])
            via.append(v)
            todo.append(iter(adj[match_right[v]]))
            break
        else:
            todo.pop()
            path.pop()
            if via:
                via.pop()
    return False


def _bipartite_feasible(dist, ranked, half1, half2, eps):
    """Perfect matching of bars and diagonal copies within eps; ranked[i]
    holds the bars2 indices sorted by their distance from bar i."""
    n1, n2 = len(half1), len(half2)
    size = n1 + n2
    # left: bars1 then the diagonal copies of bars2; right: bars2 then
    # the diagonal copies of bars1
    adj = [near[:bisect_right(near, eps, key=row.__getitem__)]
           + ([n2 + i] if half1[i] <= eps else [])
           for i, (row, near) in enumerate(zip(dist, ranked))]
    copies1 = list(range(n2, size))
    adj += [([j] if half2[j] <= eps else []) + copies1 for j in range(n2)]
    match_right = [-1] * size
    # the diagonal copies of bars1 are interchangeable, and a matched
    # right vertex stays matched, so one cursor hands out the free ones
    cursor = n2
    for u in range(size):
        # take a free neighbour first; the search only runs when none is left
        if u < n1:
            v = next((v for v in adj[u] if match_right[v] == -1), None)
        elif half2[u - n1] <= eps and match_right[u - n1] == -1:
            v = u - n1
        else:
            while cursor < size and match_right[cursor] != -1:
                cursor += 1
            v = cursor if cursor < size else None
        if v is not None:
            match_right[v] = u
        elif not _augment(adj, match_right, u):
            return False
    return True


def _least_feasible(cands, feasible):
    """The least of the sorted candidates passing feasible, by bisection;
    feasibility must hold at the largest and persist upward."""
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def bottleneck(D1: PersistenceDiagram, D2: PersistenceDiagram):
    """Bottleneck distance between two diagrams of the same degree.

    The distance is the least candidate eps (zero, a bar's half length
    or an L-infinity distance between two bars) admitting a perfect
    matching; feasibility grows with eps, so the sorted candidates are
    binary-searched.  Endpoints are scaled by a common denominator so
    the search compares integers.
    """
    if D1.degree != D2.degree:
        raise BadParameter("bottleneck compares diagrams of one degree")
    inf1 = sorted(b for b, d in D1.pairs if d is None)
    inf2 = sorted(b for b, d in D2.pairs if d is None)
    if len(inf1) != len(inf2):
        raise InfinityMismatch(
            f"{len(inf1)} vs {len(inf2)} infinite bars cannot be matched")
    inf_cost = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0)
    finite = [[(Fraction(b), Fraction(d)) for b, d in D.pairs if d is not None]
              for D in (D1, D2)]
    if not any(finite):
        return inf_cost
    # a common denominator, doubled so that half lengths are integers too
    scale = 2 * math.lcm(*(v.denominator for bars in finite
                           for bar in bars for v in bar))
    bars1, bars2 = ([(int(b * scale), int(d * scale)) for b, d in bars]
                    for bars in finite)
    half1 = [(d - b) // 2 for b, d in bars1]
    half2 = [(d - b) // 2 for b, d in bars2]
    dist = [[max(abs(b - b2), abs(d - d2)) for b2, d2 in bars2]
            for b, d in bars1]
    ranked = [sorted(range(len(bars2)), key=row.__getitem__) for row in dist]
    cands = sorted({0, *half1, *half2, *(x for row in dist for x in row)})
    least = _least_feasible(
        cands,
        lambda eps: _bipartite_feasible(dist, ranked, half1, half2, eps))
    return max(inf_cost, Fraction(least, scale))


# ---------------------------------------------------------------------------
# correspondences, distortion, Gromov-Hausdorff

def check_correspondence(C, FX: FilteredClosureSpace,
                         FY: FilteredClosureSpace):
    """Validate a relation as surjective both ways on the total point sets."""
    X = set(FX.points)
    Y = set(FY.points)
    rel = set()
    for pair in C:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise NotACorrespondence(f"bad pair {pair!r}")
        x, y = pair
        if x not in X or y not in Y:
            raise NotACorrespondence(f"pair {pair!r} leaves the point sets")
        rel.add(pair)
    if {x for x, _ in rel} != X or {y for _, y in rel} != Y:
        raise NotACorrespondence("relation must be surjective both ways")
    return rel


def _pair_term(FX, FY, xs, ys):
    """Least eps the tuple demands, in both transfer directions.

    xs = (x, x') and ys = (y, y') are compared by the grid values at
    which x' enters the closure of x and y' that of y.
    """
    a = FX.births[xs[0]].get(xs[1])
    b = FY.births[ys[0]].get(ys[1])
    if a is None or b is None:
        return 0 if a is None and b is None else INF
    a, b = FX.grid[a], FY.grid[b]
    return max(0, b - a, a - b)


def distortion(C, FX: FilteredClosureSpace, FY: FilteredClosureSpace):
    """Least eps making C and its transpose eps-compatible with the filtrations.

    For every (x,y), (x',y') in C the level at which x' enters the
    closure of x may precede the level for y', y by at most eps, and
    symmetrically.  Singleton appearance levels are the diagonal case.
    """
    rel = sorted(check_correspondence(C, FX, FY), key=repr)
    worst = 0
    for (x, y) in rel:
        for (x2, y2) in rel:
            term = _pair_term(FX, FY, (x, x2), (y, y2))
            if term == INF:
                return INF
            worst = max(worst, term)
    return worst


def gh_distance(FX: FilteredClosureSpace, FY: FilteredClosureSpace,
                cap: int = DEFAULT_GH_CAP):
    """Half the minimum distortion over all correspondences.

    Every correspondence contains the graph of a map X -> Y and the
    transposed graph of a map Y -> X, whose union is a correspondence of
    no larger distortion (Kalton and Ostrovskii, 1999).  So distortion
    eps is feasible iff each x can take a pair (x, .) and each y a pair
    (., y) with all pairs taken, each with itself too, eps-compatible
    both ways.  The least feasible pair term is found by bisection; the
    problem is NP-hard, hence the cap.
    """
    X = list(FX.points)
    Y = list(FY.points)
    if len(X) > cap or len(Y) > cap:
        raise CapExceeded(f"gh_distance caps both sizes at {cap}")
    if not X or not Y:
        return 0 if not X and not Y else INF
    nx, ny = len(X), len(Y)
    pairs = [(x, y) for x in X for y in Y]  # (X[i], Y[j]) at i * ny + j
    terms = [[max(_pair_term(FX, FY, (x, x2), (y, y2)),
                  _pair_term(FX, FY, (x2, x), (y2, y)))
              for x2, y2 in pairs] for x, y in pairs]
    rows = [((1 << ny) - 1) << i * ny for i in range(nx)]
    cols = [sum(1 << i * ny + j for i in range(nx)) for j in range(ny)]
    # x_0, y_0, x_1, y_1, ...: interleaved, the search prunes sooner
    domains = dict(enumerate(m for both in zip_longest(rows, cols)
                             for m in both if m is not None))
    # every pair of variables once, loops included; compatibility is symmetric
    src = [list(range(a, nx + ny)) for a in range(nx + ny)]

    def feasible(eps):
        compatible = [sum(1 << q for q, t in enumerate(row) if t <= eps)
                      for row in terms]
        return next(homomorphisms(src, (compatible, compatible), domains),
                    None) is not None

    cands = sorted({t for row in terms for t in row})
    return _least_feasible(cands, feasible) / Fraction(2)


# ---------------------------------------------------------------------------
# interleaving verification

def _check_towers(M: Tower, N: Tower):
    """Refuse two towers that do not share a grid, a degree and a field."""
    if M.grid != N.grid:
        raise ShapeMismatch("towers must be given on a merged grid")
    if M.degree != N.degree:
        raise ShapeMismatch("towers must share a homology degree")
    if M.field != N.field:
        raise ShapeMismatch("towers must share a coefficient field")


def verify_interleaving(M: Tower, N: Tower, eps, phi, psi) -> bool:
    """Check the four interleaving identities on the common grid.

    M and N must share one grid, degree and field; phi[i] maps M at
    grid[i] into N at grid[i]+eps, psi[i] the other way.  Checks the two
    triangle identities and naturality of both families on each stage's
    unit vectors.
    """
    _check_towers(M, N)
    F = M.field
    grid = M.grid
    k = len(grid)
    if len(phi) != k or len(psi) != k:
        raise ShapeMismatch("need one phi and one psi per grid value")
    shift = [N.index_at(t + eps) for t in grid]
    for i in range(k):
        j = shift[i]
        if j is None:
            raise ShapeMismatch("eps shifts below the grid")
        if len(phi[i]) != N.dims[j] or any(len(r) != M.dims[i] for r in phi[i]):
            raise ShapeMismatch(f"phi[{i}] has the wrong shape")
        if len(psi[i]) != M.dims[j] or any(len(r) != N.dims[i] for r in psi[i]):
            raise ShapeMismatch(f"psi[{i}] has the wrong shape")
    for A, B, f, g in ((M, N, phi, psi), (N, M, psi, phi)):
        for i in range(k):
            j = shift[i]
            two = A.index_at(grid[i] + 2 * eps)
            for e in ({r: F.of(1)} for r in range(A.dims[i])):
                # triangle: across and back equals the 2*eps structure
                # map, once both are pushed to level t + 2*eps
                there = _image(F, f[i], e)
                if (A.push(shift[j], two, _image(F, g[j], there))
                        != A.push(i, two, e)):
                    return False
                # naturality square up to the next grid value
                if i + 1 < k and (_image(F, f[i + 1], A.push(i, i + 1, e))
                                  != B.push(j, shift[i + 1], there)):
                    return False
    return True


def inclusion_interleaving_maps(A: Tower, B: Tower, eps):
    """phi matrices A -> B induced by stage-wise point inclusions.

    Both towers must share one merged grid, degree and field and come
    from persistence_tower so their complexes and bases are available.
    """
    _check_towers(A, B)
    if A._complexes is None or B._complexes is None:
        raise ShapeMismatch("towers lack stage data for building inclusions")
    out = []
    for i, t in enumerate(A.grid):
        j = B.index_at(t + eps)
        if j is None:
            raise ShapeMismatch("eps shifts below the grid")
        out.append(_inclusion_matrix(A._complexes[i], A._bases[i],
                                     B._complexes[j], B._bases[j], A.degree))
    return out
