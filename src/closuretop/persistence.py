"""Persistence of filtered closure spaces.

Diagrams come from two routes: column reduction of a filtered
simplicial complex, and one elder-rule sweep along a tower of stage
homology groups with inclusion-induced maps.  The module also provides
the bottleneck distance, correspondence distortion with the derived
Gromov-Hausdorff distance, and interleaving verification.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._linalg import FieldReducer, PrimeField, RationalField
from .complexes import cech, cliques, vr
from .errors import (BadParameter, CapExceeded, InfinityMismatch,
                     NotACorrespondence, ParseError, ShapeMismatch)
from .filtrations import FilteredClosureSpace
from .homology import (Theory, complex_chain_complex, homology_basis,
                       induced_map_between, parse_coefficients,
                       singular_chain_complex)

INF = math.inf


def _field_from_spec(coefficients):
    kind, p = parse_coefficients(coefficients)
    if kind == "z":
        raise BadParameter(
            "persistence needs field coefficients (q or f<p>)")
    return RationalField() if kind == "q" else PrimeField(p)


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


def _num_out(v):
    return float(v)


def _num_in(v):
    if isinstance(v, (int, float)):
        return Fraction(repr(float(v))) if isinstance(v, float) else Fraction(v)
    raise ParseError(f"not a number: {v!r}")


def diagram_to_json(D: PersistenceDiagram) -> str:
    pairs = [[_num_out(b), "inf" if d is None else _num_out(d)]
             for b, d in D.sorted_pairs()]
    return json.dumps({"degree": D.degree, "pairs": pairs})


def diagram_from_json(text: str) -> PersistenceDiagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad diagram JSON: {exc}") from exc
    if not isinstance(obj, dict) or "degree" not in obj or "pairs" not in obj:
        raise ParseError("diagram JSON needs 'degree' and 'pairs'")
    degree = obj["degree"]
    if not isinstance(degree, int) or degree < 0:
        raise ParseError("degree must be a nonnegative integer")
    pairs = []
    for item in obj["pairs"]:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"bad pair {item!r}")
        b = _num_in(item[0])
        d = None if item[1] == "inf" else _num_in(item[1])
        pairs.append((b, d))
    return PersistenceDiagram(degree, tuple(pairs))


def load_diagram(path) -> PersistenceDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return diagram_from_json(fh.read())


# ---------------------------------------------------------------------------
# route 1: filtered simplicial complex with column reduction

def filtered_simplices(F: FilteredClosureSpace, construction: str = "vr",
                       max_dim: int = 1):
    """Simplices of the final-stage complex with first-appearance values.

    Returns a list of (birth, simplex-as-sorted-tuple) restricted to
    simplices of at most max_dim + 2 vertices, since that is all the
    reduction in degrees up to max_dim can use.  The list is sorted by
    birth, then size, then the points' reprs.

    No stage complex is built.  The births are read from F's table of
    pair births, as grid indices until the grid values go into the
    output.  A vertex x is born at (x, x).  A VR simplex is a clique of
    mutually close points, born at the latest of its edges' births,
    each edge born when both directions are present; cliques are
    enumerated only up to the vertex cap.  A Cech simplex is born at the
    earliest stage at which it lies in the closure of some point x, so
    its birth is the minimum over centres x of the latest (x, y) birth
    over its points y; only subsets within the vertex cap of each final
    closure are visited.
    """
    if construction not in ("vr", "cech"):
        raise BadParameter(f"unknown construction {construction!r}")
    if max_dim < 0:
        raise BadParameter("max_dim must be nonnegative")
    points = sorted(F.points, key=repr)
    at = {x: i for i, x in enumerate(points)}
    # rows[i][j]: first stage index with points[j] in the closure of points[i]
    rows = [{at[y]: b for y, b in F.births[x].items()} for x in points]
    size = max_dim + 2
    births = {}
    if construction == "vr":
        later = [[j for j in sorted(row) if j > i and i in rows[j]]
                 for i, row in enumerate(rows)]
        for s in cliques(later, size):
            births[s] = (rows[s[0]][s[0]] if len(s) == 1 else
                         max(max(rows[i][j], rows[j][i])
                             for i, j in combinations(s, 2)))
    else:
        for row in rows:
            near = sorted(row)
            for r in range(1, size + 1):
                for s in combinations(near, r):
                    b = max(row[y] for y in s)
                    if s not in births or b < births[s]:
                        births[s] = b
    ordered = sorted(births.items(), key=lambda sb: (sb[1], len(sb[0]), sb[0]))
    return [(F.grid[b], tuple(points[i] for i in s)) for s, b in ordered]


def persistence_complex(F: FilteredClosureSpace, construction: str = "vr",
                        max_dim: int = 1, coefficients: str = "f2"):
    """Persistence diagrams per degree via boundary-matrix reduction."""
    field = _field_from_spec(coefficients)
    simplices = filtered_simplices(F, construction, max_dim)
    index = {s: i for i, (_, s) in enumerate(simplices)}
    reducer = FieldReducer(field)
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


# ---------------------------------------------------------------------------
# route 2: homology towers

def _mat_mul(F, A, B):
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = [[F.zero] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for t in range(inner):
            a = Ai[t]
            if a != F.zero:
                Bt = B[t]
                row = out[i]
                for j in range(cols):
                    row[j] = F.add(row[j], F.mul(a, Bt[j]))
    return out


def _mat_identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def _image(F, M, v):
    """The matrix M (a list of rows) applied to the sparse vector v."""
    out = {}
    for r, row in enumerate(M):
        c = F.zero
        for i, a in v.items():
            c = F.add(c, F.mul(row[i], a))
        if c:
            out[r] = c
    return out


class Tower:
    """Stage homology dimensions and the maps between consecutive stages."""

    __slots__ = ("grid", "dims", "maps", "field", "degree",
                 "_complexes", "_bases", "_theory")

    def __init__(self, grid, dims, maps, field, degree,
                 complexes=None, bases=None, theory=None):
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
        self._theory = theory

    def index_at(self, t):
        """Largest grid index with value <= t; None below the grid."""
        i = bisect_right(self.grid, t) - 1
        return None if i < 0 else i

    def dim_at(self, t) -> int:
        i = self.index_at(t)
        return 0 if i is None else self.dims[i]

    def map_between(self, i: int, j: int):
        """Composite matrix from stage index i to stage index j."""
        if not 0 <= i <= j < len(self.grid):
            raise ShapeMismatch(f"bad stage window ({i}, {j})")
        acc = _mat_identity(self.field, self.dims[i])
        for k in range(i, j):
            acc = _mat_mul(self.field, self.maps[k], acc)
        return acc


def _stage_complex(stage, theory, top):
    if isinstance(theory, Theory):
        return singular_chain_complex(stage, theory, top)
    if theory in ("complex-vr", "complex-cech"):
        K = vr(stage) if theory == "complex-vr" else cech(stage)
        return complex_chain_complex(K, top=top)
    raise BadParameter(f"unknown theory {theory!r}")


def persistence_tower(F: FilteredClosureSpace, theory, degree: int,
                      coefficients: str = "f2", grid=None) -> Tower:
    """Tower of degree-n homology along the filtration grid.

    theory is a singular Theory or one of "complex-vr", "complex-cech"
    for the simplicial-complex pipelines.
    """
    field = _field_from_spec(coefficients)
    grid = tuple(F.grid if grid is None else grid)
    stages = [F.stage_at(t) for t in grid]
    complexes = [_stage_complex(s, theory, degree + 1) for s in stages]
    bases = [homology_basis(C, degree, coefficients) for C in complexes]
    maps = []
    for i in range(len(grid) - 1):
        mapping = {x: x for x in stages[i].points}
        im = induced_map_between(
            complexes[i], complexes[i + 1], mapping, degree,
            coefficients=coefficients,
            theory=theory if isinstance(theory, Theory) else None,
            src_basis=bases[i], tgt_basis=bases[i + 1])
        maps.append(im.matrix)
    return Tower(grid, [b.dimension for b in bases], maps, field, degree,
                 complexes=complexes, bases=bases,
                 theory=theory if isinstance(theory, Theory) else None)


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
            if reducer.add({r: F.one})[0]:
                survivors.append((j, {r: F.one}))
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


def _bipartite_feasible(dist, half1, half2, eps):
    """Perfect matching of bars and diagonal copies within eps."""
    n1, n2 = len(half1), len(half2)
    size = n1 + n2
    # left: bars1 then the diagonal copies of bars2; right: bars2 then
    # the diagonal copies of bars1
    adj = [[j for j, d in enumerate(row) if d <= eps]
           + ([n2 + i] if half1[i] <= eps else [])
           for i, row in enumerate(dist)]
    copies1 = list(range(n2, size))
    adj += [([j] if half2[j] <= eps else []) + copies1 for j in range(n2)]
    match_right = [-1] * size
    for u in range(size):
        # take a free neighbour first; the search only runs when none is left
        v = next((v for v in adj[u] if match_right[v] == -1), None)
        if v is not None:
            match_right[v] = u
        elif not _augment(adj, match_right, u):
            return False
    return True


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
    cands = sorted({0, *half1, *half2, *(x for row in dist for x in row)})
    lo, hi = 0, len(cands) - 1  # the largest candidate is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if _bipartite_feasible(dist, half1, half2, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(inf_cost, Fraction(cands[lo], scale))


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
                cap: int = 4):
    """Half the minimum distortion over all correspondences.

    Exhaustive search with branch-and-bound over the per-point choice
    of image subsets; capped because the candidate count is exponential.
    """
    X = list(FX.points)
    Y = list(FY.points)
    if len(X) > cap or len(Y) > cap:
        raise CapExceeded(f"gh_distance caps both sizes at {cap}")
    if not X or not Y:
        return 0 if not X and not Y else INF
    nx, ny = len(X), len(Y)
    pair_ids = [(i, j) for i in range(nx) for j in range(ny)]
    W = {}
    for p in pair_ids:
        for q in pair_ids:
            W[(p, q)] = _pair_term(FX, FY,
                                   (X[p[0]], X[q[0]]), (Y[p[1]], Y[q[1]]))
    subsets = [s for s in range(1, 1 << ny)]
    best = [INF]
    full = (1 << ny) - 1

    def extend(i, chosen, covered, cur):
        if cur >= best[0]:
            return
        if i == nx:
            if covered == full:
                best[0] = cur
            return
        for s in subsets:
            new = [(i, j) for j in range(ny) if s >> j & 1]
            m = cur
            for p in new:
                for q in chosen + new:
                    m = max(m, W[(p, q)], W[(q, p)])
                    if m >= best[0]:
                        break
                else:
                    continue
                break
            if m < best[0]:
                extend(i + 1, chosen + new, covered | s, m)

    extend(0, [], 0, 0)
    return best[0] if best[0] == INF else best[0] / Fraction(2)


# ---------------------------------------------------------------------------
# interleaving verification

def verify_interleaving(M: Tower, N: Tower, eps, phi, psi) -> bool:
    """Check the four interleaving identities on the common grid.

    M and N must share one grid; phi[i] maps M at grid[i] into N at
    grid[i]+eps, psi[i] the other way.  Checks the two triangle
    identities and naturality of both families.
    """
    if M.grid != N.grid:
        raise ShapeMismatch("towers must be given on a merged grid")
    if M.field != N.field:
        raise ShapeMismatch("towers must share a coefficient field")
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
    for i in range(k):
        j = shift[i]
        jj = M.index_at(grid[j] + eps)
        two = M.index_at(grid[i] + 2 * eps)
        # triangles: going across and back equals the 2*eps structure map,
        # compared after pushing both composites to level t + 2*eps
        lhs = _mat_mul(F, M.map_between(jj, two), _mat_mul(F, psi[j], phi[i]))
        if lhs != M.map_between(i, two):
            return False
        lhs = _mat_mul(F, N.map_between(jj, two), _mat_mul(F, phi[j], psi[i]))
        if lhs != N.map_between(i, two):
            return False
    for i in range(k - 1):
        # naturality squares between consecutive grid values
        lhs = _mat_mul(F, phi[i + 1], M.map_between(i, i + 1))
        rhs = _mat_mul(F, N.map_between(shift[i], shift[i + 1]), phi[i])
        if lhs != rhs:
            return False
        lhs = _mat_mul(F, psi[i + 1], N.map_between(i, i + 1))
        rhs = _mat_mul(F, M.map_between(shift[i], shift[i + 1]), psi[i])
        if lhs != rhs:
            return False
    return True


def inclusion_interleaving_maps(A: Tower, B: Tower, eps):
    """phi matrices A -> B induced by stage-wise point inclusions.

    Both towers must live on the same merged grid and come from
    persistence_tower so their complexes and bases are available.
    """
    if A.grid != B.grid:
        raise ShapeMismatch("towers must be given on a merged grid")
    if A._complexes is None or B._complexes is None:
        raise ShapeMismatch("towers lack stage data for building inclusions")
    out = []
    for i, t in enumerate(A.grid):
        j = B.index_at(t + eps)
        if j is None:
            raise ShapeMismatch("eps shifts below the grid")
        C_src = A._complexes[i]
        C_tgt = B._complexes[j]
        mapping = {b[0]: b[0] for b in C_src.basis.get(0, [])}
        for x in mapping:
            if (x,) not in C_tgt.index.get(0, {}):
                raise ShapeMismatch(f"point {x!r} is not included downstream")
        coeffs = "q" if isinstance(A.field, RationalField) else f"f{A.field.p}"
        im = induced_map_between(C_src, C_tgt, mapping, A.degree,
                                 coefficients=coeffs, theory=A._theory,
                                 src_basis=A._bases[i], tgt_basis=B._bases[j])
        out.append(im.matrix)
    return out
