"""Persistence of filtered closure spaces.

Diagrams come from two routes: column reduction of a filtered
simplicial complex, and rank counting on a tower of stage homology
groups with inclusion-induced maps.  The module also provides the
bottleneck distance, correspondence distortion with the derived
Gromov-Hausdorff distance, and interleaving verification.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._linalg import PrimeField, RationalField, field_kernel
from .complexes import cech, cliques, vr
from .errors import (BadParameter, CapExceeded, InfinityMismatch,
                     NotACorrespondence, ParseError, ShapeMismatch)
from .filtrations import FilteredClosureSpace
from .homology import (ChainComplex, Theory, complex_chain_complex,
                       homology_basis, induced_map_between,
                       parse_coefficients, singular_chain_complex)

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

    No stage complex is built.  One scan of the stages reads, for every
    pair (x, y), the first stage at which y is in the closure of x; the
    births are stage indices until the grid values go into the output.
    A vertex x is born at (x, x).  A VR simplex is a clique of mutually
    close points, born at the latest of its edges' births, each edge
    born when both directions are present; cliques are enumerated only
    up to the vertex cap.  A Cech simplex is born at the earliest stage
    at which it lies in the closure of some point x, so its birth is the
    minimum over centres x of the latest (x, y) birth over its points y;
    only subsets within the vertex cap of each final closure are visited.
    """
    if construction not in ("vr", "cech"):
        raise BadParameter(f"unknown construction {construction!r}")
    stage_of = {t: i for i, t in enumerate(F.grid)}
    points = sorted(F.final_stage().points, key=repr)
    at = {x: i for i, x in enumerate(points)}
    # rows[i][j]: first stage index with points[j] in the closure of points[i]
    rows = [{} for _ in points]
    for (x, y), t in _first_relation(F).items():
        rows[at[x]][at[y]] = stage_of[t]
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
    n = len(simplices)
    columns = []
    for _, s in simplices:
        col = {}
        if len(s) > 1:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                col[index[face]] = field.of((-1) ** i)
        columns.append(col)
    lows = {}
    pairs = {d: [] for d in range(max_dim + 1)}
    unpaired = set()
    for j in range(n):
        col = columns[j]
        while col:
            low = max(col)
            if low not in lows:
                break
            j2 = lows[low]
            factor = field.mul(col[low], field.inv(columns[j2][low]))
            for r, c in columns[j2].items():
                v = field.sub(col.get(r, field.zero), field.mul(factor, c))
                if v == field.zero:
                    col.pop(r, None)
                else:
                    col[r] = v
        if col:
            low = max(col)
            lows[low] = j
            unpaired.discard(low)
            birth = simplices[low][0]
            death = simplices[j][0]
            deg = len(simplices[low][1]) - 1
            if birth != death and deg <= max_dim:
                pairs[deg].append((birth, death))
        else:
            unpaired.add(j)
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


def _mat_rank(F, A):
    rows = len(A)
    cols = len(A[0]) if rows else 0
    col_vecs = [[F.of(A[i][j]) if not isinstance(A[i][j], Fraction)
                 else A[i][j] for i in range(rows)] for j in range(cols)]
    return cols - len(field_kernel(F, rows, col_vecs))


def _mat_eq(F, A, B):
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        if any(a != b for a, b in zip(ra, rb)):
            return False
    return True


class Tower:
    """Stage homology dimensions and the maps between consecutive stages."""

    __slots__ = ("grid", "dims", "maps", "field", "degree",
                 "_complexes", "_bases", "_theory")

    def __init__(self, grid, dims, maps, field, degree,
                 complexes=None, bases=None, theory=None):
        grid = tuple(grid)
        if len(dims) != len(grid) or len(maps) != len(grid) - 1:
            raise ShapeMismatch("tower pieces do not align with the grid")
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
        out = None
        for i, v in enumerate(self.grid):
            if v <= t:
                out = i
        return out

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

    def rank_between(self, i: int, j: int) -> int:
        return _mat_rank(self.field, self.map_between(i, j))


def _stage_complex(stage, theory, top):
    if isinstance(theory, Theory):
        return singular_chain_complex(stage, theory, top)
    if theory in ("complex-vr", "complex-cech"):
        if not stage.points:
            return ChainComplex({0: []}, {}, top)
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
    """Bars from the rank function of the tower (inclusion-exclusion)."""
    k = len(T.grid)
    r = [[0] * k for _ in range(k)]
    for i in range(k):
        r[i][i] = T.dims[i]
        acc = _mat_identity(T.field, T.dims[i])
        for j in range(i + 1, k):
            acc = _mat_mul(T.field, T.maps[j - 1], acc)
            r[i][j] = _mat_rank(T.field, acc)

    def rr(i, j):
        return 0 if i < 0 else r[i][j]

    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            m = rr(i, j - 1) - rr(i, j) - rr(i - 1, j - 1) + rr(i - 1, j)
            pairs.extend([(T.grid[i], T.grid[j])] * m)
        m = rr(i, k - 1) - rr(i - 1, k - 1)
        pairs.extend([(T.grid[i], None)] * m)
    return PersistenceDiagram(T.degree, tuple(pairs))


# ---------------------------------------------------------------------------
# bottleneck distance

def _linf(b1, b2):
    return max(abs(b1[0] - b2[0]), abs(b1[1] - b2[1]))


def _bipartite_feasible(n1, n2, allowed12, diag1, diag2):
    """Perfect matching of size n1+n2 in the diagonal-augmented graph."""
    size = n1 + n2
    adj = [[] for _ in range(size)]  # left = bars1 then virtual diagonals
    for i in range(n1):
        adj[i] = [j for j in range(n2) if allowed12[i][j]]
        if diag1[i]:
            adj[i].append(n2 + i)
    for j2 in range(n2):
        left = n1 + j2
        adj[left] = ([j2] if diag2[j2] else []) + list(range(n2, size))
    match_right = [-1] * size

    def augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    matched = 0
    for u in range(size):
        if augment(u, set()):
            matched += 1
    return matched == size


def bottleneck(D1: PersistenceDiagram, D2: PersistenceDiagram):
    """Bottleneck distance between two diagrams of the same degree."""
    if D1.degree != D2.degree:
        raise BadParameter("bottleneck compares diagrams of one degree")
    inf1 = sorted(b for b, d in D1.pairs if d is None)
    inf2 = sorted(b for b, d in D2.pairs if d is None)
    if len(inf1) != len(inf2):
        raise InfinityMismatch(
            f"{len(inf1)} vs {len(inf2)} infinite bars cannot be matched")
    inf_cost = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0)
    bars1 = [bd for bd in D1.pairs if bd[1] is not None]
    bars2 = [bd for bd in D2.pairs if bd[1] is not None]
    n1, n2 = len(bars1), len(bars2)
    if n1 == 0 and n2 == 0:
        return inf_cost
    half1 = [(d - b) / 2 for b, d in bars1]
    half2 = [(d - b) / 2 for b, d in bars2]
    cands = {Fraction(0)}
    cands.update(Fraction(h) for h in half1 + half2)
    cands.update(Fraction(_linf(p, q)) for p in bars1 for q in bars2)
    feasible = []
    for eps in sorted(cands):
        allowed = [[_linf(p, q) <= eps for q in bars2] for p in bars1]
        diag1 = [h <= eps for h in half1]
        diag2 = [h <= eps for h in half2]
        if _bipartite_feasible(n1, n2, allowed, diag1, diag2):
            feasible.append(eps)
            break
    return max(inf_cost, feasible[0])


# ---------------------------------------------------------------------------
# correspondences, distortion, Gromov-Hausdorff

def check_correspondence(C, FX: FilteredClosureSpace,
                         FY: FilteredClosureSpace):
    """Validate a relation as surjective both ways on the total point sets."""
    X = set(FX.final_stage().points)
    Y = set(FY.final_stage().points)
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


def _first_relation(F: FilteredClosureSpace):
    """(x, x') -> first grid value with x' in the closure of x; missing = never."""
    out = {}
    for t, stage in zip(F.grid, F.stages):
        for x in stage.points:
            for x2 in stage.closure_map[x]:
                out.setdefault((x, x2), t)
    return out


def _pair_term(firstX, firstY, xs, ys):
    """Least eps the tuple demands, in both transfer directions."""
    a = firstX.get(xs)
    b = firstY.get(ys)
    worst = 0
    if a is not None:
        if b is None:
            return INF
        worst = max(worst, b - a)
    if b is not None:
        if a is None:
            return INF
        worst = max(worst, a - b)
    return worst


def distortion(C, FX: FilteredClosureSpace, FY: FilteredClosureSpace):
    """Least eps making C and its transpose eps-compatible with the filtrations.

    For every (x,y), (x',y') in C the level at which x' enters the
    closure of x may precede the level for y', y by at most eps, and
    symmetrically.  Singleton appearance levels are the diagonal case.
    """
    rel = sorted(check_correspondence(C, FX, FY), key=repr)
    firstX = _first_relation(FX)
    firstY = _first_relation(FY)
    worst = 0
    for (x, y) in rel:
        for (x2, y2) in rel:
            term = _pair_term(firstX, firstY, (x, x2), (y, y2))
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
    X = list(FX.final_stage().points)
    Y = list(FY.final_stage().points)
    if len(X) > cap or len(Y) > cap:
        raise CapExceeded(f"gh_distance caps both sizes at {cap}")
    if not X or not Y:
        return 0 if not X and not Y else INF
    firstX = _first_relation(FX)
    firstY = _first_relation(FY)
    nx, ny = len(X), len(Y)
    pair_ids = [(i, j) for i in range(nx) for j in range(ny)]
    W = {}
    for p in pair_ids:
        for q in pair_ids:
            W[(p, q)] = _pair_term(firstX, firstY,
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
    return best[0] / 2 if best[0] not in (INF, 0) else best[0]


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
        if not _mat_eq(F, lhs, M.map_between(i, two)):
            return False
        lhs = _mat_mul(F, N.map_between(jj, two), _mat_mul(F, phi[j], psi[i]))
        if not _mat_eq(F, lhs, N.map_between(i, two)):
            return False
    for i in range(k - 1):
        # naturality squares between consecutive grid values
        lhs = _mat_mul(F, phi[i + 1], M.map_between(i, i + 1))
        rhs = _mat_mul(F, N.map_between(shift[i], shift[i + 1]), phi[i])
        if not _mat_eq(F, lhs, rhs):
            return False
        lhs = _mat_mul(F, psi[i + 1], N.map_between(i, i + 1))
        rhs = _mat_mul(F, M.map_between(shift[i], shift[i + 1]), psi[i])
        if not _mat_eq(F, lhs, rhs):
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
