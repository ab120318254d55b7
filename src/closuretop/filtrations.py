"""Metric-induced closures and filtered closure spaces.

A filtered closure space is a finite ascending grid of critical values
and closure spaces over it whose point sets and singleton closures both
grow along the grid.  It is stored as a table of pair births, the first
grid index at which y lies in the closure of x (x's own birth for
y = x), filled straight from a metric, a weighted digraph or a sublevel
function; stages are built from the table only on demand.  Values read
from files are kept as exact fractions so grid arithmetic stays exact.
"""
from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import sub

from .errors import BadParameter, MissingPoint, NegativeEpsilon, ParseError
from .spaces import FiniteClosureSpace, refused

EMPTY_SPACE = FiniteClosureSpace([], {})


def parse_number(text):
    """Parse a decimal or rational literal into an exact Fraction."""
    t = text.strip()
    if t.isascii() and t.isdigit():
        return Fraction(int(t))
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a number: {text!r}") from exc


def _exact(v):
    """v as an exact number: ints and Fractions as they are."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


class FiniteMetric:
    """A finite (pseudo-)metric given by a symmetric distance matrix."""

    __slots__ = ("points", "dist")

    def __init__(self, points, dist, pseudo: bool = False):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise BadParameter("duplicate point ids")
        d = {}
        for x in pts:
            for y in pts:
                if (x, y) not in dist:
                    raise BadParameter(f"no distance for {(x, y)!r}")
                d[(x, y)] = dist[(x, y)]
        # exact integer rows: each distance times the lcm of the denominators
        try:
            exact = [[_exact(d[(x, y)]) for y in pts] for x in pts]
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadParameter(f"distances must be finite numbers: {exc}") from exc
        scale = math.lcm(*(v.denominator for row in exact for v in row))
        rows = [[v.numerator * (scale // v.denominator) for v in row]
                for row in exact]
        for i, x in enumerate(pts):
            row = rows[i]
            if row[i] != 0:
                raise BadParameter(f"nonzero self distance at {x!r}")
            for j, y in enumerate(pts):
                dxy = row[j]
                if dxy < 0:
                    raise BadParameter("negative distance")
                if dxy != rows[j][i]:
                    raise BadParameter(f"asymmetric distance at {(x, y)!r}")
                if not pseudo and i != j and dxy == 0:
                    raise BadParameter(f"zero distance between distinct points {(x, y)!r}")
                # d(x, z) <= d(x, y) + d(y, z) for every z
                if max(map(sub, row, rows[j])) > dxy:
                    k = next(k for k, (a, b) in enumerate(zip(row, rows[j]))
                             if a - b > dxy)
                    raise BadParameter(f"triangle inequality fails at {(x, y, pts[k])!r}")
        self.points = pts
        self.dist = d

    def d(self, x, y):
        if (x, y) not in self.dist:
            raise MissingPoint(f"{(x, y)!r} not in this metric space")
        return self.dist[(x, y)]


def metric_from_matrix(labels, matrix, pseudo: bool = False) -> FiniteMetric:
    """Build a FiniteMetric from a square matrix (list of rows)."""
    labels = list(labels)
    dist = {(labels[i], labels[j]): matrix[i][j]
            for i in range(len(labels)) for j in range(len(labels))}
    return FiniteMetric(labels, dist, pseudo=pseudo)


class Decoration(Enum):
    """Ball convention for the closure a metric induces at one scale."""

    MINUS = "minus"    # open balls (with the center always included)
    CLOSED = "closed"  # closed balls
    PLUS = "plus"      # dist(y, {x}) <= eps; equals CLOSED on finite metrics


def metric_closure(M: FiniteMetric, eps, dec: Decoration = Decoration.CLOSED) -> FiniteClosureSpace:
    """Closure space on M's points at scale eps under the given decoration.

    PLUS is an alias of CLOSED here: on a finite metric the infimum of
    the distance to a singleton is attained.
    """
    if eps < 0:
        raise NegativeEpsilon("eps must be nonnegative")
    cmap = {}
    for x in M.points:
        if dec is Decoration.MINUS:
            cl = {y for y in M.points if M.dist[(x, y)] < eps} | {x}
        else:
            cl = {y for y in M.points if M.dist[(x, y)] <= eps}
        cmap[x] = frozenset(cl)
    return FiniteClosureSpace(M.points, cmap)


class FilteredClosureSpace:
    """A right-continuous step function of closure spaces over a finite grid.

    Stored as a table of pair births: for each point x of the final
    stage, births[x] maps every y that ever enters the closure of x to
    the first grid index at which it does, and births[x][x] is the
    index at which x itself appears.  Stages are built from the table
    on demand and cached; the table is read-only by convention.

    The constructor takes the grid and one closure space per grid
    value, checks that point sets and closures are nested, converts
    them to the table and caches the given stages.
    """

    __slots__ = ("grid", "points", "births", "_stages")

    def __init__(self, grid, stages):
        grid = tuple(grid)
        stages = tuple(stages)
        if len(grid) != len(stages) or not grid:
            raise BadParameter("grid and stages must be nonempty and aligned")
        for a, b in zip(grid, grid[1:]):
            if not a < b:
                raise BadParameter("grid must be strictly increasing")
        for A, B in zip(stages, stages[1:]):
            if not A.point_set() <= B.point_set():
                raise BadParameter("stage point sets must be nested")
            for x in A.points:
                if not A.closure_map[x] <= B.closure_map[x]:
                    raise BadParameter("stage closures must be nested")
        births = {x: {} for x in stages[-1].points}
        for i, stage in enumerate(stages):
            for x in stage.points:
                row = births[x]
                for y in stage.closure_map[x]:
                    row.setdefault(y, i)
        self.grid = grid
        self.points = stages[-1].points
        self.births = births
        self._stages = dict(enumerate(stages))

    @classmethod
    def _from_births(cls, grid, points, births) -> "FilteredClosureSpace":
        """Filtration from a table the caller has built consistent: a
        strictly increasing grid, one row per point holding its own
        birth, and births[x][y] >= max(births[x][x], births[y][y])."""
        if not grid:
            raise BadParameter("grid must be nonempty")
        F = cls.__new__(cls)
        F.grid = tuple(grid)
        F.points = tuple(points)
        F.births = births
        F._stages = {}
        return F

    def stage(self, i) -> FiniteClosureSpace:
        """The closure space at grid index i, built once and cached."""
        if i not in self._stages:
            if not 0 <= i < len(self.grid):
                raise IndexError(f"no stage {i!r} on a grid of {len(self.grid)}")
            rows = self.births
            pts = [x for x in self.points if rows[x][x] <= i]
            cmap = {x: [y for y, b in rows[x].items() if b <= i] for x in pts}
            self._stages[i] = FiniteClosureSpace(pts, cmap)
        return self._stages[i]

    @property
    def stages(self):
        """Every stage, in grid order; builds those not built yet."""
        return tuple(self.stage(i) for i in range(len(self.grid)))

    def stage_at(self, t) -> FiniteClosureSpace:
        """Stage at the largest grid value <= t; the empty space below the grid."""
        i = bisect_right(self.grid, t) - 1
        return self.stage(i) if i >= 0 else EMPTY_SPACE

    def final_stage(self) -> FiniteClosureSpace:
        return self.stage(len(self.grid) - 1)

    def __eq__(self, other):
        if not isinstance(other, FilteredClosureSpace):
            return NotImplemented
        # births has one row per point, so this compares the point sets too
        return self.grid == other.grid and self.births == other.births

    def __repr__(self):
        return f"FilteredClosureSpace(grid={self.grid!r}, {len(self.grid)} stages)"


def stage_at(F: FilteredClosureSpace, t) -> FiniteClosureSpace:
    return F.stage_at(t)


def _ratio(v):
    """v.as_integer_ratio(): equal for equal finite numbers of any type,
    and hashed without Fraction.__hash__, which is slow."""
    try:
        return v.as_integer_ratio()
    except AttributeError:  # rationals without the method, as numpy ints
        return Fraction(v).as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite weight keys as itself
        return v


def _grid_index(values):
    """The sorted distinct values with 0 added, the first of equal values
    standing for them as in a set, and {_ratio(t): index} on that grid."""
    first = {}
    for v in values:
        first.setdefault(_ratio(v), v)
    first.setdefault((0, 1), Fraction(0))
    grid = sorted(first.values())
    return grid, {_ratio(t): i for i, t in enumerate(grid)}


def filtered_from_metric(M: FiniteMetric) -> FilteredClosureSpace:
    """Filtration of closed balls over the grid of pairwise distances
    (with 0 prepended).

    One sort of the distances gives the grid, and y enters the closure
    of x at the index of d(x, y).  Every point is born at 0.  There is
    no table of strict balls: they differ from closed ones only at grid
    values, and a right-continuous stage function cannot hold them there.
    """
    grid, index = _grid_index(M.dist.values())
    births = {x: {x: 0} for x in M.points}
    for (x, y), v in M.dist.items():
        if x != y:
            births[x][y] = index[_ratio(v)]
    return FilteredClosureSpace._from_births(grid, M.points, births)


class WeightedDigraph:
    """Points, loop-free directed edges, and nonnegative edge weights."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise BadParameter("duplicate point ids")
        pset = set(pts)
        w = {}
        for (a, b), v in dict(weights).items():
            if a not in pset or b not in pset:
                raise MissingPoint(f"edge {(a, b)!r} uses unknown points")
            if a == b:
                raise BadParameter(f"self-loop at {a!r}")
            if v < 0:
                raise BadParameter("negative weight")
            w[(a, b)] = v
        self.points = pts
        self.weights = w


def filtered_from_weighted_digraph(G: WeightedDigraph) -> FilteredClosureSpace:
    """Stage t keeps the edges of weight at most t (plus all loops).

    Every point is born at 0 and an edge at the index of its weight.
    """
    grid, index = _grid_index(G.weights.values())
    births = {x: {x: 0} for x in G.points}
    for (x, y), v in G.weights.items():
        births[x][y] = index[_ratio(v)]
    return FilteredClosureSpace._from_births(grid, G.points, births)


def filtered_from_sublevel(X: FiniteClosureSpace, f) -> FilteredClosureSpace:
    """Sublevel filtration of f with the subspace closures of X.

    A point is born at the index of its value, and y enters the closure
    of x, when y is in X's closure of x, once both points are present.
    """
    for x in X.points:
        if x not in f:
            raise MissingPoint(f"no function value for {x!r}")
    grid = sorted(set(f[x] for x in X.points))
    index = {t: i for i, t in enumerate(grid)}
    born = {x: index[f[x]] for x in X.points}
    births = {x: {y: max(born[x], born[y]) for y in X.closure_map[x]}
              for x in X.points}
    return FilteredClosureSpace._from_births(grid, X.points, births)


# ---------------------------------------------------------------------------
# product metrics, used by the product-law checks

def linf_product(MX: FiniteMetric, MY: FiniteMetric) -> FiniteMetric:
    """Sup metric on the product point set (pairs)."""
    pts = [(x, y) for x in MX.points for y in MY.points]
    dist = {((x1, y1), (x2, y2)): max(MX.dist[(x1, x2)], MY.dist[(y1, y2)])
            for (x1, y1) in pts for (x2, y2) in pts}
    return FiniteMetric(pts, dist, pseudo=True)


def l1_product(MX: FiniteMetric, MY: FiniteMetric) -> FiniteMetric:
    """Sum metric on the product point set (pairs)."""
    pts = [(x, y) for x in MX.points for y in MY.points]
    dist = {((x1, y1), (x2, y2)): MX.dist[(x1, x2)] + MY.dist[(y1, y2)]
            for (x1, y1) in pts for (x2, y2) in pts}
    return FiniteMetric(pts, dist, pseudo=True)


# ---------------------------------------------------------------------------
# file formats

def metric_from_csv(text: str, pseudo: bool = False) -> FiniteMetric:
    """Square distance matrix as CSV; a header row of labels is optional."""
    rows = [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
    if not rows:
        raise ParseError("empty distance matrix")
    labels = None
    try:
        matrix = [[parse_number(c) for c in rows[0]]]
    except ParseError:
        labels = [c.strip() for c in rows[0]]
        matrix = []
    matrix += [[parse_number(c) for c in row] for row in rows[1:]]
    if not matrix:
        raise ParseError("distance matrix has a header but no rows")
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ParseError("distance matrix must be square")
    if labels is None:
        labels = [str(i) for i in range(n)]
    if len(labels) != n:
        raise ParseError("header length does not match the matrix size")
    return refused("metric", metric_from_matrix, labels, matrix, pseudo)


def digraph_from_text(text: str) -> WeightedDigraph:
    """Weighted digraph as lines "src dst weight"."""
    weights = {}
    points = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'src dst weight'")
        a, b, w = parts[0], parts[1], parse_number(parts[2])
        for p in (a, b):
            if p not in seen:
                seen.add(p)
                points.append(p)
        if (a, b) in weights:
            raise ParseError(f"line {lineno}: duplicate edge {(a, b)!r}")
        weights[(a, b)] = w
    if not points:
        raise ParseError("empty digraph file")
    return refused("digraph", WeightedDigraph, points, weights)


def sublevel_from_csv(text: str) -> dict:
    """Sublevel function as CSV lines "point,value"; keys are strings."""
    rows = [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
    if not rows:
        raise ParseError("empty function file")
    f = {}
    for row in rows:
        if len(row) != 2:
            raise ParseError(f"expected 'point,value', got {row!r}")
        name = row[0].strip()
        if name in f:
            raise ParseError(f"duplicate point {name!r}")
        f[name] = parse_number(row[1])
    return f
