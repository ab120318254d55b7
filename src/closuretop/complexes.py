"""Hypergraphs, simplicial complexes, and the functors relating them to spaces.

Simplices and hyperedges are stored as frozensets inside a
deduplicated set; accessors return them sorted for reproducibility.
"""
from __future__ import annotations

from itertools import combinations

from .errors import BadParameter, MissingPoint, ParseError, SourceTargetMismatch
from .spaces import FiniteClosureSpace, is_symmetric

def _sorted_simplices(simplices):
    return sorted(simplices, key=lambda s: (len(s), sorted(s, key=repr)))


def _downward_closure(sets):
    """Every nonempty subset of each of the given sets, as frozensets."""
    out = set()
    for s in sets:
        for r in range(1, len(s) + 1):
            out.update(map(frozenset, combinations(s, r)))
    return out


class Hypergraph:
    """A point set together with a set of nonempty hyperedges."""

    __slots__ = ("points", "edges")

    def __init__(self, points, edges):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise BadParameter("duplicate point ids")
        pset = frozenset(pts)
        es = set()
        for e in edges:
            e = frozenset(e)
            if not e:
                raise BadParameter("hyperedges must be nonempty")
            if not e <= pset:
                raise MissingPoint(f"hyperedge {sorted(e, key=repr)} leaves the point set")
            es.add(e)
        self.points = pts
        self.edges = frozenset(es)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return frozenset(self.points) == frozenset(other.points) and self.edges == other.edges

    def __hash__(self):
        return hash((frozenset(self.points), self.edges))

    def is_downward_closed(self) -> bool:
        return all(frozenset(t) in self.edges
                   for e in self.edges
                   for r in range(1, len(e))
                   for t in combinations(e, r))

    def __repr__(self):
        return f"Hypergraph({len(self.points)} points, {len(self.edges)} edges)"


class SimplicialComplex:
    """A downward-closed hypergraph containing every singleton."""

    __slots__ = ("points", "simplices")

    def __init__(self, points, simplices):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise BadParameter("duplicate point ids")
        pset = frozenset(pts)
        ss = set()
        for s in simplices:
            s = frozenset(s)
            if not s:
                raise BadParameter("simplices must be nonempty")
            if not s <= pset:
                raise MissingPoint(f"simplex {sorted(s, key=repr)} leaves the point set")
            ss.add(s)
        for x in pts:
            if frozenset([x]) not in ss:
                raise BadParameter(f"missing singleton {{{x!r}}}")
        for s in ss:
            for r in range(1, len(s)):
                for t in combinations(s, r):
                    if frozenset(t) not in ss:
                        raise BadParameter(f"not downward closed at {sorted(s, key=repr)}")
        self.points = pts
        self.simplices = frozenset(ss)

    def sorted_simplices(self):
        return _sorted_simplices(self.simplices)

    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (frozenset(self.points) == frozenset(other.points)
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((frozenset(self.points), self.simplices))

    def __repr__(self):
        return f"SimplicialComplex({len(self.points)} points, {len(self.simplices)} simplices)"


def is_simplicial(mapping, K: SimplicialComplex, L: SimplicialComplex) -> bool:
    """True iff the image of every simplex of K is a simplex of L."""
    for x in K.points:
        if x not in mapping:
            raise MissingPoint(f"map not defined at {x!r}")
        if mapping[x] not in set(L.points):
            raise MissingPoint(f"image {mapping[x]!r} is not a point of the target")
    return all(frozenset(mapping[x] for x in s) in L.simplices for s in K.simplices)


class SimplicialMap:
    """A validated simplicial map between two complexes."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 mapping, check: bool = True):
        mapping = dict(mapping)
        if check and not is_simplicial(mapping, source, target):
            raise BadParameter("image of some simplex is not a simplex")
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))


def cliques(later, max_size=None):
    """Every clique of a graph, as an increasing tuple of vertex indices.

    later[i] lists the neighbours j > i of vertex i in increasing order.
    Cliques with more than max_size vertices are not generated, so a cap
    bounds the work as well as the output.  The search keeps an explicit
    stack of (clique, common later neighbours), so its depth is not
    limited by recursion.
    """
    if max_size is not None and max_size < 1:
        return
    adjacent = [set(nbrs) for nbrs in later]
    stack = [((i,), nbrs) for i, nbrs in enumerate(later)]
    while stack:
        clique, common = stack.pop()
        yield clique
        if max_size is not None and len(clique) >= max_size:
            continue
        for k, v in enumerate(common):
            stack.append((clique + (v,),
                          [w for w in common[k + 1:] if w in adjacent[v]]))


def _clique_complex_simplices(points, adjacent):
    """All nonempty cliques of a symmetric adjacency predicate."""
    pts = list(points)
    later = [[j for j in range(i + 1, len(pts)) if adjacent(pts[i], pts[j])]
             for i in range(len(pts))]
    return {frozenset(pts[i] for i in c) for c in cliques(later)}


def vr(X: FiniteClosureSpace) -> SimplicialComplex:
    """Vietoris-Rips complex: sets contained in the closure of each of their points.

    The condition is pairwise mutual closure membership, so this is the
    clique complex of the symmetrized relation.
    """
    simplices = _clique_complex_simplices(
        X.points,
        lambda x, y: y in X.closure_map[x] and x in X.closure_map[y])
    return SimplicialComplex(X.points, simplices)


def cech(X: FiniteClosureSpace) -> SimplicialComplex:
    """Cech complex: sets contained in the closure of some point of X."""
    return SimplicialComplex(
        X.points, _downward_closure(X.closure_map[x] for x in X.points))


def g_functor(K: SimplicialComplex) -> FiniteClosureSpace:
    """c(x) = union of all simplices containing x; a symmetric space."""
    cmap = {}
    for x in K.points:
        cl = {x}
        for s in K.simplices:
            if x in s:
                cl |= s
        cmap[x] = frozenset(cl)
    return FiniteClosureSpace(K.points, cmap)


def gamma(X: FiniteClosureSpace) -> Hypergraph:
    """Downward closure of the collection of singleton closures."""
    return Hypergraph(
        X.points, _downward_closure(X.closure_map[x] for x in X.points))


def cosk1(G: FiniteClosureSpace) -> SimplicialComplex:
    """Clique complex of a graph presented as a symmetric closure space."""
    if not is_symmetric(G):
        raise BadParameter("cosk1 expects a symmetric space")
    simplices = _clique_complex_simplices(
        G.points, lambda x, y: y in G.closure_map[x])
    return SimplicialComplex(G.points, simplices)


def tr1(K: SimplicialComplex) -> FiniteClosureSpace:
    """Keep only the edges of a complex, as a symmetric closure space."""
    cmap = {}
    for x in K.points:
        cl = {x}
        for s in K.simplices:
            if len(s) == 2 and x in s:
                cl |= s
        cmap[x] = frozenset(cl)
    return FiniteClosureSpace(K.points, cmap)


def dc(H: Hypergraph) -> Hypergraph:
    """Downward closure of a hypergraph."""
    return Hypergraph(H.points, _downward_closure(H.edges))


def tr_inf(H: Hypergraph) -> SimplicialComplex:
    """View a downward-closed hypergraph as a simplicial complex.

    On a finite carrier every hyperedge is finite, so this only checks
    that the input is downward closed and covers every point.
    """
    if not H.is_downward_closed():
        raise BadParameter("tr_inf expects a downward-closed hypergraph")
    return SimplicialComplex(H.points, H.edges)


def cosk_inf(K: SimplicialComplex) -> Hypergraph:
    """Add every set all of whose maximal proper subsets are already present.

    Candidate sets are visited by increasing cardinality, so sets added
    earlier can support later additions.
    """
    edges = set(K.simplices)
    pts = sorted(K.points, key=repr)
    for size in range(2, len(pts) + 1):
        for cand in combinations(pts, size):
            cand = frozenset(cand)
            if cand in edges:
                continue
            if all(cand - {x} in edges for x in cand):
                edges.add(cand)
    return Hypergraph(K.points, edges)


def is_hypergraph_map(mapping, H: Hypergraph, K: Hypergraph) -> bool:
    """True iff the image of every hyperedge is a hyperedge."""
    for x in H.points:
        if x not in mapping:
            raise MissingPoint(f"map not defined at {x!r}")
        if mapping[x] not in set(K.points):
            raise MissingPoint(f"image {mapping[x]!r} is not a point of the target")
    return all(frozenset(mapping[x] for x in e) in K.edges for e in H.edges)


def contiguous(f: SimplicialMap, g: SimplicialMap) -> bool:
    """True iff f(s) u g(s) is a simplex of the target for every simplex s."""
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("contiguity needs a common source and target")
    F = f.target.simplices
    for s in f.source.simplices:
        union = frozenset(f.mapping[x] for x in s) | frozenset(g.mapping[x] for x in s)
        if union not in F:
            return False
    return True


# ---------------------------------------------------------------------------
# file format: one simplex per line, points space-separated

def complex_from_text(text: str, close_downward: bool = False) -> SimplicialComplex:
    """Parse a complex file; either close the input downward or reject it."""
    simplices = set()
    points = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        names = line.split()
        if len(set(names)) != len(names):
            raise ParseError(f"line {lineno}: repeated point in a simplex")
        for p in names:
            if p not in seen:
                seen.add(p)
                points.append(p)
        simplices.add(frozenset(names))
    if not simplices:
        raise ParseError("empty complex file")
    if close_downward:
        # every point lies on some line, so its singleton is in the closure
        simplices = _downward_closure(simplices)
    try:
        return SimplicialComplex(points, simplices)
    except BadParameter as exc:
        raise ParseError(str(exc)) from exc


def complex_to_text(K: SimplicialComplex) -> str:
    lines = [" ".join(str(x) for x in sorted(s, key=repr))
             for s in K.sorted_simplices()]
    return "\n".join(lines) + "\n"


def load_complex(path, close_downward: bool = False) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_text(fh.read(), close_downward=close_downward)
