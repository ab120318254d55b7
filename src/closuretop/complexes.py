"""Hypergraphs, simplicial complexes, and the functors relating them to spaces.

Simplices and hyperedges are stored as frozensets inside a
deduplicated set; accessors return them sorted for reproducibility.
Cliques, and so VR = cosk1 o symmetrize, come from spaces.homomorphisms;
g_functor and tr1 agree on complexes and share one body.
"""
from __future__ import annotations

from itertools import combinations, count, takewhile

from .errors import BadParameter, MissingPoint, ParseError, SourceTargetMismatch
from .spaces import (FiniteClosureSpace, closure_masks, homomorphisms,
                     is_symmetric, point_token, refused, symmetrize,
                     token_point)


def _downward_closure(sets, size=None):
    """Every nonempty subset of each of the given sets, of at most size
    points unless size is None, as frozensets."""
    out = set()
    for s in sets:
        for r in range(1, (len(s) if size is None else min(len(s), size)) + 1):
            out.update(map(frozenset, combinations(s, r)))
    return out


def _unclosed(sets):
    """A member of sets with a maximal proper face outside sets, or None;
    by induction on size, sets is downward closed iff there is none."""
    return next((s for s in sets
                 if len(s) > 1 and any(s - {x} not in sets for x in s)), None)


def _point_sets(points, sets, kind):
    """The point tuple and the set of frozensets, with distinct point ids
    and every set nonempty and within the points."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise BadParameter("duplicate point ids")
    pset = frozenset(pts)
    out = set()
    for s in sets:
        s = frozenset(s)
        if not s:
            raise BadParameter(f"empty {kind}")
        if not s <= pset:
            raise MissingPoint(f"{kind} {sorted(s, key=repr)} leaves the point set")
        out.add(s)
    return pts, frozenset(out)


def _maps_sets(mapping, points, sets, target_points, target_sets) -> bool:
    """True iff mapping sends every set into target_sets; MissingPoint
    where it is undefined on points or leaves target_points."""
    targets = frozenset(target_points)
    for x in points:
        if x not in mapping:
            raise MissingPoint(f"map not defined at {x!r}")
        if mapping[x] not in targets:
            raise MissingPoint(f"image {mapping[x]!r} is not a point of the target")
    return all(frozenset(mapping[x] for x in s) in target_sets for s in sets)


class Hypergraph:
    """A point set together with a set of nonempty hyperedges."""

    __slots__ = ("points", "edges")

    def __init__(self, points, edges):
        self.points, self.edges = _point_sets(points, edges, "hyperedge")

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return frozenset(self.points) == frozenset(other.points) and self.edges == other.edges

    def __hash__(self):
        return hash((frozenset(self.points), self.edges))

    def is_downward_closed(self) -> bool:
        return _unclosed(self.edges) is None

    def __repr__(self):
        return f"Hypergraph({len(self.points)} points, {len(self.edges)} edges)"


class SimplicialComplex:
    """A downward-closed hypergraph containing every singleton."""

    __slots__ = ("points", "simplices")

    def __init__(self, points, simplices):
        pts, ss = _point_sets(points, simplices, "simplex")
        for x in pts:
            if frozenset([x]) not in ss:
                raise BadParameter(f"missing singleton {{{x!r}}}")
        bad = _unclosed(ss)
        if bad is not None:
            raise BadParameter(f"not downward closed at {sorted(bad, key=repr)}")
        self.points = pts
        self.simplices = ss

    def sorted_simplices(self):
        return sorted(self.simplices, key=lambda s: (len(s), sorted(s, key=repr)))

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
    return _maps_sets(mapping, K.points, K.simplices, L.points, L.simplices)


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


def cliques(later):
    """Every clique of a graph, as an increasing tuple of vertex indices.

    Bit j of the int mask later[i] says that vertex i is adjacent to the
    vertex j > i.  The r-vertex cliques are the homomorphisms of the
    strict order on r vertices into that relation, a -> b for a < b, so
    they come from spaces.homomorphisms, lexicographically within each
    size.  Sizes go up from 1 until one has no clique.
    """
    earlier = [sum(1 << i for i in range(j) if later[i] >> j & 1)
               for j in range(len(later))]
    for r in count(1):
        found = False
        for clique in homomorphisms([range(a + 1, r) for a in range(r)],
                                    (later, earlier)):
            found = True
            yield clique
        if not found:
            return


def _skeleton(X: FiniteClosureSpace, construction: str, size=None):
    """The simplices of vr(X) or cech(X), construction "vr" or "cech", of
    at most size points unless size is None, as a complex."""
    if construction == "vr":
        out, _ = closure_masks(symmetrize(X))
        later = [mask >> (i + 1) << (i + 1) for i, mask in enumerate(out)]
        found = cliques(later)  # by increasing size
        if size is not None:
            found = takewhile(lambda c: len(c) <= size, found)
        sets = ([X.points[i] for i in c] for c in found)
    else:
        sets = _downward_closure((X.closure_map[x] for x in X.points), size)
    return SimplicialComplex(X.points, sets)


def vr(X: FiniteClosureSpace) -> SimplicialComplex:
    """Vietoris-Rips complex: sets contained in the closure of each of their points.

    The condition is pairwise mutual closure membership, so this is the
    clique complex of the symmetrized relation, cosk1(symmetrize(X)).
    """
    return _skeleton(X, "vr")


def cech(X: FiniteClosureSpace) -> SimplicialComplex:
    """Cech complex: sets contained in the closure of some point of X."""
    return _skeleton(X, "cech")


def g_functor(K: SimplicialComplex) -> FiniteClosureSpace:
    """c(x) = union of all simplices containing x; a symmetric space.

    Downward closure puts the edge {x, y} in every simplex that holds
    both points, so the union is that of the edges at x: this is tr1(K).
    """
    return tr1(K)


def gamma(X: FiniteClosureSpace) -> Hypergraph:
    """Downward closure of the collection of singleton closures."""
    return Hypergraph(
        X.points, _downward_closure(X.closure_map[x] for x in X.points))


def cosk1(G: FiniteClosureSpace) -> SimplicialComplex:
    """Clique complex of a graph presented as a symmetric closure space."""
    if not is_symmetric(G):
        raise BadParameter("cosk1 expects a symmetric space")
    return vr(G)


def tr1(K: SimplicialComplex) -> FiniteClosureSpace:
    """Keep only the edges of a complex, as a symmetric closure space."""
    cmap = {x: {x} for x in K.points}
    for s in K.simplices:
        if len(s) == 2:
            x, y = s
            cmap[x].add(y)
            cmap[y].add(x)
    return FiniteClosureSpace(K.points, cmap)


def dc(H: Hypergraph) -> Hypergraph:
    """Downward closure of a hypergraph."""
    return Hypergraph(H.points, _downward_closure(H.edges))


def tr_inf(H: Hypergraph) -> SimplicialComplex:
    """View a downward-closed hypergraph as a simplicial complex.

    On a finite carrier every hyperedge is finite, so this only checks,
    as the complex does, that the input is downward closed and covers
    every point.
    """
    return SimplicialComplex(H.points, H.edges)


def cosk_inf(K: SimplicialComplex) -> Hypergraph:
    """The full simplex on K's points.

    The coskeleton adds, by increasing size, every set all of whose
    maximal proper subsets are present.  Every singleton is in K, so by
    induction on size it adds every nonempty subset of the points.
    """
    return Hypergraph(K.points, _downward_closure([K.points]))


def is_hypergraph_map(mapping, H: Hypergraph, K: Hypergraph) -> bool:
    """True iff the image of every hyperedge is a hyperedge."""
    return _maps_sets(mapping, H.points, H.edges, K.points, K.edges)


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
    """Parse a complex file; either close the input downward or reject it.

    Each token names a point by token_point: a JSON list is its tuple."""
    simplices = set()
    by_token = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        simplex = [by_token.setdefault(t, token_point(t)) for t in line.split()]
        s = frozenset(simplex)
        if len(s) != len(simplex):
            raise ParseError(f"line {lineno}: repeated point in a simplex")
        simplices.add(s)
    if not simplices:
        raise ParseError("empty complex file")
    if close_downward:
        # every point lies on some line, so its singleton is in the closure
        simplices = _downward_closure(simplices)
    return refused("complex", SimplicialComplex, by_token.values(), simplices)


def complex_to_text(K: SimplicialComplex) -> str:
    lines = [" ".join(point_token(x) for x in sorted(s, key=repr))
             for s in K.sorted_simplices()]
    return "\n".join(lines) + "\n"


def load_complex(path, close_downward: bool = False) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_text(fh.read(), close_downward=close_downward)
