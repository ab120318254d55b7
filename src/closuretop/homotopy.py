"""One-step and multi-step interval homotopy between continuous maps.

A one-step homotopy for an interval J on the points 0..m and a product
kind is a continuous map H : X (x) J -> Y restricting to f at 0 and to
g at m.  H is exactly a tuple of continuous maps (h_0, ..., h_m), and it
is continuous iff h_i and h_j meet one binary condition E[h_i, h_j] for
every edge i -> j of J.  So one-step homotopies are the homomorphisms of
J's relation into the relation E on the maps X -> Y, and maps, like the
singular cubes and simplices of homology, come from the one search
spaces.homomorphisms.  Every found witness is re-verified against the
literal product space.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BoundExceeded, CapExceeded, SourceTargetMismatch
from .spaces import (
    ContinuousMap,
    FiniteClosureSpace,
    IntervalSpec,
    ProductKind,
    closure_masks,
    homomorphisms,
    interval,
    is_continuous,
    mask_matrix,
    neighbour_lists,
    point_space,
    product,
    relation_masks,
)


@dataclass(frozen=True)
class HomotopyQuery:
    """Interval, product kind and search budget for a homotopy search."""

    interval: IntervalSpec
    product: ProductKind
    max_steps: int = 8
    size_cap: int = 5

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class OneStepWitness:
    """The tuple (h_0, ..., h_m) of a single continuous H : X (x) J -> Y.

    forward means H restricts to the queried f at 0 and g at m;
    otherwise the roles of the endpoints are swapped.
    """

    maps: tuple
    forward: bool = True


@dataclass
class HomotopyWitness:
    """A chain of one-step homotopies realizing f ~ g."""

    stages: list        # point mappings f = s_0, ..., s_n = g
    steps: list = field(default_factory=list)  # OneStepWitness per consecutive pair

    @property
    def step_count(self) -> int:
        return len(self.stages) - 1


def _require_parallel(f: ContinuousMap, g: ContinuousMap):
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("maps must share source and target")


def enumerate_continuous_maps(X: FiniteClosureSpace, Y: FiniteClosureSpace):
    """All continuous point mappings X -> Y, the homomorphisms of the relations.

    Returned as tuples of target-point indices aligned with X.points,
    in lexicographic order over Y's point order.
    """
    return list(homomorphisms(neighbour_lists(X), closure_masks(Y)))


def _as_mapping(X, Y, tup):
    return {x: Y.points[v] for x, v in zip(X.points, tup)}


def _as_tuple(X, Y, mapping):
    yi = {y: i for i, y in enumerate(Y.points)}
    return tuple(yi[mapping[x]] for x in X.points)


class MapGraph:
    """All continuous maps X -> Y with the one-step adjacency for (J, kind).

    A one-step homotopy is a homomorphism of J's relation into the
    relation E on maps, where E[u, v] says that h_i = u and h_j = v meet
    the continuity of H on X (x) J along an edge i -> j of J.
    A[u, v] is True iff such a homomorphism has h_0 = u and h_m = v.

    For each homomorphism mu of the middle slots 1..m-1 into E, slot 0
    can take every map in L(mu), those that meet the edges between 0 and
    the middle, and slot m every map in R(mu), likewise.  A is the union
    of the blocks L(mu) x R(mu), cut by E for an edge 0 -> m and by the
    transpose of E for an edge m -> 0.
    """

    def __init__(self, X: FiniteClosureSpace, Y: FiniteClosureSpace,
                 J: IntervalSpec, kind: ProductKind):
        self.X, self.Y, self.J, self.kind = X, Y, J, kind
        self._j_relation = neighbour_lists(interval(J))
        self.maps = enumerate_continuous_maps(X, Y)
        self.index = {t: i for i, t in enumerate(self.maps)}
        self._edge = self._edge_matrix()
        self._edge_masks = relation_masks(self._edge)
        self.adjacency = self._adjacency()

    def _edge_matrix(self):
        """E[u, v]: the condition along a J-edge i -> j with h_i = u, h_j = v."""
        n, ny = len(self.maps), len(self.Y.points)
        F = np.array(self.maps, dtype=np.int64).reshape(n, len(self.X.points))
        R = mask_matrix(closure_masks(self.Y)[0], ny)
        E = np.ones((n, n), dtype=bool)
        for ix, near in enumerate(neighbour_lists(self.X)):
            for jx in (near if self.kind is ProductKind.PRODUCT else [ix]):
                E &= R[F[:, ix]][:, F[:, jx]]
        return E

    def _adjacency(self):
        J, m, n = self._j_relation, self.J.m, len(self.maps)
        out, inn = self._edge_masks

        def end_constraints(e):
            # e -> i needs E[h_e, h_i], i -> e needs E[h_i, h_e]
            return ([(i - 1, inn) for i in J[e] if 0 < i < m]
                    + [(i - 1, out) for i in range(1, m) if e in J[i]])

        left, right = end_constraints(0), end_constraints(m)
        middle = [[j - 1 for j in J[i] if 0 < j < m] for i in range(1, m)]
        blocks = {}
        for mu in homomorphisms(middle, self._edge_masks):
            lo = hi = (1 << n) - 1
            for s, masks in left:
                lo &= masks[mu[s]]
            for s, masks in right:
                hi &= masks[mu[s]]
            if lo and hi:
                blocks[lo] = blocks.get(lo, 0) | hi
        rows = [0] * n
        for lo, hi in blocks.items():
            while lo:
                low = lo & -lo
                rows[low.bit_length() - 1] |= hi
                lo ^= low
        A = mask_matrix(rows, n)
        if m in J[0]:
            A &= self._edge
        if 0 in J[m]:
            A &= self._edge.T
        return A

    def one_step(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v])

    def find_chain(self, u: int, v: int, max_steps: int):
        """BFS along one-step edges taken in both orientations.

        Returns the index chain from u to v, or None when the whole
        component of u was exhausted; raises BoundExceeded when the
        budget cut the search before exhaustion.
        """
        if u == v:
            return [u]
        sym = self.adjacency | self.adjacency.T
        parent = {u: None}
        frontier = [u]
        depth = 0
        while frontier:
            if depth == max_steps:
                raise BoundExceeded(
                    f"no homotopy within {max_steps} steps; map graph not exhausted")
            depth += 1
            nxt = []
            for a in frontier:
                for b in np.flatnonzero(sym[a]):
                    b = int(b)
                    if b not in parent:
                        parent[b] = a
                        if b == v:
                            chain = [b]
                            while chain[-1] != u:
                                chain.append(parent[chain[-1]])
                            return chain[::-1]
                        nxt.append(b)
            frontier = nxt
        return None


def _j1_times_one_step(f: ContinuousMap, g: ContinuousMap) -> bool:
    """Closed form for one-step homotopy with the indiscrete pair and PRODUCT.

    f and g are one-step homotopic iff for every x and x' in c(x) both
    g(x') in c(f(x)) and f(x') in c(g(x)).
    """
    X, Y = f.source, f.target
    for x in X.points:
        cf = Y.closure_map[f.mapping[x]]
        cg = Y.closure_map[g.mapping[x]]
        for x2 in X.closure_map[x]:
            if g.mapping[x2] not in cf or f.mapping[x2] not in cg:
                return False
    return True


def _verify_literal(X, Y, J: IntervalSpec, kind: ProductKind, maps) -> bool:
    """Check the assembled H on the literal product space."""
    Jsp = interval(J)
    XJ = product(X, Jsp, kind)
    H = {(x, i): maps[i][x] for x in X.points for i in Jsp.points}
    return is_continuous(H, XJ, Y)


def one_step_homotopic(f: ContinuousMap, g: ContinuousMap, J: IntervalSpec,
                       kind: ProductKind) -> Optional[OneStepWitness]:
    """Decide one-step (J, kind)-homotopy from f to g; return the witness tuple.

    The direction matters for asymmetric intervals: the witness
    restricts to f at 0 and to g at the top endpoint.
    """
    _require_parallel(f, g)
    X, Y = f.source, f.target
    graph = MapGraph(X, Y, J, kind)
    u = graph.index[_as_tuple(X, Y, f.mapping)]
    v = graph.index[_as_tuple(X, Y, g.mapping)]
    if not graph.one_step(u, v):
        return None
    witness = _extract_one_step(graph, u, v)
    assert _verify_literal(X, Y, J, kind, witness.maps)
    return witness


def _extract_one_step(graph: MapGraph, u: int, v: int) -> OneStepWitness:
    """Recover an explicit tuple (h_0, ..., h_m) for a known one-step edge."""
    slots = next(homomorphisms(graph._j_relation, graph._edge_masks,
                               fixed={0: u, graph.J.m: v}))
    maps = tuple(_as_mapping(graph.X, graph.Y, graph.maps[s]) for s in slots)
    return OneStepWitness(maps=maps, forward=True)


def homotopic(f: ContinuousMap, g: ContinuousMap,
              query: HomotopyQuery) -> Optional[HomotopyWitness]:
    """Multi-step homotopy: BFS over the map graph with one-step edges
    taken in both orientations.  Returns a witness chain, None when the
    component of f was exhausted, and raises BoundExceeded when the
    budget ran out first.
    """
    _require_parallel(f, g)
    X, Y = f.source, f.target
    if len(X.points) > query.size_cap or len(Y.points) > query.size_cap:
        raise CapExceeded(
            f"spaces exceed the size cap {query.size_cap}; raise size_cap to override")
    graph = MapGraph(X, Y, query.interval, query.product)
    u = graph.index[_as_tuple(X, Y, f.mapping)]
    v = graph.index[_as_tuple(X, Y, g.mapping)]
    chain = graph.find_chain(u, v, query.max_steps)
    if chain is None:
        return None
    stages = [_as_mapping(X, Y, graph.maps[i]) for i in chain]
    steps = []
    for a, b in zip(chain, chain[1:]):
        if graph.one_step(a, b):
            steps.append(_extract_one_step(graph, a, b))
        else:
            back = _extract_one_step(graph, b, a)
            steps.append(OneStepWitness(maps=back.maps, forward=False))
    return HomotopyWitness(stages=stages, steps=steps)


def homotopy_equivalent(X: FiniteClosureSpace, Y: FiniteClosureSpace,
                        query: HomotopyQuery):
    """Search for maps f : X -> Y and g : Y -> X with both round trips
    homotopic to the identities.  Returns (f, g, witness_X, witness_Y)
    or None; raises BoundExceeded when absence could not be proven.
    """
    if len(X.points) > query.size_cap or len(Y.points) > query.size_cap:
        raise CapExceeded(
            f"spaces exceed the size cap {query.size_cap}; raise size_cap to override")
    graph_x = MapGraph(X, X, query.interval, query.product)
    graph_y = MapGraph(Y, Y, query.interval, query.product)
    id_x = graph_x.index[_as_tuple(X, X, {x: x for x in X.points})]
    id_y = graph_y.index[_as_tuple(Y, Y, {y: y for y in Y.points})]
    fwd = enumerate_continuous_maps(X, Y)
    bwd = enumerate_continuous_maps(Y, X)
    xi = {x: i for i, x in enumerate(X.points)}
    yi = {y: i for i, y in enumerate(Y.points)}
    bounded = False
    for ft in fwd:
        for gt in bwd:
            gf = tuple(gt[ft[xi[x]]] for x in X.points)
            fg = tuple(ft[gt[yi[y]]] for y in Y.points)
            try:
                chain_x = graph_x.find_chain(graph_x.index[gf], id_x, query.max_steps)
            except BoundExceeded:
                bounded = True
                continue
            if chain_x is None:
                continue
            try:
                chain_y = graph_y.find_chain(graph_y.index[fg], id_y, query.max_steps)
            except BoundExceeded:
                bounded = True
                continue
            if chain_y is None:
                continue
            f = ContinuousMap(X, Y, _as_mapping(X, Y, ft), check=False)
            g = ContinuousMap(Y, X, _as_mapping(Y, X, gt), check=False)
            wit_x = homotopic(g.compose(f), ContinuousMap.identity(X), query)
            wit_y = homotopic(f.compose(g), ContinuousMap.identity(Y), query)
            return f, g, wit_x, wit_y
    if bounded:
        raise BoundExceeded("search budget exhausted before proving absence")
    return None


def is_contractible(X: FiniteClosureSpace, query: HomotopyQuery):
    """Whether X is homotopy equivalent to the one-point space.

    Returns (True, witness tuple) or (False, None).
    """
    result = homotopy_equivalent(X, point_space(), query)
    if result is None:
        return False, None
    return True, result
