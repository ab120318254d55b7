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
from functools import cache, cached_property
from itertools import permutations
from typing import Optional

from .errors import (BadParameter, BoundExceeded, CapExceeded,
                     SourceTargetMismatch)
from .spaces import (
    ContinuousMap,
    FiniteClosureSpace,
    ProductKind,
    bits,
    closure_masks,
    enumerate_continuous_maps,
    homomorphisms,
    is_continuous,
    neighbour_lists,
    point_space,
    product,
    subspace,
)


def _interval_length(J: FiniteClosureSpace) -> int:
    """The m of an interval object J, whose points must be 0, 1, ..., m
    with m >= 1."""
    if len(J) < 2 or J.points != tuple(range(len(J))):
        raise BadParameter("an interval object has the points 0, 1, ..., m "
                           "with m >= 1")
    return len(J) - 1


def _first_retractable(X, J, kind, ends):
    """The first point x, in point order, with a y whose retraction r is
    one step from the identity with r at one of ends; None if there is none."""
    XJ = product(X, J, kind)
    c = X.closure_map
    for x, y in permutations(X.points, 2):
        for e, needs_out, needs_in in ends:
            if (needs_out and x not in c[y]) or (needs_in and y not in c[x]):
                continue
            H = {(p, i): p for p in X.points for i in J.points}
            H[(x, e)] = y
            if is_continuous(H, XJ, X):
                return x
    return None


def homotopy_core(X: FiniteClosureSpace, J: FiniteClosureSpace,
                  kind: ProductKind) -> FiniteClosureSpace:
    """X less the points removed one at a time by one-step deformation
    retractions; a subspace of X homotopy equivalent to it under (J, kind).

    For points x != y in point order, let r send x to y and fix the rest.
    x goes when the map H on the literal product X (x) J that is r at one
    end of J and the identity at every other point of J is continuous,
    with r at 0 tried first, then at m.  Then r is one step from the
    identity, so the inclusion of X - x is a homotopy equivalence with
    inverse r.  The scan restarts after each removal and stops when no
    pair qualifies; the last point always stays.  H joins (x, e) to
    (x, j) for every edge e -> j of J, so a pair is skipped unless x is
    in c(y) when e has an out-edge and y is in c(x) when it has an in-edge.
    """
    m = _interval_length(J)
    # per end e of J: e, whether e has an out-edge, whether it has an in-edge
    ends = [(e, any(j != e for j in J.closure_map[e]),
             any(e in J.closure_map[j] for j in J.points if j != e))
            for e in (0, m)]
    while len(X.points) > 1:
        x = _first_retractable(X, J, kind, ends)
        if x is None:
            break
        X = subspace(X, [p for p in X.points if p != x])
    return X


@dataclass(frozen=True)
class HomotopyQuery:
    """Interval, product kind and search budget for a homotopy search."""

    interval: FiniteClosureSpace
    product: ProductKind
    max_steps: int = 8
    size_cap: int = 5

    def __post_init__(self):
        if self.max_steps < 1:
            raise BadParameter("max_steps must be at least 1")


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
    Bit v of adjacency[u] is set iff such a homomorphism has h_0 = u and
    h_m = v; bit u of the column mask _columns[v] says the same.

    For each homomorphism mu of the middle slots 1..m-1 into E, slot 0
    can take every map in L(mu), those that meet the edges between 0 and
    the middle, and slot m every map in R(mu), likewise.  The adjacency
    is the union of the blocks L(mu) x R(mu), cut by E for an edge
    0 -> m and by the transpose of E for an edge m -> 0.
    """

    def __init__(self, X: FiniteClosureSpace, Y: FiniteClosureSpace,
                 J: FiniteClosureSpace, kind: ProductKind):
        self.m = _interval_length(J)
        self.X, self.Y, self.J, self.kind = X, Y, J, kind
        self._j_relation = neighbour_lists(J)
        self.maps = enumerate_continuous_maps(X, Y)
        self.index = {t: i for i, t in enumerate(self.maps)}
        self._edge_masks = self._edge_relation()
        self.adjacency, self._columns = self._adjacency()

    @cached_property
    def _literal_product(self) -> FiniteClosureSpace:
        """X (x) J as a space, built once for the witness checks."""
        return product(self.X, self.J, self.kind)

    def _edge_relation(self):
        """Row and column masks of E: E[u, v] iff v(x') is in the closure
        of u(x) for every edge x -> x' of X under PRODUCT, and for x' = x
        only under INDUCTIVE."""
        out_y, in_y = closure_masks(self.Y)
        # at[x][p]: the maps sending x to p
        at = [[0] * len(out_y) for _ in self.X.points]
        for k, t in enumerate(self.maps):
            for x, p in enumerate(t):
                at[x][p] |= 1 << k

        def sending_into(rel):
            # [x][p]: the maps sending x into rel[p]; the masks summed are
            # disjoint, so the sum is their union
            return [[sum(row[q] for q in bits(mask)) for mask in rel]
                    for row in at]

        into_closure, into_base = sending_into(out_y), sending_into(in_y)
        edges = [(x, x2) for x, nbrs in enumerate(neighbour_lists(self.X))
                 for x2 in (nbrs if self.kind is ProductKind.PRODUCT else [x])]
        full = (1 << len(self.maps)) - 1
        rows, cols = [], []
        for t in self.maps:
            row = col = full
            for x, x2 in edges:
                row &= into_closure[x2][t[x]]
                col &= into_base[x][t[x2]]
            rows.append(row)
            cols.append(col)
        return rows, cols

    def _adjacency(self):
        J, m, n = self._j_relation, self.m, len(self.maps)
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
        rows, cols = [0] * n, [0] * n
        for lo, hi in blocks.items():
            for u in bits(lo):
                rows[u] |= hi
            for v in bits(hi):
                cols[v] |= lo
        if m in J[0]:
            rows = [a & b for a, b in zip(rows, out)]
            cols = [a & b for a, b in zip(cols, inn)]
        if 0 in J[m]:
            rows = [a & b for a, b in zip(rows, inn)]
            cols = [a & b for a, b in zip(cols, out)]
        return rows, cols

    def one_step(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def find_chain(self, u: int, v: int, max_steps: int):
        """BFS along one-step edges taken in both orientations.

        Returns the index chain from u to v, or None when the whole
        component of u was exhausted; raises BoundExceeded when the
        budget cut the search before exhaustion.
        """
        if u == v:
            return [u]
        rows, cols = self.adjacency, self._columns
        parent = {u: None}
        seen = 1 << u
        frontier = [u]
        depth = 0
        while frontier:
            if depth == max_steps:
                raise BoundExceeded(
                    f"no homotopy within {max_steps} steps; map graph not exhausted")
            depth += 1
            nxt = []
            for a in frontier:
                new = (rows[a] | cols[a]) & ~seen
                if new >> v & 1:
                    chain = [v, a]
                    while chain[-1] != u:
                        chain.append(parent[chain[-1]])
                    return chain[::-1]
                seen |= new
                for b in bits(new):
                    parent[b] = a
                    nxt.append(b)
            frontier = nxt
        return None


def _verify_literal(graph: MapGraph, maps) -> bool:
    """Check the assembled H on the literal product space."""
    H = {(x, i): maps[i][x] for x in graph.X.points for i in graph.J.points}
    return is_continuous(H, graph._literal_product, graph.Y)


def one_step_homotopic(f: ContinuousMap, g: ContinuousMap,
                       J: FiniteClosureSpace,
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
    return _extract_one_step(graph, u, v)


def _extract_one_step(graph: MapGraph, u: int, v: int) -> OneStepWitness:
    """Recover an explicit tuple (h_0, ..., h_m) for a known one-step edge
    from u to v, or else from v to u, verified on the literal product."""
    forward = graph.one_step(u, v)
    a, b = (u, v) if forward else (v, u)
    slots = next(homomorphisms(graph._j_relation, graph._edge_masks,
                               {0: 1 << a, graph.m: 1 << b}))
    maps = tuple(_as_mapping(graph.X, graph.Y, graph.maps[s]) for s in slots)
    if not _verify_literal(graph, maps):
        raise AssertionError("one-step witness is not continuous on X (x) J")
    return OneStepWitness(maps=maps, forward=forward)


def _check_size(cap: int, *sizes):
    """Refuse a search whose spaces or interval have more than cap points."""
    if max(sizes) > cap:
        raise CapExceeded(f"spaces or interval exceed the size cap "
                          f"{cap}; raise size_cap to override")


def _witness(graph: MapGraph, chain) -> HomotopyWitness:
    """The stages of an index chain and a one-step witness per link."""
    stages = [_as_mapping(graph.X, graph.Y, graph.maps[i]) for i in chain]
    steps = [_extract_one_step(graph, a, b) for a, b in zip(chain, chain[1:])]
    return HomotopyWitness(stages=stages, steps=steps)


def homotopic(f: ContinuousMap, g: ContinuousMap,
              query: HomotopyQuery) -> Optional[HomotopyWitness]:
    """Multi-step homotopy: BFS over the map graph with one-step edges
    taken in both orientations.  Returns a witness chain, None when the
    component of f was exhausted, and raises BoundExceeded when the
    budget ran out first.
    """
    _require_parallel(f, g)
    X, Y = f.source, f.target
    _check_size(query.size_cap, len(X), len(Y), len(query.interval))
    graph = MapGraph(X, Y, query.interval, query.product)
    u = graph.index[_as_tuple(X, Y, f.mapping)]
    v = graph.index[_as_tuple(X, Y, g.mapping)]
    chain = graph.find_chain(u, v, query.max_steps)
    return None if chain is None else _witness(graph, chain)


def homotopy_equivalent(X: FiniteClosureSpace, Y: FiniteClosureSpace,
                        query: HomotopyQuery):
    """Search for maps f : X -> Y and g : Y -> X with both round trips
    homotopic to the identities.  Returns (f, g, witness_X, witness_Y)
    or None; raises BoundExceeded when absence could not be proven.
    """
    _check_size(query.size_cap, len(X), len(Y), len(query.interval))
    graph_x = MapGraph(X, X, query.interval, query.product)
    graph_y = MapGraph(Y, Y, query.interval, query.product)
    bounded = False

    @cache
    def to_identity(graph, t):
        # the chain from the round trip t to the identity, searched once per
        # t; None when there is none or the budget ran out first
        nonlocal bounded
        identity = graph.index[tuple(range(len(t)))]
        try:
            return graph.find_chain(graph.index[t], identity, query.max_steps)
        except BoundExceeded:
            bounded = True
            return None

    bwd = enumerate_continuous_maps(Y, X)
    for ft in enumerate_continuous_maps(X, Y):
        for gt in bwd:
            chain_x = to_identity(graph_x, tuple(gt[i] for i in ft))
            if chain_x is None:
                continue
            chain_y = to_identity(graph_y, tuple(ft[i] for i in gt))
            if chain_y is None:
                continue
            f = ContinuousMap(X, Y, _as_mapping(X, Y, ft), check=False)
            g = ContinuousMap(Y, X, _as_mapping(Y, X, gt), check=False)
            return f, g, _witness(graph_x, chain_x), _witness(graph_y, chain_y)
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
