"""Finite closure spaces and their categorical constructions.

A finite closure space is a finite point set with an operation c on
subsets satisfying c({}) = {}, A <= c(A) and c(A u B) = c(A) u c(B).
Finite additivity forces c to be determined by its values on
singletons, so the whole structure is a reflexive relation on the
points, i.e. a simple digraph with a loop at every vertex.  Everything
in this module works with that singleton representation.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import (
    BadParameter,
    MissingPoint,
    NotContinuous,
    NotReflexive,
    ParseError,
    SourceTargetMismatch,
)


class FiniteClosureSpace:
    """A finite point set plus a reflexive singleton-closure mapping.

    points is an ordered tuple of hashable ids; closure_map maps each
    point to the frozenset c(point).  Instances are immutable and
    compared structurally (same point set, same mapping); equality is
    label sensitive by design.
    """

    __slots__ = ("points", "closure_map", "_pset")

    def __init__(self, points, closure_of):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise BadParameter("duplicate point ids")
        pset = frozenset(pts)
        extra = set(closure_of) - pset
        if extra:
            raise MissingPoint(f"closure given for unknown points: {sorted(extra, key=repr)}")
        cmap = {}
        for x in pts:
            if x not in closure_of:
                raise MissingPoint(f"no closure given for point {x!r}")
            cx = frozenset(closure_of[x])
            if not cx <= pset:
                bad = sorted(cx - pset, key=repr)
                raise MissingPoint(f"closure of {x!r} leaves the point set: {bad}")
            if x not in cx:
                raise NotReflexive(f"point {x!r} is not in its own closure")
            cmap[x] = cx
        self.points = pts
        self.closure_map = cmap
        self._pset = pset

    def closure_of(self, x):
        """Return c({x}) as a frozenset."""
        if x not in self._pset:
            raise MissingPoint(f"{x!r} is not a point of this space")
        return self.closure_map[x]

    def point_set(self):
        return self._pset

    def __contains__(self, x):
        return x in self._pset

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        if not isinstance(other, FiniteClosureSpace):
            return NotImplemented
        return self._pset == other._pset and self.closure_map == other.closure_map

    def __hash__(self):
        return hash(frozenset(self.closure_map.items()))

    def __repr__(self):
        body = ", ".join(f"{x!r}: {sorted(cx, key=repr)}" for x, cx in
                         ((x, self.closure_map[x]) for x in self.points))
        return f"FiniteClosureSpace({{{body}}})"


def build_space(points, closure_of) -> FiniteClosureSpace:
    """Validate and build a finite closure space from its singleton closures."""
    return FiniteClosureSpace(points, closure_of)


def _check_subset(X: FiniteClosureSpace, A):
    A = frozenset(A)
    if not A <= X.point_set():
        bad = sorted(A - X.point_set(), key=repr)
        raise MissingPoint(f"not points of the space: {bad}")
    return A


def closure(X: FiniteClosureSpace, A) -> frozenset:
    """c(A) as the union of the singleton closures of the members of A."""
    A = _check_subset(X, A)
    out = set()
    for x in A:
        out |= X.closure_map[x]
    return frozenset(out)


def interior(X: FiniteClosureSpace, A) -> frozenset:
    """int(A) = X - c(X - A)."""
    A = _check_subset(X, A)
    return X.point_set() - closure(X, X.point_set() - A)


def is_closed(X: FiniteClosureSpace, A) -> bool:
    A = _check_subset(X, A)
    return closure(X, A) == A


def is_open(X: FiniteClosureSpace, A) -> bool:
    A = _check_subset(X, A)
    return interior(X, A) == A


def is_continuous(mapping, X: FiniteClosureSpace, Y: FiniteClosureSpace) -> bool:
    """True iff f(c(x)) is inside c(f(x)) for every point x of X."""
    for x in X.points:
        if x not in mapping:
            raise MissingPoint(f"map not defined at {x!r}")
        if mapping[x] not in Y:
            raise MissingPoint(f"image {mapping[x]!r} is not a point of the target")
    for x in X.points:
        cy = Y.closure_map[mapping[x]]
        for x2 in X.closure_map[x]:
            if mapping[x2] not in cy:
                return False
    return True


def neighbour_lists(X: FiniteClosureSpace):
    """Out-neighbour index lists of X's relation, the source form of homomorphisms."""
    idx = {x: i for i, x in enumerate(X.points)}
    # one sorted list per closure object: product powers share closures, and
    # rows in index order keep the constraint set-up of homomorphisms fast
    rows = {}
    for c in X.closure_map.values():
        if id(c) not in rows:
            rows[id(c)] = sorted(idx[y] for y in c)
    return [rows[id(X.closure_map[x])] for x in X.points]


def closure_masks(X: FiniteClosureSpace):
    """The target form of homomorphisms for X's relation: (out, in) masks."""
    idx = {x: i for i, x in enumerate(X.points)}
    out, inn = [0] * len(idx), [0] * len(idx)
    for i, x in enumerate(X.points):
        for y in X.closure_map[x]:
            out[i] |= 1 << idx[y]
            inn[idx[y]] |= 1 << i
    return out, inn


def bits(mask: int):
    """Yield the indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def homomorphisms(src, tgt, domains=None):
    """Yield every homomorphism of the relation src into the relation tgt.

    src[a] lists the out-neighbours of vertex a of the source; tgt is a
    pair (out, in) of int masks such as closure_masks gives, where bit q
    of out[p] says p -> q and bit p of in[q] says the same.  A homomorphism h is a tuple of
    target indices, one per source vertex, with h[a] -> h[b] for every
    edge a -> b.  domains maps some vertices to masks of the targets
    they may take; a one-bit mask pins a vertex.

    Vertices with a domain are assigned first, then the others, each in
    index order; a vertex's candidates are the AND of its domain and the
    masks of its assigned neighbours, tried lowest bit first, so the
    tuples come out in lexicographic order of that assignment order.
    The search keeps an explicit stack.
    """
    out, inn = tgt
    n = len(src)
    domains = domains or {}
    order = sorted(domains) + [w for w in range(n) if w not in domains]
    pos = {w: i for i, w in enumerate(order)}
    start = [domains.get(w, (1 << len(out)) - 1) for w in order]
    loops = sum(1 << p for p, mask in enumerate(out) if mask >> p & 1)
    # constraints on the i-th assigned vertex from neighbours assigned before it
    cons = [[] for _ in order]
    for a in range(n):
        for b in src[a]:
            if a == b:  # h[a] needs a loop
                start[pos[a]] &= loops
            elif pos[a] < pos[b]:
                cons[pos[b]].append((a, out))
            else:
                cons[pos[a]].append((b, inn))
    h = [0] * n
    cand = [0] * n
    i = 0
    while True:
        if i < n:
            c = start[i]
            for a, masks in cons[i]:
                c &= masks[h[a]]
            cand[i] = c
        else:
            yield tuple(h)
            i -= 1
        while i >= 0 and not cand[i]:
            i -= 1
        if i < 0:
            return
        c = cand[i]
        low = c & -c
        cand[i] = c ^ low
        h[order[i]] = low.bit_length() - 1
        i += 1


def enumerate_continuous_maps(X: FiniteClosureSpace, Y: FiniteClosureSpace):
    """All continuous point mappings X -> Y, the homomorphisms of the relations.

    Returned as tuples of target-point indices aligned with X.points,
    in lexicographic order over Y's point order.
    """
    return list(homomorphisms(neighbour_lists(X), closure_masks(Y)))


class ContinuousMap:
    """A validated continuous map between two finite closure spaces."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: FiniteClosureSpace, target: FiniteClosureSpace,
                 mapping, check: bool = True):
        mapping = dict(mapping)
        if check and not is_continuous(mapping, source, target):
            raise NotContinuous("map violates the singleton continuity criterion")
        self.source = source
        self.target = target
        self.mapping = mapping

    @classmethod
    def identity(cls, X: FiniteClosureSpace) -> "ContinuousMap":
        return cls(X, X, {x: x for x in X.points}, check=False)

    @classmethod
    def constant(cls, X: FiniteClosureSpace, Y: FiniteClosureSpace, y) -> "ContinuousMap":
        if y not in Y:
            raise MissingPoint(f"{y!r} is not a point of the target")
        return cls(X, Y, {x: y for x in X.points}, check=False)

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other: "ContinuousMap") -> "ContinuousMap":
        """self after other (other first)."""
        if other.target != self.source:
            raise SourceTargetMismatch("composition requires matching middle space")
        return ContinuousMap(other.source, self.target,
                             {x: self.mapping[y] for x, y in other.mapping.items()},
                             check=False)

    def __eq__(self, other):
        if not isinstance(other, ContinuousMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        return f"ContinuousMap({self.mapping!r})"


def is_symmetric(X: FiniteClosureSpace) -> bool:
    """True iff y in c(x) always implies x in c(y)."""
    for x in X.points:
        for y in X.closure_map[x]:
            if x not in X.closure_map[y]:
                return False
    return True


def symmetrize(X: FiniteClosureSpace) -> FiniteClosureSpace:
    """Keep only the mutual part of the relation: s(c)(x) = {y in c(x) | x in c(y)}."""
    cmap = {x: frozenset(y for y in X.closure_map[x] if x in X.closure_map[y])
            for x in X.points}
    return FiniteClosureSpace(X.points, cmap)


def reverse(X: FiniteClosureSpace) -> FiniteClosureSpace:
    """Reverse the relation: y in c'(x) iff x in c(y)."""
    cmap = {x: frozenset(y for y in X.points if x in X.closure_map[y])
            for x in X.points}
    return FiniteClosureSpace(X.points, cmap)


def topological_modification(X: FiniteClosureSpace) -> FiniteClosureSpace:
    """Finest idempotent closure coarser than c.

    On a finite space this is the transitive closure of the reflexive
    relation, computed by reachability from each point.
    """
    cmap = {}
    for x in X.points:
        seen = set(X.closure_map[x])
        frontier = list(seen)
        while frontier:
            y = frontier.pop()
            for z in X.closure_map[y]:
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
        cmap[x] = frozenset(seen)
    return FiniteClosureSpace(X.points, cmap)


def qd(X: FiniteClosureSpace) -> FiniteClosureSpace:
    """Quasi-discrete modification.

    Every finite closure space is already quasi-discrete (finite
    additivity), so this is the identity; it exists to mirror the
    categorical picture.
    """
    return X


class ProductKind(Enum):
    """The two canonical product closures on a cartesian product."""

    PRODUCT = "x"
    INDUCTIVE = "box"


def _product(spaces, kind: ProductKind) -> FiniteClosureSpace:
    """Product of a sequence of spaces; points are flat tuples, one
    coordinate per space, in lexicographic order.

    PRODUCT relates tuples coordinatewise; INDUCTIVE additionally
    requires that at most one coordinate differs.  Under PRODUCT, tuples
    with equal coordinate closures share one closure.
    """
    pts = list(itertools.product(*(X.points for X in spaces)))
    maps = [X.closure_map for X in spaces]
    cmap, shared = {}, {}
    for t in pts:
        key = tuple(c[x] for c, x in zip(maps, t))
        if kind is ProductKind.PRODUCT:
            if key not in shared:
                shared[key] = frozenset(itertools.product(*key))
            cmap[t] = shared[key]
        else:
            cmap[t] = frozenset([t, *(t[:i] + (y,) + t[i + 1:]
                                      for i, cx in enumerate(key) for y in cx)])
    return FiniteClosureSpace(pts, cmap)


def product(X: FiniteClosureSpace, Y: FiniteClosureSpace,
            kind: ProductKind = ProductKind.PRODUCT) -> FiniteClosureSpace:
    """Product of two spaces; points are pairs (x, y) in lexicographic order.

    PRODUCT: (x', y') in c(x, y) iff x' in c(x) and y' in c(y).
    INDUCTIVE: additionally x' = x or y' = y.
    """
    return _product((X, Y), kind)


def product_power(X: FiniteClosureSpace, n: int,
                  kind: ProductKind = ProductKind.PRODUCT) -> FiniteClosureSpace:
    """n-fold product of X with itself; points are flat n-tuples.

    For n = 0 the result is the one-point space on the empty tuple.
    """
    if n < 0:
        raise BadParameter("n must be nonnegative")
    return _product((X,) * n, kind)


def coproduct(spaces) -> FiniteClosureSpace:
    """Disjoint union; points are tagged (index, point)."""
    spaces = list(spaces)
    pts = [(i, x) for i, X in enumerate(spaces) for x in X.points]
    cmap = {(i, x): frozenset((i, y) for y in X.closure_map[x])
            for i, X in enumerate(spaces) for x in X.points}
    return FiniteClosureSpace(pts, cmap)


def _quotient(Y: FiniteClosureSpace, pairs):
    """Quotient of Y by the equivalence generated by the given pairs.

    Classes are labeled by their least member in Y's point order.
    Returns (space, projection mapping).
    """
    parent = {x: x for x in Y.points}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for x in Y.points:
        classes.setdefault(find(x), []).append(x)
    order = {x: i for i, x in enumerate(Y.points)}
    label = {}
    for members in classes.values():
        rep = min(members, key=order.__getitem__)
        for x in members:
            label[x] = rep
    qpts = [x for x in Y.points if label[x] == x]
    cmap = {}
    for q in qpts:
        fiber = [x for x in Y.points if label[x] == q]
        cl = set()
        for x in fiber:
            cl |= {label[y] for y in Y.closure_map[x]}
        cmap[q] = frozenset(cl)
    return FiniteClosureSpace(qpts, cmap), label


def coequalizer(f: ContinuousMap, g: ContinuousMap):
    """Coequalizer of f, g : X -> Y; returns (Q, projection map Y -> Q)."""
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("coequalizer needs parallel maps")
    Y = f.target
    Q, label = _quotient(Y, [(f(a), g(a)) for a in f.source.points])
    return Q, ContinuousMap(Y, Q, label, check=False)


def pushout(f: ContinuousMap, g: ContinuousMap):
    """Pushout of X <-f- A -g-> Y; returns (P, leg X -> P, leg Y -> P)."""
    if f.source != g.source:
        raise SourceTargetMismatch("pushout needs a common source")
    Z = coproduct([f.target, g.target])
    P, label = _quotient(Z, [((0, f(a)), (1, g(a))) for a in f.source.points])
    leg_x = ContinuousMap(f.target, P, {x: label[(0, x)] for x in f.target.points},
                          check=False)
    leg_y = ContinuousMap(g.target, P, {y: label[(1, y)] for y in g.target.points},
                          check=False)
    return P, leg_x, leg_y


def subspace(X: FiniteClosureSpace, A) -> FiniteClosureSpace:
    """Subspace closure c_A(B) = c(B) n A, in X's point order."""
    A = _check_subset(X, A)
    pts = [x for x in X.points if x in A]
    cmap = {x: X.closure_map[x] & A for x in pts}
    return FiniteClosureSpace(pts, cmap)


def relabel(X: FiniteClosureSpace, mapping) -> FiniteClosureSpace:
    """Rename points through an injective mapping; structure is unchanged."""
    if len(set(mapping[x] for x in X.points)) != len(X.points):
        raise BadParameter("relabeling must be injective")
    pts = [mapping[x] for x in X.points]
    cmap = {mapping[x]: frozenset(mapping[y] for y in X.closure_map[x])
            for x in X.points}
    return FiniteClosureSpace(pts, cmap)


class IntervalFamily(Enum):
    BOT = "bot"        # discrete
    TOP = "top"        # indiscrete
    PLAIN = "plain"    # |i - j| <= 1
    BITS = "bits"      # edge directions chosen by the bits of k
    LEQ = "leq"        # c(i) = {j | i <= j}


@dataclass(frozen=True)
class IntervalSpec:
    """A named interval object on the points {0, ..., m}."""

    family: IntervalFamily
    m: int = 1
    k: Optional[int] = None

    def __post_init__(self):
        if self.m < 1:
            raise BadParameter("interval length m must be positive")
        if self.family is IntervalFamily.BITS:
            if self.k is None or not 0 <= self.k < 2 ** self.m:
                raise BadParameter("BITS requires 0 <= k < 2^m")
        elif self.k is not None:
            raise BadParameter("k is only meaningful for the BITS family")


def interval(spec: IntervalSpec) -> FiniteClosureSpace:
    """Build the interval object named by spec on the points {0, ..., m}."""
    m = spec.m
    pts = list(range(m + 1))
    cl = {i: {i} for i in pts}
    if spec.family is IntervalFamily.BOT:
        pass
    elif spec.family is IntervalFamily.TOP:
        cl = {i: set(pts) for i in pts}
    elif spec.family is IntervalFamily.PLAIN:
        cl = {i: {j for j in pts if abs(i - j) <= 1} for i in pts}
    elif spec.family is IntervalFamily.LEQ:
        cl = {i: {j for j in pts if i <= j} for i in pts}
    elif spec.family is IntervalFamily.BITS:
        for i in range(1, m + 1):
            bit = (spec.k >> (i - 1)) & 1
            if bit == 0:
                cl[i].add(i - 1)
            else:
                cl[i - 1].add(i)
    else:  # pragma: no cover
        raise BadParameter(f"unknown family {spec.family!r}")
    return FiniteClosureSpace(pts, cl)


def j_bot(m: int = 1) -> IntervalSpec:
    return IntervalSpec(IntervalFamily.BOT, m)


def j_top(m: int = 1) -> IntervalSpec:
    return IntervalSpec(IntervalFamily.TOP, m)


def j_plain(m: int) -> IntervalSpec:
    return IntervalSpec(IntervalFamily.PLAIN, m)


def j_bits(m: int, k: int) -> IntervalSpec:
    return IntervalSpec(IntervalFamily.BITS, m, k)


def j_leq(m: int) -> IntervalSpec:
    return IntervalSpec(IntervalFamily.LEQ, m)


def j1() -> IntervalSpec:
    return IntervalSpec(IntervalFamily.TOP, 1)


def j_plus() -> IntervalSpec:
    return IntervalSpec(IntervalFamily.BITS, 1, 1)


def j_minus() -> IntervalSpec:
    return IntervalSpec(IntervalFamily.BITS, 1, 0)


_NAMED_INTERVALS = {"j1": j1, "jplus": j_plus, "jminus": j_minus}


def parse_interval(text: str) -> IntervalSpec:
    """Interval names: j1, jplus, jminus, top:m, bot:m, plain:m, leq:m, bits:m:k.

    A malformed name raises ParseError; a well-formed one with an
    out-of-range m or k raises BadParameter.
    """
    name, *args = text.strip().lower().split(":")
    try:
        if name in _NAMED_INTERVALS and not args:
            return _NAMED_INTERVALS[name]()
        if name in ("top", "bot", "plain", "leq") and len(args) == 1:
            return IntervalSpec(IntervalFamily[name.upper()], int(args[0]))
        if name == "bits" and len(args) == 2:
            return IntervalSpec(IntervalFamily.BITS, int(args[0]), int(args[1]))
    except ValueError as exc:
        raise ParseError(f"bad interval {text!r}: {exc}") from exc
    raise ParseError(f"unknown interval {text!r}")


def local_base(X: FiniteClosureSpace, x) -> frozenset:
    """The smallest neighborhood of x: {y | x in c(y)}."""
    if x not in X:
        raise MissingPoint(f"{x!r} is not a point of this space")
    return frozenset(y for y in X.points if x in X.closure_map[y])


def point_space(label="*") -> FiniteClosureSpace:
    """The one-point space."""
    return FiniteClosureSpace([label], {label: [label]})


# ---------------------------------------------------------------------------
# file format: { "points": [ids], "closure": { id: [ids] } }

def _canon_point(p):
    """JSON has no tuples; nested lists in a space file become tuples."""
    if isinstance(p, list):
        return tuple(_canon_point(q) for q in p)
    if isinstance(p, dict):
        raise ParseError(f"a point cannot be a JSON object: {p!r}")
    return p


def space_from_json(text: str) -> FiniteClosureSpace:
    """Parse a closure space from its JSON format; enforces reflexivity."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "points" not in data or "closure" not in data:
        raise ParseError('expected an object with "points" and "closure"')
    if not isinstance(data["points"], list) or not data["points"]:
        raise ParseError('"points" must be a nonempty list')
    points = [_canon_point(p) for p in data["points"]]
    by_name = {str(p): p for p in points}
    raw = data["closure"]
    if not isinstance(raw, dict):
        raise ParseError('"closure" must be an object')
    closure_of = {}
    for key, vals in raw.items():
        if key not in by_name:
            raise ParseError(f"closure key {key!r} is not a listed point")
        if not isinstance(vals, list):
            raise ParseError(f"closure of {key!r} must be a list")
        try:
            closure_of[by_name[key]] = [by_name[str(_canon_point(v))] for v in vals]
        except KeyError as exc:
            raise ParseError(f"closure of {key!r} mentions unknown point {exc}") from exc
    try:
        return FiniteClosureSpace(points, closure_of)
    except (MissingPoint, NotReflexive, BadParameter) as exc:
        raise ParseError(str(exc)) from exc


def space_to_json(X: FiniteClosureSpace) -> str:
    """Serialize a closure space to its JSON format."""
    key = {x: repr(x) for x in X.points}
    return json.dumps({
        "points": list(X.points),
        "closure": {str(x): sorted(X.closure_map[x], key=lambda p: key[p])
                    for x in X.points},
    })


def load_space(path) -> FiniteClosureSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_json(fh.read())
