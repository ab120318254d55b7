"""Finite closure spaces: axioms, continuity, constructions, intervals.

A finite closure space is a point set with a reflexive "is near" relation;
the closure of a set is everything near one of its members.  This walk
through builds a few spaces, checks continuity pointwise, and shows the
two product operations and a quotient.
"""
from closuretop import (ContinuousMap, ProductKind, build_space, closure,
                        interior, interval, is_continuous, j1, j_plus,
                        point_space, product, pushout, symmetrize,
                        topological_modification)

# a three point space: z sees x and y, x and y see each other
X = build_space(["x", "y", "z"],
                {"x": {"x", "y"}, "y": {"x", "y"}, "z": {"x", "y", "z"}})
print("closure of {z}:", sorted(closure(X, {"z"})))
print("interior of {x, y}:", sorted(interior(X, {"x", "y"})))

# continuity is the pointwise condition f(c(x)) inside c(f(x))
Y = build_space(["u", "v"], {"u": {"u", "v"}, "v": {"v"}})
print("x->u, y->u, z->v continuous:",
      is_continuous({"x": "u", "y": "u", "z": "v"}, X, Y))

# interval objects: the two-point indiscrete interval and the directed one
J = interval(j1())
Jp = interval(j_plus())
print("indiscrete interval closures:", dict(J.closure_map))
print("directed interval closures:", dict(Jp.closure_map))

# the two products differ: the second one only lets one coordinate move
P_times = product(J, J, ProductKind.PRODUCT)
P_box = product(J, J, ProductKind.INDUCTIVE)
print("corner closure, full product:", sorted(P_times.closure_map[(0, 0)]))
print("corner closure, one-step product:", sorted(P_box.closure_map[(0, 0)]))

# gluing two directed intervals tip to tail with a pushout
from closuretop import j_minus
Jm = interval(j_minus())
S = point_space("s")
f = ContinuousMap(S, Jm, {"s": 1})
g = ContinuousMap(S, Jp, {"s": 0})
G, inl, inr = pushout(f, g)
print("glued zigzag points:", len(G.points))

# symmetrize keeps only the mutual pairs; the topological modification
# makes the closure idempotent
print("symmetrized X:",
      {x: sorted(c) for x, c in symmetrize(X).closure_map.items()})
print("idempotent hull of X:",
      {x: sorted(c) for x, c in topological_modification(X).closure_map.items()})
