"""Searching for homotopies between continuous maps.

Two maps are one-step homotopic when they are the ends of a continuous
map out of the cylinder X x J for an interval object J; chains of such
steps give the full relation.  The search enumerates all continuous maps,
builds the one-step adjacency, and walks it breadth first, returning a
verifiable witness chain.
"""
from closuretop import (ContinuousMap, HomotopyQuery, ProductKind,
                        build_space, is_contractible, j1, j_plain,
                        j_plus, homotopic, homotopy_equivalent, point_space)

# constants at the two ends of a three point path need two steps
P3 = j_plain(2)
c0 = ContinuousMap.constant(P3, P3, 0)
c2 = ContinuousMap.constant(P3, P3, 2)
q = HomotopyQuery(interval=j1(), product=ProductKind.PRODUCT)
w = homotopic(c0, c2, q)
print("steps needed:", w.step_count)
for i, stage in enumerate(w.stages):
    print(f"  stage {i}:", stage)

# a disconnected target separates the constants for good
D = build_space(["a", "b"], {"a": {"a"}, "b": {"b"}})
S = point_space("s")
f = ContinuousMap(S, D, {"s": "a"})
g = ContinuousMap(S, D, {"s": "b"})
print("constants into two components homotopic:",
      homotopic(f, g, q) is not None)

# direction matters for the directed interval
qp = HomotopyQuery(interval=j_plus(), product=ProductKind.PRODUCT)
print("directed interval contractible (directed steps):",
      is_contractible(j_plus(), qp) is not None)
print("two point indiscrete space equivalent to the point:",
      homotopy_equivalent(j1(), point_space(), q) is not None)
