"""Persistence diagrams, towers, bottleneck distance, interleavings.

Two routes to the same diagram: reduce the filtered complex directly, or
compute the homology of every stage and extract bars in one sweep of the
structure maps along the grid, where the older of two merging classes
lives on (the elder rule).
"""
from fractions import Fraction

from closuretop import (SIMPLEX_J1, bottleneck, filtered_from_metric,
                        filtered_from_sublevel, inclusion_interleaving_maps,
                        metric_from_matrix, persistence_complex,
                        persistence_tower, build_space, tower_to_diagram,
                        verify_interleaving)

pts = ["a", "b", "c", "d"]
d = [[0, 1, 2, 1],
     [1, 0, 1, 2],
     [2, 1, 0, 1],
     [1, 2, 1, 0]]
F = filtered_from_metric(metric_from_matrix(pts, d))

# route one: coboundary reduction of the filtered complex over F_2
diagrams = persistence_complex(F, "vr", max_dim=1)
print("degree 0 bars:", diagrams[0].sorted_pairs())
print("degree 1 bars:", diagrams[1].sorted_pairs())

# route two: tower of stage homologies, swept by the elder rule
T = persistence_tower(F, "complex-vr", 1, "f2")
print("tower dims:", T.dims)
print("tower diagram:", tower_to_diagram(T).sorted_pairs())

# bottleneck distance between the square and a slightly longer rectangle
d2 = [[0, 1, 3, 2],
      [1, 0, 2, 3],
      [3, 2, 0, 1],
      [2, 3, 1, 0]]
F2 = filtered_from_metric(metric_from_matrix(pts, d2))
D2 = persistence_complex(F2, "vr", max_dim=1)
print("bottleneck in degree 1:", bottleneck(diagrams[1], D2[1]))

# close sublevel functions give interleaved towers; verify the identities
X = build_space(["a", "b", "c"],
                {"a": {"a", "b"}, "b": {"a", "b"}, "c": {"b", "c"}})
f = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(2)}
g = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}
eps = max(abs(f[p] - g[p]) for p in X.points)
grid = tuple(sorted({v for v in list(f.values()) + list(g.values())} |
                    {v + eps for v in list(f.values()) + list(g.values())}))
M = persistence_tower(filtered_from_sublevel(X, f), SIMPLEX_J1, 0, "f2",
                      grid=grid)
N = persistence_tower(filtered_from_sublevel(X, g), SIMPLEX_J1, 0, "f2",
                      grid=grid)
phi = inclusion_interleaving_maps(M, N, eps)
psi = inclusion_interleaving_maps(N, M, eps)
print(f"towers {eps}-interleaved:", verify_interleaving(M, N, eps, phi, psi))
