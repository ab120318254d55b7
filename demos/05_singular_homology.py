"""Singular homology of closure spaces with exact integer coefficients.

Chains are generated by continuous maps out of cubes (powers of an
interval object) or ordered tuples (simplices); boundaries alternate
faces; homology comes out of an integer Smith normal form, so torsion is
exact, and any prime field or the rationals can be used instead.
"""
from closuretop import (CUBE_J1_TIMES, CUBE_JPLUS_TIMES, ProductKind,
                        complex_chain_complex, complex_from_text,
                        homology, homology_basis, j1, j_plus,
                        product, singular_chain_complex, singular_homology)

# the boundary of a square made of two indiscrete intervals: a circle
P = product(j1(), j1(), ProductKind.INDUCTIVE)
C = singular_chain_complex(P, CUBE_J1_TIMES, 2)
print("chain ranks:", [C.dim(n) for n in range(3)])
print("H_1 of the square boundary:", homology(C, 1))

# the directed analogue keeps one directed loop with no 2-cells at all
Pd = product(j_plus(), j_plus(), ProductKind.INDUCTIVE)
Cd = singular_chain_complex(Pd, CUBE_JPLUS_TIMES, 2)
print("directed square H_1:", homology(Cd, 1))
print("directed square has no nondegenerate relations:",
      all(col == {} for col in Cd.boundary_columns(2)))

# an explicit homology generator with its coordinates
B = homology_basis(C, 1, "z")
print("generator count:", B.dimension)
cycle = B.generators[0]
print("sparse coords {position: coefficient} of the generator in its own "
      "basis:", B.coords(cycle))

# torsion shows up with integer coefficients: a 6-vertex closed surface
# whose H_1 is the cyclic group of order two
surface = complex_from_text(
    "1 2 3\n1 2 6\n1 3 5\n1 4 5\n1 4 6\n"
    "2 3 4\n2 4 5\n2 5 6\n3 4 6\n3 5 6\n", close_downward=True)
S = complex_chain_complex(surface)
print("H_1 over Z:", homology(S, 1))
print("H_1 over F_2:", homology(S, 1, "f2"))
print("H_1 over Q:", homology(S, 1, "q"))
