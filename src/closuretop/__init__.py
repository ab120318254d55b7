"""Computational topology on finite closure spaces.

A finite closure space is a point set with a reflexive singleton-closure
assignment (equivalently a digraph with loops).  The package builds
homotopy relations driven by interval objects, singular cubical and
simplicial homology, Vietoris-Rips and Cech complexes, persistence of
filtered spaces, and Gromov-Hausdorff style stability checks.
"""

from .errors import (BadParameter, BoundExceeded, CapExceeded, ClosureError,
                     DegreeOutOfRange, DimensionTooLarge, InfinityMismatch,
                     MissingPoint, NegativeEpsilon,
                     NotACorrespondence, NotContinuous, NotReflexive,
                     ParseError, ShapeMismatch, SourceTargetMismatch)
from .spaces import (ContinuousMap, FiniteClosureSpace, ProductKind,
                     build_space, closure, coequalizer, coproduct, interior,
                     is_closed, is_continuous, is_open, is_symmetric, j1,
                     j_bits, j_bot, j_leq, j_minus, j_plain, j_plus, j_top,
                     load_space, local_base, point_space, product,
                     product_power, pushout, qd, relabel, reverse,
                     space_from_json, space_to_json, subspace, symmetrize,
                     topological_modification)
from .filtrations import (Decoration, FilteredClosureSpace, FiniteMetric,
                          WeightedDigraph, digraph_from_text,
                          filtered_from_metric, filtered_from_sublevel,
                          filtered_from_weighted_digraph, l1_product,
                          linf_product, metric_closure, metric_from_csv,
                          metric_from_matrix, parse_number, stage_at,
                          sublevel_from_csv)
from .complexes import (Hypergraph, SimplicialComplex, SimplicialMap, cech,
                        complex_from_text, complex_to_text, contiguous,
                        cosk1, cosk_inf, dc, g_functor, gamma,
                        is_hypergraph_map, is_simplicial, load_complex, tr1,
                        tr_inf, vr)
from .homotopy import (HomotopyQuery, HomotopyWitness, OneStepWitness,
                       enumerate_continuous_maps, homotopic, homotopy_core,
                       homotopy_equivalent, is_contractible,
                       one_step_homotopic)
from .homology import (CUBE_J1_BOX, CUBE_J1_TIMES, CUBE_JPLUS_BOX,
                       CUBE_JPLUS_TIMES, SIMPLEX_J1, SIMPLEX_JPLUS,
                       ChainComplex, HomologyGroup, Theory,
                       complex_chain_complex, enumerate_shapes, homology,
                       homology_basis, induced_map, induced_map_between,
                       parse_coefficients, parse_theory,
                       singular_chain_complex, singular_homology,
                       singular_homology_groups)
from .persistence import (PersistenceDiagram, Tower, bottleneck,
                          check_correspondence, diagram_from_json,
                          diagram_to_json, distortion, gh_distance,
                          inclusion_interleaving_maps, load_diagram,
                          persistence_complex, persistence_tower,
                          tower_to_diagram, verify_interleaving)

__version__ = "0.1.0"
