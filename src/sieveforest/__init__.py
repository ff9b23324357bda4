"""Exact-arithmetic cyclic sieving toolkit for plane trees, b-trees, and
tree-rooted planar maps."""

from .qseries import (NonIntegerValue, NotPolynomial, PoleAtRoot, QPolynomial,
                      QProductExpr, cyclotomic, eval_at_primitive_root,
                      eval_expr_at_root, q_binomial, q_int, q_multinomial,
                      shape_predicates, to_polynomial)
from .trees import (FAMILIES, AllTrees, ByDegrees, ByLeaves, InternalRooted,
                    InternalRootedDeg, LeafRooted, LeafRootedDeg, MarkedTree,
                    PlaneTree, RootDegree, TreeStats, catalan, center,
                    closed_count, degree_distributions, enumerate_family,
                    family_from_descriptor, glue_halves, half_tree, matching,
                    replicate_sector, sector, shift_root, stats)
from .rotations import (FixQuery, INTERNAL, LEAF, ORDINARY, RotationKind,
                        check_rotation_transfer, degree_kind, family_kind,
                        fix_count_bruteforce, fix_count_closed, orbit, rotate,
                        rotation_order)
from .maps import (BT, BTDeg, BTreeWord, CubicHamiltonianMap, NCM,
                   NonCrossingMatching, TMDeg, TMij, TMn, TreeRootedMap,
                   advance_root, closed_count_maps, compose, decompose,
                   enumerate_maps, fix_count_maps, fix_count_maps_closed,
                   from_cubic, rotate_btree, rotate_map, rotate_ncm,
                   rotation_order_maps, to_cubic)
from .bijections import (Degree2NodePresent, Dissection, NonCrossingPartition,
                         NotLeafRooted, dissection_to_tree, kreweras,
                         ncm_to_tree, ncp_to_tree, point_rotation,
                         rotate_dissection, short_edge_count,
                         tree_to_dissection, tree_to_ncm, tree_to_ncp)
from .csp import (ALL_EXPONENTS, CHU_VANDERMONDE_TM, CspInstance, DIVISORS,
                  InfeasibleParams, REFINED_LEAVES, SizeGuardExceeded,
                  THEOREM_IDS, THEOREMS, VerificationReport, build_instance,
                  check_poly_nonneg, check_size_guard, check_sum_identity,
                  verify)

__version__ = "1.0.0"
