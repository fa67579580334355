"""Desk-scale laboratory for controlled-support cochains on finite metric
spaces: the two-differential complex, its splitting, radius-R seminorms,
averaging families, and variation profiles across graph test beds.
"""

from .averaging import (ConvBoundReport, DefectReport, PairingReport,
                        ProfileRow, ProfileTable, ReiterFamily,
                        averaged_split, ball_average, conv_norm_audit,
                        convolve, dirac_family, homotopy_defect,
                        lazy_walk_family, normalize_to_prob, pairs_within,
                        repair_unit_sum, tf_identity, transfer_cochain,
                        variation_profile)
from .coefficients import (L1, L1_ZERO, MODULES, SCALAR, PairVector,
                           SupportedVector, as_l1_zero, boundary_pairs,
                           dirac, dirac_diff, entry_gap, include_in_l1,
                           l1_distance, lift_boundary, lift_scalar, pi_sum,
                           scalar_of, zero)
from .cochains import (AuditPoints, AuditRecord, AuditReport, BoundReport,
                       Cochain, SeminormReport, SupportRadiusReport,
                       audit_equal, audit_points, audit_zero, cochain_add,
                       cochain_scale, cochain_sub, constant_one, diff_D,
                       diff_D_norm_audit, diff_d, diff_d_norm_audit,
                       johnson_cocycles, johnson_relations, push_scalar,
                       seminorm, split_s, split_s_norm_audit, support_radius)
from .randomgen import (random_cochain, random_pair_field,
                        random_prob_family, random_unit_sum_cochain,
                        random_x_independent_cochain, random_zero_sum_vector)
from .sequences import (CochainSequence, DecayDiagnostic, DecayThresholds,
                        asymptotic_invariance, counterexample_s_not_invariant,
                        diagnose, fit_log_rate, verdict_of)
from .space import (FiniteMetricSpace, build_graph_metric, derive_seed,
                    generate_family, load_edge_list, scaled_metric)
from .verify import (SUITE_NAMES, VerifyOptions, identity_checks_for,
                     pick_bidegree, pick_module, run_suite, run_suites)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
