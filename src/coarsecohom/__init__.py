"""Desk-scale laboratory for controlled-support cochains on finite metric
spaces: the two-differential complex, its splitting, radius-R seminorms,
averaging families, and variation profiles across graph test beds.
"""

from .averaging import (ProfileRow, ProfileTable, ReiterFamily, ball_average,
                        conv_norm_audit, convolve, dirac_family,
                        homotopy_defect, lazy_walk_family, normalize_to_prob,
                        tf_identity, transfer_cochain, variation_profile)
from .coefficients import (L1, L1_ZERO, MODULES, SCALAR, PairVector,
                           SupportedVector, boundary_pairs, dirac, dirac_diff,
                           entry_gap, include_in_l1, lift_boundary,
                           lift_scalar, pi_sum, zero)
from .cochains import (AuditPoints, Check, Cochain, audit_equal, audit_points,
                       audit_zero, cochain_add, cochain_scale, cochain_sub,
                       diff_D, diff_D_norm_audit, diff_d, diff_d_norm_audit,
                       johnson_cocycles, johnson_relations, seminorm, split_s,
                       split_s_norm_audit)
from .randomgen import (random_cochain, random_pair_field,
                        random_prob_family, random_unit_sum_cochain,
                        random_x_independent_cochain, random_zero_sum_vector)
from .sequences import (DecayDiagnostic, DecayThresholds,
                        counterexample_s_not_invariant, diagnose,
                        fit_log_rate, verdict_of)
from .space import (FiniteMetricSpace, build_graph_metric, derive_seed,
                    generate_family, load_edge_list, scaled_metric)
from .verify import (SUITE_NAMES, VerifyOptions, identity_checks_for,
                     pick_bidegree, pick_module, run_suite, run_suites)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
