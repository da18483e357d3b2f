"""Exact and numeric verification of level-five theta-constant identities.

Layers, bottom up: exact cyclotomic arithmetic, truncated two-variable
Puiseux series, theta q-expansions, a declarative identity catalog, the exact
verifier and numeric relation discovery, floating-point evaluation with
contour-integral residues, cyclotomic resultants, and the divisor-sum
consequence.  The `theta5` console script fronts all of it.
"""

from .catalog import (Argument, ExpectedStatus, Identity, IdentityKind,
                      IdentityTerm, ThetaFactor, corrupt_identity,
                      identity_from_dict, identity_to_dict, load_catalog,
                      normalize_identity, parse_scalar, save_catalog)
from .catalog_data import CORPUS_SIZE, builtin_catalog
from .cyclotomic import (MAX_ORDER, Cyclotomic, cyclotomic_polynomial,
                         cyclo_root, exp_pi_i)
from .divisors import ArithReport, delta, sigma, verify_sigma_convolution
from .numeric import (PHI_WITNESS, PSI_WITNESS, RESIDUE_WITNESSES, EvalConfig,
                      ResidueWitness, contour_residue, identity_residual,
                      residue_report, sample_tau, sample_zeta,
                      theta_deriv_eval, theta_eval, zero_location_check)
from .resultant import (poly_degree, resultant, resultant_2x2,
                        shared_root_ratio, sylvester_matrix, theta_quadratics)
from .series import ExponentPair, PuiseuxSeries2
from .theta import (Characteristic, ThetaMode, reduce_char, shift_half_period,
                    shift_integer, theta_deriv_series, theta_product_series,
                    theta_series, theta_zero_point)
from .verify import (DiscoveredRelation, VerificationReport,
                     discover_relations, reports_to_json, verify_all,
                     verify_exact, zeta_grid)

__version__ = "0.1.0"
