"""Exact symmetric-function engine and majorization inequality laboratory.

Monic Macdonald and Jack polynomials with exact rational arithmetic, the
classical bases, the labeled evaluation lattice with its interpolation and
binomial identities, hypergeometric functions by recursive quadrature, and
sweep drivers that verify Schur-convexity and log-convexity statements or
construct explicit counterexample points.
"""

from ._version import __version__
from .cache import ExpansionCache, activate, active_cache
from .classical import (expand_classical, muirhead_eval, muirhead_gap,
                        powersum_compare, powersum_eval)
from .errors import (CacheFormatError, CertificationError, DegeneracyError,
                     DimensionMismatchError, DomainError, OmegalabError,
                     OperatorRowError, ParameterError, TieError)
from .heckman_opdam import (HOParams, QuadratureConfig, ho_closed_forms,
                            ho_direction_residual, ho_error_estimate,
                            ho_eval, ho_jack_consistency)
from .jack import (JackParam, jack_expand, jack_limit_probe, omega_jack_eval)
from .lab import (InequalityReport, Witness, check_log_convexity,
                  check_schur_convexity, check_weak_majorization,
                  find_witness, hunt_report, hunt_violation)
from .macdonald import (LatticePoint, MacdonaldParams, ShiftedMacdonald,
                        binomial_check, interpolation_node, inversion_check,
                        lattice_point, macdonald_expand, omega_mac_eval,
                        rational_power, shifted_macdonald)
from .partitions import (Partition, contains, enumerate_pairs,
                         enumerate_partitions, majorizes, midpoint,
                         partitions_of, weakly_majorizes)
from .sampling import RationalSampler
from .sympoly import (SymmetricPolynomial, parse_poly, poly_eval,
                      poly_eval_float, poly_multiply, serialize_poly)

__all__ = [name for name in dir() if not name.startswith("_")]
