"""Partition zeta functions over fixed-length integer partitions.

The central object is the sum of N(lambda)^(-s) over all integer partitions
lambda with exactly k parts, where N(lambda) is the product of the parts.
The package computes it three ways and checks the routes against each other:

  * exactly, at even arguments s = 2m, as a rational multiple of pi^(2mk);
  * numerically on the complex plane, through the explicit formula in
    zeta(s), ..., zeta(ks) over the partitions of k, by an O(k^2) recurrence
    that stops on Re s > 1 once a proven tail bound is below a rounding unit;
  * by brute force, as a truncated direct sum over bounded partitions.

Alongside sit exact q-series verifiers for the partial-fraction
decomposition of the length-k partition generating function and for the
exponential partition identity, and restricted Euler products over
constrained part sets.
"""

from .errors import (
    DivergenceRegion,
    DomainError,
    FitUnstable,
    InvalidForm,
    PoleAt1,
    PoleProximity,
    PrecisionLoss,
)
from .exact import (
    PiPower,
    bernoulli_numbers,
    format_rational,
    partition_zeta_exact,
    zeta2_family_coefficient,
    zeta_even_exact,
)
from .numeric import (
    EvalResult,
    POLE_EXCLUSION_RADIUS,
    PRECISION_LOSS_THRESHOLD,
    ProductForm,
    direct_sum_truncated,
    euler_product_eval,
    partition_zeta_family,
    pole_order_estimate,
    restricted_genfun_coeffs,
    riemann_zeta,
    truncation_error_estimate,
)
from .partitions import enumerate_partitions_of_size
from .qseries import (
    TruncatedSeries,
    faa_di_bruno_check,
    macmahon_exact_identity,
    macmahon_lhs,
    macmahon_rhs,
)

__version__ = "0.1.0"

__all__ = [
    # partitions
    "enumerate_partitions_of_size",
    # exact
    "PiPower",
    "bernoulli_numbers",
    "zeta_even_exact",
    "partition_zeta_exact",
    "zeta2_family_coefficient",
    "format_rational",
    # numeric
    "EvalResult",
    "ProductForm",
    "riemann_zeta",
    "partition_zeta_family",
    "direct_sum_truncated",
    "restricted_genfun_coeffs",
    "truncation_error_estimate",
    "pole_order_estimate",
    "euler_product_eval",
    "POLE_EXCLUSION_RADIUS",
    "PRECISION_LOSS_THRESHOLD",
    # qseries
    "TruncatedSeries",
    "macmahon_lhs",
    "macmahon_rhs",
    "macmahon_exact_identity",
    "faa_di_bruno_check",
    # errors
    "DomainError",
    "PoleAt1",
    "PoleProximity",
    "DivergenceRegion",
    "PrecisionLoss",
    "FitUnstable",
    "InvalidForm",
]
