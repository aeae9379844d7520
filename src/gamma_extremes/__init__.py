"""Extreme values of Gamma-distribution probability functions.

A library and CLI that

- evaluates the probability that a Gamma variable falls at or below a
  multiple of its mean, and the probability of the symmetric band around
  the mean (``specfun``, ``gamma_prob``);
- locates the interior minima of those functions over the shape parameter
  (``optimize``);
- machine-verifies, in exact rational arithmetic, the polynomial sign
  certificates behind the band-probability monotonicity and its sharp
  lower bound, including its one transcendental step (``exact_poly``,
  ``certificates``);
- scans families of infinitely divisible distributions for violations of
  the conjectured band inequality (``iddist``).
"""

from .certificates import (
    Case1Report,
    CertificateMismatch,
    CertificateReport,
    NumericMismatch,
    SignViolation,
    SpotCheck,
    build_P_Q,
    verify_all,
    verify_case1_transcendental,
    verify_case2_J,
    verify_chain_minus,
    verify_chain_plus,
    verify_small_alpha_certificate,
)
from .exact_poly import (
    EndpointRoot,
    RationalPoly,
    sturm_roots_in_interval,
    sturm_sequence,
    verify_sign_on_interval,
)
from .gamma_prob import (
    GammaParams,
    Kappa,
    QuadratureError,
    band,
    h,
    step_monotone_integral,
    t,
)
from .iddist import (
    CompoundPoissonExp,
    DistributionSpec,
    GammaDist,
    InverseGaussian,
    NegativeBinomial,
    NormalBaseline,
    Poisson,
    ScanReport,
    band_prob,
    conjecture_scan,
    default_grid,
    moments,
)
from .optimize import (
    MaxEvaluations,
    NoInteriorMinimum,
    OptimizationResult,
    bracket_minimum,
    brent_min,
    min_h,
    scan,
)
from .specfun import (
    ConvergenceError,
    LogProbability,
    Probability,
    ln_gamma,
    log_std_normal_sf,
    lower_series,
    reg_lower_gamma,
    std_normal_band,
    std_normal_cdf,
    upper_continued_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # specfun
    "Probability", "LogProbability", "ConvergenceError", "ln_gamma", "reg_lower_gamma",
    "lower_series", "upper_continued_fraction", "std_normal_band",
    "std_normal_cdf", "log_std_normal_sf",
    # gamma_prob
    "GammaParams", "Kappa", "QuadratureError", "h", "t", "band",
    "step_monotone_integral",
    # optimize
    "OptimizationResult", "NoInteriorMinimum", "MaxEvaluations",
    "bracket_minimum", "brent_min", "min_h", "scan",
    # exact_poly
    "RationalPoly", "EndpointRoot", "sturm_sequence", "sturm_roots_in_interval",
    "verify_sign_on_interval",
    # certificates
    "CertificateReport", "SpotCheck", "Case1Report", "CertificateMismatch",
    "SignViolation", "NumericMismatch", "build_P_Q", "verify_chain_plus",
    "verify_chain_minus", "verify_small_alpha_certificate", "verify_case2_J",
    "verify_case1_transcendental", "verify_all",
    # iddist
    "Poisson", "NegativeBinomial", "InverseGaussian", "CompoundPoissonExp",
    "GammaDist", "NormalBaseline", "DistributionSpec", "ScanReport",
    "moments", "band_prob", "conjecture_scan", "default_grid",
]
