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

Importing the package loads only the float stack: ``specfun``,
``gamma_prob`` and ``optimize``. The exact stack (``exact_poly`` and
``certificates``, which bring in ``fractions``) and ``iddist`` load on
first access to one of their names, such as ``gamma_extremes.verify_all``.
"""

import sys

from . import gamma_prob, optimize, specfun
from .gamma_prob import *
from .optimize import *
from .specfun import *

__version__ = "0.1.0"

# the exports of the modules loaded on first access, in __all__ order;
# tests/test_imports.py checks each tuple against its module's __all__
_LAZY_EXPORTS = {
    "exact_poly": (
        "RationalPoly", "EndpointRoot", "sturm_sequence", "sturm_roots_in_interval",
        "verify_sign_on_interval",
    ),
    "certificates": (
        "CertificateReport", "Case1Report", "CertificateMismatch", "SignViolation",
        "NumericMismatch", "build_P_Q", "verify_chain_plus", "verify_chain_minus",
        "verify_small_alpha_certificate", "verify_case2_J", "verify_case1_transcendental",
        "verify_all", "format_records",
    ),
    "iddist": (
        "Poisson", "NegativeBinomial", "InverseGaussian", "CompoundPoissonExp", "GammaDist",
        "NormalBaseline", "DistributionSpec", "ScanReport", "moments", "band_prob",
        "conjecture_scan", "default_grid", "FAMILIES",
    ),
}
# each lazy module, and each of its exports, to the module's name
_LAZY_OWNER = {
    name: module for module, names in _LAZY_EXPORTS.items() for name in (module, *names)
}

__all__ = [
    "__version__",
    *specfun.__all__,
    *gamma_prob.__all__,
    *optimize.__all__,
    *(name for names in _LAZY_EXPORTS.values() for name in names),
]


def __getattr__(name):
    """A lazy module or one of its exports (PEP 562). An export is read from
    its module on every access, not cached here, so it is always the
    module's current binding."""
    owner = _LAZY_OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{owner}"
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(qualified)
    module = sys.modules[qualified]
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_OWNER})
