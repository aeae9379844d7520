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

from . import certificates, exact_poly, gamma_prob, iddist, optimize, specfun
from .certificates import *
from .exact_poly import *
from .gamma_prob import *
from .iddist import *
from .optimize import *
from .specfun import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *specfun.__all__,
    *gamma_prob.__all__,
    *optimize.__all__,
    *exact_poly.__all__,
    *certificates.__all__,
    *iddist.__all__,
]
