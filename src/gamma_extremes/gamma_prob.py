"""Probability functions of the Gamma distribution under study.

h(kappa, alpha) is the chance that a Gamma(alpha, 1) variable falls at or
below kappa times its mean; t(alpha) and band(...) are the probabilities of
the symmetric kappa-standard-deviation window around the mean. Both reduce
to the regularized incomplete gamma and are scale-free in beta.
"""

import math

from .specfun import (
    _MAX_DOUBLE,
    Probability,
    _Record,
    _check_domain,
    _check_positive,
    _finite_variance,
    _probability,
    _reg_lower_gamma,
    reg_lower_gamma,
)

__all__ = ["GammaParams", "h", "t", "band"]


class GammaParams(_Record):
    """Shape/scale parameter pair of a Gamma distribution."""

    _fields = __slots__ = ("alpha", "beta")
    _defaults = (1.0,)

    def _validate(self):
        _check_positive("alpha", self.alpha)
        _check_positive("beta", self.beta)

    @property
    def mean(self):
        return self.alpha * self.beta

    @property
    def variance(self):
        return _finite_variance(self.mean * self.beta, self, "alpha beta^2")


def _overflowed(alpha, x):
    """Whether reg_lower_gamma refused (alpha, x) only because x, an edge
    formed from a finite kappa, overflowed to +inf: P(alpha, x) is 1.0 there.
    h and band ask only after that refusal, so their usual path costs
    nothing more."""
    if x != math.inf:
        return False
    try:
        _check_domain(alpha, 0.0)
    except ValueError:
        return False
    return True


def h(kappa, alpha):
    """P{X <= kappa * E[X]} for X ~ Gamma(alpha, 1); 1.0 where kappa * alpha
    overflows."""
    # a plain float kappa in (0, _MAX_DOUBLE], the usual case, is one that
    # _check_positive returns unchanged
    if not (type(kappa) is float and 0.0 < kappa <= _MAX_DOUBLE):
        kappa = _check_positive("kappa", kappa)
    try:
        return reg_lower_gamma(alpha, kappa * alpha)
    except ValueError:
        if not _overflowed(alpha, kappa * alpha):
            raise
    return Probability(1.0)


def _band_shape(alpha, kappa):
    """P{|X - alpha| <= kappa*sqrt(alpha)} for X ~ Gamma(alpha, 1); 1.0 where
    the upper edge overflows.

    The upper edge's reg_lower_gamma call checks alpha; the lower edge, in
    [0, alpha) once alpha > kappa^2, skips the checks."""
    half_width = kappa * math.sqrt(alpha)
    try:
        upper = reg_lower_gamma(alpha, alpha + half_width)
    except ValueError:
        if not _overflowed(alpha, alpha + half_width):
            raise
        return Probability(1.0)
    if alpha <= kappa * kappa:
        # lower endpoint clamps to 0 exactly
        return _probability(upper)
    lower = _reg_lower_gamma(alpha, alpha - half_width)
    return _probability(upper - lower)


def t(alpha):
    """One-standard-deviation band probability of Gamma(alpha, 1)."""
    return _band_shape(_check_positive("alpha", alpha), 1.0)


def band(params, kappa):
    """P{|X - E[X]| <= kappa * sqrt(Var X)}; independent of the scale beta."""
    return _band_shape(params.alpha, _check_positive("kappa", kappa))
