"""Probability functions of the Gamma distribution under study.

h(kappa, alpha) is the chance that a Gamma(alpha, 1) variable falls at or
below kappa times its mean; t(alpha) and band(...) are the probabilities of
the symmetric kappa-standard-deviation window around the mean. Both reduce
to the regularized incomplete gamma and are scale-free in beta. The law has
one type, GammaDist, also iddist's Gamma member; GammaParams is its alias.
"""

import math

from .specfun import (
    _MAX_DOUBLE,
    MAX_SHAPE,
    TEMME_MIN_SHAPE,
    Probability,
    _Record,
    _check_domain,
    _check_positive,
    _deviance,
    _finite_variance,
    _large_shape_lower,
    _probability,
    _temme_band,
    reg_lower_gamma,
)

# GammaDist is exported by iddist, the catalog of laws it belongs to
__all__ = ["GammaParams", "h", "t", "band"]


class GammaDist(_Record):
    """Gamma(alpha, beta), shape and scale."""

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

    def moments(self):
        return self.mean, self.variance

    def band(self):
        return band(self, 1.0)


GammaParams = GammaDist


def _infinite_edge(alpha):
    """P(alpha, +inf) = 1.0 at an edge that overflowed, alpha checked as reg_lower_gamma does."""
    _check_domain(alpha, 0.0)
    return Probability(1.0)


def h(kappa, alpha):
    """P{X <= kappa * E[X]} for X ~ Gamma(alpha, 1); 1.0 where kappa * alpha
    overflows.

    From shape TEMME_MIN_SHAPE up, at kappa in [1/2, 2], the exponent comes
    from the edge's offset d = (kappa - 1) alpha, one rounding of d itself
    (kappa - 1 is exact there, Sterbenz), through specfun._deviance, not
    from x = fl(kappa alpha), whose rounding moves P by up to
    |kappa - 1| alpha ulp(x) / (2x) relative: at kappa = 0.95 and alpha in
    [3e5, 5e5] 1.5e-12 against 40-digit mpmath at the exact product, where
    the offset leaves 1.8e-13, the exponent's own rounding. Elsewhere, as
    below that shape, it is reg_lower_gamma at x."""
    # a plain float kappa in (0, _MAX_DOUBLE], the usual case, is one that
    # _check_positive returns unchanged
    if not (type(kappa) is float and 0.0 < kappa <= _MAX_DOUBLE):
        kappa = _check_positive("kappa", kappa)
    if (0.5 <= kappa <= 2.0 and (type(alpha) is float or type(alpha) is int)
            and TEMME_MIN_SHAPE <= alpha <= MAX_SHAPE):
        d = (kappa - 1.0) * alpha
        return _large_shape_lower(alpha, d, kappa * alpha, -_deviance(alpha, d))
    x = kappa * alpha
    if x == math.inf:
        return _infinite_edge(alpha)
    return reg_lower_gamma(alpha, x)


def _band_shape(alpha, kappa):
    """P{|X - alpha| <= kappa*sqrt(alpha)} for X ~ Gamma(alpha, 1); 1.0 where
    the upper edge overflows.

    From shape TEMME_MIN_SHAPE up, where both edges lie in Temme's band,
    specfun._temme_band takes them in one frame from their offsets
    +-kappa sqrt(alpha), never rounding alpha +- kappa sqrt(alpha): within
    3e-16 relative, where the rounded edges cost up to 5.7e-13, and
    t(alpha) in ~4.8 us against ~6.6 for two calls (CPython 3.11, mean
    over alpha log-uniform in [1e2, 1e7]). Elsewhere, as below that shape,
    both rounded edges take reg_lower_gamma, whose call at the upper edge
    checks alpha; the lower edge lies in [0, alpha) once alpha > kappa^2."""
    half_width = kappa * math.sqrt(alpha)
    if TEMME_MIN_SHAPE <= alpha <= MAX_SHAPE and half_width <= 0.5 * alpha:
        band = _temme_band(alpha, half_width)
        if band is not None:
            return band
    x = alpha + half_width
    if x == math.inf:
        return _infinite_edge(alpha)
    upper = reg_lower_gamma(alpha, x)
    if alpha <= kappa * kappa:
        # lower endpoint clamps to 0 exactly
        return _probability(upper)
    lower = reg_lower_gamma(alpha, alpha - half_width)
    return _probability(upper - lower)


def t(alpha):
    """One-standard-deviation band probability of Gamma(alpha, 1)."""
    # a plain float alpha in (0, _MAX_DOUBLE] is one that _check_positive
    # returns unchanged
    if not (type(alpha) is float and 0.0 < alpha <= _MAX_DOUBLE):
        alpha = _check_positive("alpha", alpha)
    return _band_shape(alpha, 1.0)


def band(params, kappa):
    """P{|X - E[X]| <= kappa * sqrt(Var X)}; independent of the scale beta."""
    return _band_shape(params.alpha, _check_positive("kappa", kappa))
