"""Probability functions of the Gamma distribution under study.

h(kappa, alpha) is the chance that a Gamma(alpha, 1) variable falls at or
below kappa times its mean; t(alpha) and band(...) are the probabilities of
the symmetric kappa-standard-deviation window around the mean. Both reduce
to the regularized incomplete gamma and are scale-free in beta.
"""

import math

from .specfun import Probability, _Record, _check_positive, _finite_variance, reg_lower_gamma

__all__ = [
    "GammaParams",
    "Kappa",
    "QuadratureError",
    "h",
    "t",
    "band",
    "step_monotone_integral",
]


class QuadratureError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""


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


class Kappa(float):
    """A positive finite multiplier of the mean or standard deviation."""

    def __new__(cls, value):
        return super().__new__(cls, _check_positive("kappa", value))


def h(kappa, alpha):
    """P{X <= kappa * E[X]} for X ~ Gamma(alpha, 1)."""
    kappa = Kappa(kappa)
    return reg_lower_gamma(alpha, kappa * alpha)


def _band_shape(alpha, kappa):
    """P{|X - alpha| <= kappa*sqrt(alpha)} for X ~ Gamma(alpha, 1)."""
    half_width = kappa * math.sqrt(alpha)
    upper = reg_lower_gamma(alpha, alpha + half_width)
    if alpha <= kappa * kappa:
        # lower endpoint clamps to 0 exactly
        return Probability(upper)
    lower = reg_lower_gamma(alpha, alpha - half_width)
    return Probability(upper - lower)


def t(alpha):
    """One-standard-deviation band probability of Gamma(alpha, 1)."""
    return _band_shape(_check_positive("alpha", alpha), 1.0)


def band(params, kappa):
    """P{|X - E[X]| <= kappa * sqrt(Var X)}; independent of the scale beta."""
    return _band_shape(params.alpha, float(Kappa(kappa)))


def _legendre(n, x):
    """(P_n(x), P_n'(x)) from the three-term recurrence, for |x| < 1."""
    p_prev, p = 1.0, x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Each node is a root of the Legendre polynomial P_n, found by Newton's
    method from the estimate cos(pi (i + 3/4) / (n + 1/2)) on the
    three-term recurrence (whose Jacobi matrix Golub and Welsch, Math.
    Comp. 1969, diagonalize for the same nodes); its weight is
    2 / ((1 - x^2) P_n'(x)^2). Nodes are placed in mirrored pairs, so the
    rule is exactly symmetric.
    """
    nodes = [0.0] * n
    weights = [0.0] * n
    for i in range((n + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        step = 1.0
        while abs(step) > 1e-15:
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
        _, dp = _legendre(n, x)
        nodes[i], nodes[n - 1 - i] = -x, x
        weights[i] = weights[n - 1 - i] = 2.0 / ((1.0 - x * x) * dp * dp)
    return nodes, weights


# two orders per panel: the higher gives the value, their difference the
# error estimate; the lower alone also integrates iddist's compound Poisson
# band
_RULE_LOW = _gauss_legendre(12)
_RULE_HIGH = _gauss_legendre(16)


def _panel_sum(f, lo, hi, rule):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes, weights = rule
    return half * math.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))


def step_monotone_integral(kappa, alpha):
    """integral_0^1 kappa (1 + w/alpha)^alpha e^(-kappa w) dw.

    A value < 1 certifies the one-step decrease of h(kappa, .) at this
    alpha. The integrand is exponentiated from logs so it stays stable for
    very large alpha, where (1 + w/alpha)^alpha ~ e^w.

    Method: composite Gauss-Legendre on graded panels [0, s], [s, 4s],
    [4s, 16s], ..., [., 1] with s = min(alpha, 1/kappa), one panel [0, 1]
    when s >= 1. For alpha < 1 the integrand has a log branch point at
    w = -alpha, next to the endpoint 0, and for large kappa a boundary
    layer of width 1/kappa; no panel is closer to the branch point than a
    third of its own width, so a fixed-order rule converges geometrically
    on each. Each panel is summed with 16 and with 12 nodes; the 16-node
    sum is returned and the summed absolute differences are the error
    estimate, which must not exceed 1e-10 (else QuadratureError).

    Accuracy, against mpmath at 30 digits: within 5e-16 absolute for
    kappa in [0.01, 4] and alpha in [1e-6, 1e7], and within 3e-15 for
    kappa up to 1e4.
    """
    kappa = Kappa(kappa)
    alpha = _check_positive("alpha", alpha)
    log_kappa = math.log(kappa)

    def integrand(w):
        return math.exp(alpha * math.log1p(w / alpha) - kappa * w + log_kappa)

    edges = [0.0]
    edge = min(alpha, 1.0 / kappa)
    while edge < 1.0:
        edges.append(edge)
        edge *= 4.0
    edges.append(1.0)
    high, low = [], []
    for lo, hi in zip(edges, edges[1:]):
        high.append(_panel_sum(integrand, lo, hi, _RULE_HIGH))
        low.append(_panel_sum(integrand, lo, hi, _RULE_LOW))
    abserr = math.fsum(abs(a - b) for a, b in zip(high, low))
    if abserr > 1e-10:
        raise QuadratureError(
            f"quadrature error estimate {abserr} exceeds 1e-10 for kappa={float(kappa)}, alpha={alpha}"
        )
    return math.fsum(high)
