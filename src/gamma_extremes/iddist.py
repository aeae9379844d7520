"""Catalog of infinitely divisible distributions and a grid scanner for the
one-standard-deviation band inequality.

Every family here is infinitely divisible (a documented property, not
machine-checked). band_prob computes P{|L - E[L]| <= sqrt(Var L)} in closed
form per family; conjecture_scan sweeps a parameter grid looking for band
probabilities below the standard normal band. The underlying question is
open: scans produce evidence only, and reports say so.
"""

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Union

from .gamma_prob import GammaParams, band
from .specfun import (
    Probability,
    ln_gamma,
    log_std_normal_sf,
    std_normal_band,
    std_normal_cdf,
)

__all__ = [
    "Poisson",
    "NegativeBinomial",
    "InverseGaussian",
    "CompoundPoissonExp",
    "GammaDist",
    "NormalBaseline",
    "DistributionSpec",
    "ScanReport",
    "moments",
    "band_prob",
    "conjecture_scan",
    "default_grid",
    "FAMILIES",
]

_VIOLATION_SLACK = 1e-9

NEGBINOMIAL_CONVENTION = "negative binomial counts failures before the r-th success"
EVIDENCE_NOTE = (
    "evidence only: the band inequality is an open question — "
    "a clean scan is not a proof and a violation would be a disproof candidate"
)


def _check_positive(name, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        _check_positive("lam", self.lam)


@dataclass(frozen=True)
class NegativeBinomial:
    """Number of failures before the r-th success, success probability p."""

    r: float
    p: float

    def __post_init__(self):
        _check_positive("r", self.r)
        if not (isinstance(self.p, (int, float)) and 0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")


@dataclass(frozen=True)
class InverseGaussian:
    mu: float
    shape: float

    def __post_init__(self):
        _check_positive("mu", self.mu)
        _check_positive("shape", self.shape)


@dataclass(frozen=True)
class CompoundPoissonExp:
    """Poisson(rate) many i.i.d. Exponential(jump_scale) jumps."""

    rate: float
    jump_scale: float

    def __post_init__(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_scale", self.jump_scale)


@dataclass(frozen=True)
class GammaDist(GammaParams):
    """Gamma(alpha, beta) as a member of the catalog."""


@dataclass(frozen=True)
class NormalBaseline:
    """Standard normal reference point; band_prob is the conjectured bound."""


DistributionSpec = Union[
    Poisson, NegativeBinomial, InverseGaussian, CompoundPoissonExp, GammaDist, NormalBaseline
]


@dataclass(frozen=True)
class ScanReport:
    family: str
    grid: tuple
    min_band: Probability
    argmin_params: DistributionSpec
    violations: tuple
    threshold: float
    notes: tuple


def moments(spec):
    """Closed-form (mean, variance) of the distribution."""
    if isinstance(spec, Poisson):
        return spec.lam, spec.lam
    if isinstance(spec, NegativeBinomial):
        q = 1.0 - spec.p
        return spec.r * q / spec.p, spec.r * q / spec.p ** 2
    if isinstance(spec, InverseGaussian):
        return spec.mu, spec.mu ** 3 / spec.shape
    if isinstance(spec, CompoundPoissonExp):
        mean = spec.rate * spec.jump_scale
        return mean, 2.0 * spec.rate * spec.jump_scale ** 2
    if isinstance(spec, GammaDist):
        return spec.mean, spec.variance
    if isinstance(spec, NormalBaseline):
        return 0.0, 1.0
    raise TypeError(f"not a distribution spec: {spec!r}")


def _integer_band(mean, sd):
    """Integers k >= 0 with |k - mean| <= sd, endpoints inclusive."""
    lo = max(0, math.ceil(mean - sd))
    hi = math.floor(mean + sd)
    return lo, hi


def _poisson_band(lam):
    mean, sd = lam, math.sqrt(lam)
    lo, hi = _integer_band(mean, sd)
    if hi < lo:
        return Probability(0.0)
    log_lam = math.log(lam)
    total = 0.0
    for k in range(lo, hi + 1):
        total += math.exp(k * log_lam - lam - ln_gamma(k + 1.0))
    return Probability(total)


def _negbinomial_band(r, p):
    mean = r * (1.0 - p) / p
    sd = math.sqrt(r * (1.0 - p)) / p
    lo, hi = _integer_band(mean, sd)
    if hi < lo:
        return Probability(0.0)
    # pmf(0) = p^r, then pmf(k+1) = pmf(k) (k + r)(1 - p)/(k + 1)
    pmf = math.exp(r * math.log(p))
    total = pmf if lo == 0 else 0.0
    q = 1.0 - p
    for k in range(hi):
        pmf *= (k + r) * q / (k + 1.0)
        if k + 1 >= lo:
            total += pmf
    return Probability(total)


def _inverse_gaussian_cdf(x, mu, shape):
    """Closed-form CDF through the standard normal CDF, overflow-safe."""
    if x <= 0.0:
        return 0.0
    root = math.sqrt(shape / x)
    first = std_normal_cdf(root * (x / mu - 1.0))
    # second term: e^(2 shape/mu) Phi(-root (x/mu + 1)); combine in logs so the
    # exploding exponential and the vanishing tail cancel before exponentiating
    log_second = 2.0 * shape / mu + log_std_normal_sf(root * (x / mu + 1.0))
    return first + math.exp(log_second)


def _inverse_gaussian_band(mu, shape):
    mean, variance = mu, mu ** 3 / shape
    sd = math.sqrt(variance)
    upper = _inverse_gaussian_cdf(mean + sd, mu, shape)
    lower = _inverse_gaussian_cdf(mean - sd, mu, shape)
    return Probability(upper - lower)


def _poisson_window_pmf(mean, lo, hi):
    """Poisson(mean) pmf at lo..hi, normalised; built from 1 at the mode, not e^-mean."""
    mode = int(mean)
    up = accumulate((mean / k for k in range(mode + 1, hi + 1)), operator.mul, initial=1.0)
    down = list(accumulate((k / mean for k in range(mode, lo, -1)), operator.mul, initial=1.0))
    pmf = down[:0:-1] + list(up)
    total = math.fsum(pmf)
    return [p / total for p in pmf]


def _compound_poisson_exp_band(rate):
    """Band mass of S, a sum of Poisson(rate) many Exponential(1) jumps (the band
    is scale-free). S <= x exactly when a unit-rate Poisson process has at least
    N points in [0, x], so F(x) = P{S <= x} = sum_k Pois_x(k) F_rate(k), F_rate
    the Poisson(rate) CDF: no incomplete gamma, and the N = 0 atom is in F. The
    band mass is F(H) - F(L) for H, L = rate +- sqrt(2 rate), or F(H) if L <= 0.

    Poisson(mu) has mass < e^-T beyond mu +- t once t^2 >= 2 T (mu + t/3)
    (Bernstein above, Chernoff below). Solved at mu = H, T = 40, the window
    [L - t, H + t] serves all three pmfs, drops < 5 e^-40 ~ 2e-17 and has
    O(sqrt(rate)) terms. Within ~1e-15 of 40-digit mpmath at the double band
    edges up to rate 1e6; rounding the edges adds < 1e-15 up to rate 1e3,
    ~1e-14 at 1e6, ~1e-13 at 1e7. Larger rates are refused (memory ~ sqrt(rate)).
    """
    if rate > 1e7:
        raise ValueError(f"compound Poisson band needs rate <= 1e7, got {rate!r}")
    sd = math.sqrt(2.0 * rate)
    lower, upper = rate - sd, rate + sd
    t = (40.0 + math.sqrt(1600.0 + 720.0 * upper)) / 3.0  # t^2 = 2 T (H + t/3) at T = 40
    lo, hi = max(0, math.floor(lower - t)), math.ceil(upper + t)
    cdf_rate = list(accumulate(_poisson_window_pmf(rate, lo, hi)))
    pmf = _poisson_window_pmf(upper, lo, hi)
    if lower > 0.0:
        pmf = map(operator.sub, pmf, _poisson_window_pmf(lower, lo, hi))
    return Probability(math.fsum(map(operator.mul, pmf, cdf_rate)))


def band_prob(spec):
    """P{|L - E[L]| <= sqrt(Var L)} for the given distribution."""
    if isinstance(spec, Poisson):
        return _poisson_band(spec.lam)
    if isinstance(spec, NegativeBinomial):
        return _negbinomial_band(spec.r, spec.p)
    if isinstance(spec, InverseGaussian):
        return _inverse_gaussian_band(spec.mu, spec.shape)
    if isinstance(spec, CompoundPoissonExp):
        return _compound_poisson_exp_band(spec.rate)
    if isinstance(spec, GammaDist):
        return band(spec, 1.0)
    if isinstance(spec, NormalBaseline):
        return std_normal_band(1.0)
    raise TypeError(f"not a distribution spec: {spec!r}")


def _log_grid(lo, hi, n):
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (n - 1)
    return [math.exp(log_lo + i * step) if i < n - 1 else hi for i in range(n)]


def _lin_grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step if i < n - 1 else hi for i in range(n)]


def default_grid(family):
    """The stock parameter grid for a family (desk-scale runtimes)."""
    if family == "gamma":
        return tuple(GammaDist(a) for a in _log_grid(1e-3, 1e5, 200))
    if family == "poisson":
        return tuple(Poisson(lam) for lam in _log_grid(0.01, 1e3, 200))
    if family == "negbinomial":
        return tuple(
            NegativeBinomial(r, p)
            for r in _log_grid(0.1, 100.0, 50)
            for p in _lin_grid(0.05, 0.95, 50)
        )
    if family == "invgaussian":
        return tuple(
            InverseGaussian(mu, shape)
            for mu in _log_grid(0.01, 100.0, 50)
            for shape in _log_grid(0.01, 100.0, 50)
        )
    if family == "compound_poisson_exp":
        # the band probability is scale-free, so only the rate is swept
        return tuple(CompoundPoissonExp(rate, 1.0) for rate in _log_grid(0.01, 1e3, 200))
    if family == "normal":
        return (NormalBaseline(),)
    raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")


FAMILIES = ("gamma", "poisson", "negbinomial", "invgaussian", "compound_poisson_exp", "normal")


def conjecture_scan(family, grid=None, threshold=None):
    """Sweep band_prob over a grid, recording the minimum and any entries
    strictly below threshold - 1e-9 (slack absorbs quadrature error)."""
    if grid is None:
        grid = default_grid(family)
    grid = tuple(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if threshold is None:
        threshold = std_normal_band(1.0)
    threshold = float(threshold)

    min_band = None
    argmin = None
    violations = []
    for spec in grid:
        value = band_prob(spec)
        if min_band is None or value < min_band:
            min_band, argmin = value, spec
        if value < threshold - _VIOLATION_SLACK:
            violations.append((spec, value))

    notes = [EVIDENCE_NOTE]
    if family == "negbinomial":
        notes.append(NEGBINOMIAL_CONVENTION)
    return ScanReport(
        family=family,
        grid=grid,
        min_band=Probability(min_band),
        argmin_params=argmin,
        violations=tuple(violations),
        threshold=threshold,
        notes=tuple(notes),
    )
