"""Catalog of infinitely divisible distributions and a grid scanner for the
one-standard-deviation band inequality.

Every family here is infinitely divisible (a documented property, not
machine-checked). Each family is one immutable record with two methods:
moments() gives (mean, variance) and band() gives P{|L - E[L]| <= sqrt(Var L)},
both in closed form; moments(spec) and band_prob(spec) call them. The
lattice bands (Poisson, negative binomial, compound Poisson) sum pmfs from
one builder, _lattice_pmf: the ratio recursion run up and down from the pmf
at the mode, clamped into the summed range. That anchor is Loader's
saddle-point form (C. Loader, Fast and Accurate Computation of Binomial
Probabilities, 2000), within a few ulp in O(1), so no band needs a
normalising pass, nor a walk from k = 0 but the negative binomial's below
r = 10. conjecture_scan sweeps a parameter grid looking for band
probabilities below the standard normal band. The underlying question is
open: scans produce evidence only, and reports say so.
"""

import math
import operator
from itertools import accumulate

from . import gamma_prob
from .optimize import _lin_grid, _log_grid
from .specfun import (
    Probability,
    _Record,
    _bd0,
    _check_positive,
    _stirlerr,
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
# largest mean a Poisson band takes; its pmf terms grow like sqrt(mean)
_MAX_WINDOW_MEAN = 1e7
# below this r the negative binomial walks from pmf(0) = p^r: stirlerr(r)
# has a cheap accurate form only from 10 up
_STIRLERR_MIN_SHAPE = 10.0
# most pmf terms a negative binomial band sums; its time is linear in them
_MAX_BAND_TERMS = 10 ** 6

NEGBINOMIAL_CONVENTION = "negative binomial counts failures before the r-th success"
EVIDENCE_NOTE = (
    "evidence only: the band inequality is an open question — "
    "a clean scan is not a proof and a violation would be a disproof candidate"
)


def _integer_band(mean, sd):
    """Integers k >= 0 with |k - mean| <= sd, endpoints inclusive."""
    return max(0, math.ceil(mean - sd)), math.floor(mean + sd)


def _poisson_window(lower, upper):
    """Integers lo..hi outside which every Poisson(mu) with lower <= mu <= upper
    has mass < 2 e^-40 ~ 8e-18.

    Poisson(mu) has mass < e^-T beyond mu +- t once t^2 >= 2 T (mu + t/3)
    (Bernstein above, Chernoff below); t is solved at mu = upper, T = 40, so
    the window [lower - t, upper + t] has O(sqrt(upper)) terms.
    """
    t = (40.0 + math.sqrt(1600.0 + 720.0 * upper)) / 3.0  # t^2 = 2 T (upper + t/3) at T = 40
    return max(0, math.floor(lower - t)), math.ceil(upper + t)


def _lattice_pmf(anchor, k0, lo, hi, c, d):
    """pmf(lo..hi) of a lattice law with pmf(k + 1) / pmf(k) = (c + d k) / (k + 1)
    (Poisson: c = mean, d = 0; negative binomial: c = r q, d = q), run up and
    down by that ratio from pmf(k0) = anchor, lo <= k0 <= hi. A term's
    relative error grows by ~eps a step away from the anchor's."""
    pmf = anchor
    terms = [pmf]
    for k in range(k0, lo, -1):
        pmf *= k / (c + d * (k - 1))
        terms.append(pmf)
    terms.reverse()
    pmf = anchor
    for k in range(k0, hi):
        pmf *= (c + d * k) / (k + 1.0)
        terms.append(pmf)
    return terms


def _poisson_pmf(mean, lo, hi):
    """Poisson(mean) pmf at lo..hi, from its value at the mode clamped into
    lo..hi: Loader's e^(-stirlerr(k) - bd0(k, mean)) / sqrt(2 pi k), within a
    few ulp, or e^-mean at k = 0."""
    k0 = min(max(int(mean), lo), hi)
    anchor = (math.exp(-_stirlerr(k0) - _bd0(k0, mean)) / math.sqrt(2.0 * math.pi * k0)
              if k0 else math.exp(-mean))
    return _lattice_pmf(anchor, k0, lo, hi, mean, 0.0)


class Poisson(_Record):
    _fields = __slots__ = ("lam",)

    def _validate(self):
        _check_positive("lam", self.lam)

    def moments(self):
        return self.lam, self.lam

    def band(self):
        """The pmf summed over the band only, from Loader's value at the mode;
        within 3.3e-16 of 40-digit mpmath on the default grid and up to
        lam = 1e6. The band holds 0 below lam = 1 and is >= 2 wide above.
        lam above 1e7 is refused (its ~2 sqrt(lam) terms grow without bound)."""
        if self.lam > _MAX_WINDOW_MEAN:
            raise ValueError(f"Poisson band needs lam <= 1e7, got {self.lam!r}")
        mean, variance = self.moments()
        lo, hi = _integer_band(mean, math.sqrt(variance))
        return Probability(math.fsum(_poisson_pmf(mean, lo, hi)))


class NegativeBinomial(_Record):
    """Number of failures before the r-th success, success probability p."""

    _fields = __slots__ = ("r", "p")

    def _validate(self):
        _check_positive("r", self.r)
        if not (isinstance(self.p, (int, float)) and 0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")

    def moments(self):
        q = 1.0 - self.p
        return self.r * q / self.p, self.r * q / self.p ** 2

    def band(self):
        """pmf(k + 1) = pmf(k) (k + r) q / (k + 1) summed over the band, which
        holds 0 if r q < 1 and is > 2 wide otherwise.

        - r >= 10: only the band, from Loader's value at the mode
          (r - 1) q / p clamped into it: (r/n) e^(stirlerr(n) - stirlerr(r) -
          stirlerr(k) - bd0(r, n p) - bd0(k, n q)) / sqrt(2 pi r k / n) with
          n = r + k, or p^r at k = 0. Within 2.1e-15 of 40-digit mpmath on the
          default grid and at (1e3, 0.01) and (1e4, 0.01).
        - r < 10: walked from pmf(0) = p^r, as stirlerr of a non-integer
          r < 10 has no cheap accurate form; at most ~2 band widths, since
          mean / sd = sqrt(r q) < 3.2. Within 6e-15 on the default grid.

        A sum of more than 1e6 terms (hi + 1 for the walk, hi - lo + 1 for
        the band) is refused, as its time has no other bound. That refuses
        every p^r below the normal doubles at r < 10 too (the mean exceeds
        5e31 there), whose terms would underflow and read as ~0.
        """
        r, p = self.r, self.p
        q = 1.0 - p
        mean, _ = self.moments()
        lo, hi = _integer_band(mean, math.sqrt(r * q) / p)
        first = 0 if r < _STIRLERR_MIN_SHAPE else lo
        if hi - first >= _MAX_BAND_TERMS:
            raise ValueError(
                f"negative binomial band: {hi - first + 1} terms exceed {_MAX_BAND_TERMS} "
                f"at r={r!r}, p={p!r}"
            )
        if r < _STIRLERR_MIN_SHAPE:
            pmf = math.exp(r * math.log(p))
            total = pmf if lo == 0 else 0.0
            for k in range(hi):
                kr = k + r
                pmf *= (kr - kr * p) / (k + 1.0)  # no drift from the rounding of q
                if k + 1 >= lo:
                    total += pmf
            return Probability(total)
        k0 = min(max(int((r - 1.0) * q / p), lo), hi)
        n = r + k0
        anchor = (r / n * math.exp(_stirlerr(n) - _stirlerr(r) - _stirlerr(k0) - _bd0(r, n * p)
                                   - _bd0(k0, n * q)) / math.sqrt(2.0 * math.pi * r * k0 / n)
                  if k0 else math.exp(r * math.log(p)))
        return Probability(math.fsum(_lattice_pmf(anchor, k0, lo, hi, r * q, q)))


class InverseGaussian(_Record):
    _fields = __slots__ = ("mu", "shape")

    def _validate(self):
        _check_positive("mu", self.mu)
        _check_positive("shape", self.shape)

    def moments(self):
        return self.mu, self.mu ** 3 / self.shape

    def band(self):
        mean, variance = self.moments()
        sd = math.sqrt(variance)
        return Probability(self._cdf(mean + sd) - self._cdf(mean - sd))

    def _cdf(self, x):
        """Closed-form CDF through the standard normal CDF, overflow-safe."""
        if x <= 0.0:
            return 0.0
        mu, shape = self.mu, self.shape
        root = math.sqrt(shape / x)
        first = std_normal_cdf(root * (x / mu - 1.0))
        # second term: e^(2 shape/mu) Phi(-root (x/mu + 1)); combine in logs so the
        # exploding exponential and the vanishing tail cancel before exponentiating
        log_second = 2.0 * shape / mu + log_std_normal_sf(root * (x / mu + 1.0))
        return first + math.exp(log_second)


class CompoundPoissonExp(_Record):
    """Poisson(rate) many i.i.d. Exponential(jump_scale) jumps."""

    _fields = __slots__ = ("rate", "jump_scale")

    def _validate(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_scale", self.jump_scale)

    def moments(self):
        return self.rate * self.jump_scale, 2.0 * self.rate * self.jump_scale ** 2

    def band(self):
        """Band mass of S, a sum of Poisson(rate) many Exponential(1) jumps (the
        band is scale-free). S <= x exactly when a unit-rate Poisson process has
        at least N points in [0, x], so F(x) = P{S <= x} = sum_k Pois_x(k)
        F_rate(k), F_rate the Poisson(rate) CDF: no incomplete gamma, and the
        N = 0 atom is in F. The band mass is F(H) - F(L) for H, L =
        rate +- sqrt(2 rate), or F(H) if L <= 0.

        The three pmfs come from _poisson_pmf over one _poisson_window, each
        from Loader's value at its mode, with no normalising pass. Within
        ~1e-15 of 40-digit mpmath at the double band edges up to rate 1e6
        (4.4e-16 on the default grid); rounding the edges adds < 1e-15 up to
        rate 1e3, ~1e-14 at 1e6, ~1e-13 at 1e7. Larger rates are refused
        (memory ~ sqrt(rate)).
        """
        rate = self.rate
        if rate > _MAX_WINDOW_MEAN:
            raise ValueError(f"compound Poisson band needs rate <= 1e7, got {rate!r}")
        sd = math.sqrt(2.0 * rate)
        lower, upper = rate - sd, rate + sd
        lo, hi = _poisson_window(lower, upper)
        cdf_rate = accumulate(_poisson_pmf(rate, lo, hi))
        pmf = _poisson_pmf(upper, lo, hi)
        if lower > 0.0:
            pmf = map(operator.sub, pmf, _poisson_pmf(lower, lo, hi))
        return Probability(math.fsum(map(operator.mul, pmf, cdf_rate)))


class GammaDist(gamma_prob.GammaParams):
    """Gamma(alpha, beta) as a member of the catalog."""

    __slots__ = ()

    def moments(self):
        return self.mean, self.variance

    def band(self):
        return gamma_prob.band(self, 1.0)


class NormalBaseline(_Record):
    """Standard normal reference point; its band is the conjectured bound."""

    __slots__ = ()

    def moments(self):
        return 0.0, 1.0

    def band(self):
        return std_normal_band(1.0)


# the six family classes, as the plain tuple that isinstance checks against
DistributionSpec = (
    Poisson, NegativeBinomial, InverseGaussian, CompoundPoissonExp, GammaDist, NormalBaseline
)


class ScanReport(_Record):
    _fields = __slots__ = (
        "family", "grid", "min_band", "argmin_params", "violations", "threshold", "notes"
    )


def moments(spec):
    """Closed-form (mean, variance) of the distribution."""
    if not isinstance(spec, DistributionSpec):
        raise TypeError(f"not a distribution spec: {spec!r}")
    return spec.moments()


def band_prob(spec):
    """P{|L - E[L]| <= sqrt(Var L)} for the given distribution."""
    if not isinstance(spec, DistributionSpec):
        raise TypeError(f"not a distribution spec: {spec!r}")
    return spec.band()


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


def conjecture_scan(family, grid=None):
    """Sweep band_prob over a grid, recording the minimum and any entries
    strictly below the standard normal band less 1e-9 (slack keeps rounding
    error in the band values from reading as a violation)."""
    if grid is None:
        grid = default_grid(family)
    grid = tuple(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    threshold = float(std_normal_band(1.0))

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
        family, grid, Probability(min_band), argmin, tuple(violations), threshold, tuple(notes)
    )
