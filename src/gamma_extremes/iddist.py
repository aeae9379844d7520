"""Catalog of infinitely divisible distributions and a grid scanner for the
one-standard-deviation band inequality.

Every family here is infinitely divisible (a documented property, not
machine-checked). Each family is one immutable record with two methods:
moments() gives (mean, variance) and band() gives P{|L - E[L]| <= sqrt(Var L)},
both in closed form; moments(spec) and band_prob(spec) call them. The two
lattice bands (Poisson, negative binomial) sum pmfs from one builder,
_lattice_pmf: the ratio recursion run up and down from the pmf at the mode,
clamped into the summed range. That anchor is Loader's saddle-point form
(C. Loader, Fast and Accurate Computation of Binomial Probabilities, 2000),
within a few ulp in O(1), so no band needs a normalising pass, nor a walk
from k = 0 but the negative binomial's below r = 10. The compound Poisson
band integrates its Bessel-function density with one fixed Gauss-Legendre
rule, at the same cost for every rate. The inverse Gaussian band is a
function of phi = shape/mu alone, in a closed form whose terms neither
cancel nor overflow, at any phi. conjecture_scan sweeps a parameter
grid looking for band probabilities below the standard normal band. The
underlying question is open: scans produce evidence only, and reports say
so.
"""

import math

from . import gamma_prob
from .optimize import _lin_grid, _log_grid
from .specfun import (
    Probability,
    _Record,
    _bd0,
    _check_positive,
    _describe,
    _scaled_normal_sf,
    _stirlerr,
    _two_product_error,
    std_normal_band,
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
# largest Poisson mean or compound Poisson rate a band takes: the Poisson
# band's pmf terms grow like sqrt(mean), and rounding the compound Poisson
# band's edges and nodes to doubles costs it ~1e-13 at 1e7, growing like
# sqrt(rate)
_MAX_WINDOW_MEAN = 1e7
# below this r the negative binomial walks from pmf(0) = p^r: stirlerr(r)
# has a cheap accurate form only from 10 up
_STIRLERR_MIN_SHAPE = 10.0
# most pmf terms a negative binomial band sums; its time is linear in them
_MAX_BAND_TERMS = 10 ** 6
# below this rate * s, i.e. Bessel argument z = 2 sqrt(rate s) < 40, the
# compound Poisson density sums its power series; from it up, Hankel's
# expansion, whose neglected part is then ~e^(-2z) < 2e-35 relative
_BESSEL_SERIES_MAX = 400.0


def _bessel_series_coefficients(n):
    """1 / (k! (k + 1)!) for k < n, each correctly rounded."""
    coefficients, denominator = [], 1
    for k in range(n):
        coefficients.append(1 / denominator)
        denominator *= (k + 1) * (k + 2)
    return tuple(coefficients)


# the series takes 3 + int(1.5 sqrt(x) + 8 x^(1/6)) <= 54 terms, x = rate s
_BESSEL_SERIES_COEFFICIENTS = _bessel_series_coefficients(54)

NEGBINOMIAL_CONVENTION = "negative binomial counts failures before the r-th success"
EVIDENCE_NOTE = (
    "evidence only: the band inequality is an open question — "
    "a clean scan is not a proof and a violation would be a disproof candidate"
)


def _integer_band(mean, sd):
    """Integers k >= 0 with |k - mean| <= sd, endpoints inclusive."""
    return max(0, math.ceil(mean - sd)), math.floor(mean + sd)


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


def _compound_density(rate, s):
    """Density at s >= 0 of the continuous part of a sum of Poisson(rate) many
    Exponential(1) jumps, e^(-rate - s) sqrt(rate/s) I_1(2 sqrt(rate s)): half
    a noncentral chi-square variable with zero degrees of freedom and
    noncentrality 2 rate (A. F. Siegel, Biometrika 66, 1979). At most 54
    series terms or 14 Hankel terms, whatever the rate. Within 8.5e-16
    relative of 40-digit mpmath for s within two standard deviations of the
    mean, at rates in [0.01, 1e7] (series branch: 4.5e-16); farther out the
    Hankel branch's error grows with d^2, as d's rounding moves e^(-d^2).

    - rate s < 400: the power series rate e^(-rate) e^(-s) sum_k x^k /
      (k! (k + 1)!), x = rate s (DLMF 10.25.2), to the term count
      3 + int(1.5 sqrt(x) + 8 x^(1/6)): 3 terms at x = 1e-6, 6 at 0.01, 19
      at 10. That is the fewest terms whose omitted tail is below 2^-56 of
      the sum, or one more, or two more above x ~ 200 (checked at every
      x < 400 where the fewest grows). Every term is positive and
      its own power of x, so the terms' rounding errors are independent and
      fsum adds them exactly. Rounding x would still move the sum by up to
      ~sqrt(x) eps / 2, as its log-derivative in log x is about
      sqrt(1 + x) - 1; x's exact rounding error undoes that to first order.
    - above: Hankel's expansion of e^(-z) I_1(z), z = 2 sqrt(rate s)
      (DLMF 10.40.1), times sqrt(rate/s) e^(-d^2) / sqrt(2 pi z) with
      d = sqrt(s) - sqrt(rate) = (s - rate) / (sqrt(s) + sqrt(rate)):
      e^(-rate - s + z) without cancellation or overflow.
    """
    x = rate * s
    if x < _BESSEL_SERIES_MAX:
        count = 3 + int(1.5 * math.sqrt(x) + 8.0 * x ** (1 / 6))
        terms = [x ** k * c for k, c in zip(range(count), _BESSEL_SERIES_COEFFICIENTS)]
        correction = _two_product_error(rate, s, x) / (1.0 + math.sqrt(1.0 + x))
        return rate * math.exp(-rate) * math.exp(-s) * math.fsum(terms) * (1.0 + correction)
    z = 2.0 * math.sqrt(x)
    # sqrt(2 pi z) e^(-z) I_1(z) ~ sum_k (-1)^k a_k(1) / z^k with a_k(1) /
    # a_(k-1)(1) = (4 - (2k - 1)^2) / (8k): past k = 0 every term is negative,
    # and at z >= 40 they fall below 1e-17 by k = 14
    term = -3.0 / (8.0 * z)
    total = 1.0 + term
    k = 1
    while term < -1e-17:
        k += 1
        term *= ((2 * k - 1) ** 2 - 4) / (8.0 * k * z)
        total += term
    root_rate, root_s = math.sqrt(rate), math.sqrt(s)
    d = (s - rate) / (root_s + root_rate)
    return root_rate / root_s * math.exp(-d * d) * total / math.sqrt(2.0 * math.pi * z)


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
            raise ValueError(f"p must lie in (0, 1), got {_describe(self.p)}")

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
        """The band mass as a function of phi = shape/mu alone, as X ~ IG(mu,
        shape) gives t X ~ IG(t mu, t shape); scaling both parameters by a
        power of two leaves the band bit-identical.

        The CDF is F(x) = Phi(r (x/mu - 1)) + e^(2 phi) Phi(-r (x/mu + 1)),
        r = sqrt(shape/x) (Chhikara & Folks, The Inverse Gaussian
        Distribution, 1989). At the band edges x = mu u, u = 1 +- s,
        s = 1/sqrt(phi), the first argument is +-1/sqrt(u), and with
        w = sqrt(phi/u) (2 +- s) the exponent 2 phi - w^2/2 is exactly
        -1/(2u). So

            F(mu u) = Phi(+-1/sqrt(u)) + e^(-1/(2u)) E(w),

        E(w) = e^(w^2/2) Phi(-w) (specfun._scaled_normal_sf), and the band
        is F(mu (1 + s)) - [s < 1] F(mu (1 - s)). No term is large, so
        nothing cancels or overflows whatever phi.

        Within 2.2e-16 of 40-digit mpmath on the default grid and for phi
        in [1e-8, 1e8]. The two generic CDFs it replaces took e^(2 phi)
        Phi(-w) in log space, whose error grew with phi: 1.8e-14 on the
        grid, 6.4e-13 at phi = 6.3e7. It costs two erfc, two exp and two E
        calls, ~2.2 us on CPython 3.11 (the two CDFs: ~7 us); E runs
        Lentz's fraction only past w^2/2 = 700, for phi above ~350. A
        phi = shape/mu that overflows, or underflows to 0, is refused.
        """
        phi = self.shape / self.mu
        if not 0.0 < phi < math.inf:
            raise ValueError(
                f"inverse Gaussian band needs shape/mu in (0, inf) as a double, "
                f"got mu={self.mu!r}, shape={self.shape!r}"
            )
        s = 1.0 / math.sqrt(phi)
        u = 1.0 + s
        mass = (0.5 * math.erfc(-1.0 / math.sqrt(2.0 * u))
                + math.exp(-0.5 / u) * _scaled_normal_sf(math.sqrt(phi / u) * (2.0 + s)))
        if s < 1.0:
            u = 1.0 - s
            mass -= (0.5 * math.erfc(1.0 / math.sqrt(2.0 * u))
                     + math.exp(-0.5 / u) * _scaled_normal_sf(math.sqrt(phi / u) * (2.0 - s)))
        return Probability(mass)


class CompoundPoissonExp(_Record):
    """Poisson(rate) many i.i.d. Exponential(jump_scale) jumps."""

    _fields = __slots__ = ("rate", "jump_scale")

    def _validate(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_scale", self.jump_scale)

    def moments(self):
        return self.rate * self.jump_scale, 2.0 * self.rate * self.jump_scale ** 2

    def band(self):
        """Band mass of S, a sum of Poisson(rate) many Exponential(1) jumps
        (the band is scale-free): e^-rate, the mass of S = 0, if L <= 0, plus
        the integral of _compound_density over [max(L, 0), H], for L, H =
        rate -+ sqrt(2 rate).

        The integral is one 12-point Gauss-Legendre sum (the low-order rule
        of gamma_prob.step_monotone_integral) over a density that is entire
        in s. Twelve density calls of bounded cost bound the band's cost
        whatever the rate: 13-95 us (CPython 3.11), the most near rate 20,
        where rate s nears 400 and the series is longest.

        Within 1e-15 of 40-digit mpmath on the default grid (rate <= 1e3),
        4.2e-15 at rate 1e5, 6.9e-15 at 1e6 and 9.1e-14 at 1e7. The error
        above rate 1e3 comes from rounding the band's edges and nodes to
        doubles, ~ulp(rate) times the density, so it grows like sqrt(rate);
        rates above 1e7 are refused for it.
        """
        rate = self.rate
        if rate > _MAX_WINDOW_MEAN:
            raise ValueError(f"compound Poisson band needs rate <= 1e7, got {rate!r}")
        sd = math.sqrt(2.0 * rate)
        lower, upper = rate - sd, rate + sd
        mass = gamma_prob._panel_sum(lambda s: _compound_density(rate, s), max(lower, 0.0),
                                     upper, gamma_prob._RULE_LOW)
        return Probability(mass + math.exp(-rate) if lower <= 0.0 else mass)


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
        raise TypeError(f"not a distribution spec: {_describe(spec)}")
    return spec.moments()


def band_prob(spec):
    """P{|L - E[L]| <= sqrt(Var L)} for the given distribution."""
    if not isinstance(spec, DistributionSpec):
        raise TypeError(f"not a distribution spec: {_describe(spec)}")
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
