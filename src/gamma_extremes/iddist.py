"""Catalog of infinitely divisible distributions and a grid scanner for the
one-standard-deviation band inequality.

Every family here is infinitely divisible (a documented property, not
machine-checked). Each family is one immutable record with two methods:
moments() gives (mean, variance) and band() gives P{|L - E[L]| <= sqrt(Var L)},
both in closed form; moments(spec) and band_prob(spec) call them. The two
lattice bands (Poisson, negative binomial) sum pmfs from one builder,
_lattice_pmf: the ratio recursion run up and down from the pmf at the mode,
which lies in the summed range. That anchor is Loader's saddle-point form
(C. Loader, Fast and Accurate Computation of Binomial Probabilities, 2000),
within a few ulp in O(1), so no band needs a normalising pass, nor a walk
from k = 0 but the negative binomial's below r = 10. The compound Poisson
band sums its mixture of Gamma laws term by term below rate ~23.7, and
above it integrates its Bessel-function density in 12 Gauss-Legendre
nodes. The inverse Gaussian band is a function of phi = shape/mu alone, in
a closed form whose terms neither cancel nor overflow, at any phi.
conjecture_scan sweeps a parameter grid looking for band probabilities
below the standard normal band. The underlying question is open: scans
produce evidence only, and reports say so.
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
    _finite_variance,
    _probability,
    _scaled_normal_sf,
    _stirlerr,
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
# band's pmf terms grow like sqrt(mean); the compound Poisson band is
# checked against mpmath up to 1e7 only
_MAX_WINDOW_MEAN = 1e7
# below this r the negative binomial walks from pmf(0) = p^r: stirlerr(r)
# has a cheap accurate form only from 10 up
_STIRLERR_MIN_SHAPE = 10.0
# most pmf terms a negative binomial band sums; its time is linear in them
_MAX_BAND_TERMS = 10 ** 6
# rate s from which Hankel's expansion at z = 2 sqrt(rate s) >= 40 leaves out
# ~e^(-2z) < 2e-35; the band sums termwise below rate max(L, 0) = 400
_HANKEL_MIN = 400.0
# step k of Hankel's expansion in _compound_density multiplies its term by
# ((2k - 1)^2 - 4) / (8k z): the numerators and the 8k, as exact doubles.
# Every rounded term shrinks as z grows, so the loop ends no later than at
# the least z: at z = 2 sqrt(400) = 40, k = 14. The tables run to k = 27,
# where it ends at z = 20 (rate s = 100), so that _HANKEL_MIN can be
# lowered to there; the omitted ~e^(-2z) is 4e-18 at z = 20, and below
# z ~ 18.57 the terms grow again before they reach 1e-17
_HANKEL_NUMERATORS = tuple(float((2 * k - 1) ** 2 - 4) for k in range(28))
_HANKEL_EIGHT_K = tuple(8.0 * k for k in range(28))
# 1 / k!, correctly rounded: the termwise band takes 62 terms at the switch
_INVERSE_FACTORIALS = tuple(1 / math.factorial(k) for k in range(100))

NEGBINOMIAL_CONVENTION = "negative binomial counts failures before the r-th success"
EVIDENCE_NOTE = (
    "evidence only: the band inequality is an open question — "
    "a clean scan is not a proof and a violation would be a disproof candidate"
)


def _integer_band(mean, sd):
    """Integers k >= 0 with |k - mean| <= sd, endpoints inclusive."""
    lo = math.ceil(mean - sd)
    return (lo if lo > 0 else 0), math.floor(mean + sd)


def _lattice_pmf(anchor, k0, lo, hi, c, d):
    """pmf(lo..hi) of a lattice law with pmf(k + 1) / pmf(k) = (c + d k) / (k + 1)
    (Poisson: c = mean, d = 0; negative binomial: c = r q, d = q), run up and
    down by that ratio from pmf(k0) = anchor, lo <= k0 <= hi. A term's
    relative error grows by ~eps a step away from the anchor's.

    The terms come anchor first, then downward, then upward; both callers
    take math.fsum, which is correctly rounded and so reads them in any
    order. k runs as a float counter x: float(k) is exact, and each step
    rounds what the integer form did (down: pmf *= x / (c + d (x - 1)), up:
    pmf *= (c + d x) / (x + 1)), on CPython's float-only fast paths."""
    terms = [anchor]
    append = terms.append
    pmf, x = anchor, float(k0)
    for _ in range(k0 - lo):
        y = x - 1.0
        pmf *= x / (c + d * y)
        x = y
        append(pmf)
    pmf, x = anchor, float(k0)
    for _ in range(hi - k0):
        num = c + d * x
        x += 1.0
        pmf *= num / x
        append(pmf)
    return terms


def _poisson_pmf(mean, lo, hi):
    """Poisson(mean) pmf at lo..hi, from its value at the mode k0 = int(mean):
    Loader's e^(-stirlerr(k) - bd0(k, mean)) / sqrt(2 pi k), within a few
    ulp, or e^-mean at k = 0, for lo, hi = _integer_band(mean, sqrt(mean))."""
    # lo <= k0 <= hi: int(mean) <= mean <= mean + sd. lo > 0 needs mean >
    # sqrt(mean) as doubles, so mean > 1 and sd >= 1; then mean - sd rounds
    # to at most mean - 1, which is exact, and lo <= ceil(mean) - 1 <= k0
    k0 = int(mean)
    anchor = (math.exp(-_stirlerr(k0) - _bd0(k0, mean)) / math.sqrt(2.0 * math.pi * k0)
              if k0 else math.exp(-mean))
    return _lattice_pmf(anchor, k0, lo, hi, mean, 0.0)


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


# the rule that integrates the compound Poisson band above rate ~23.74
_GAUSS_LEGENDRE_12 = _gauss_legendre(12)


def _compound_density(rate, offset):
    """Density at s = rate + offset >= 400 / rate of the continuous part of
    a sum of Poisson(rate) many Exponential(1) jumps, e^(-rate - s)
    sqrt(rate/s) I_1(2 sqrt(rate s)) (A. F. Siegel, Biometrika 66, 1979):
    Hankel's expansion of e^(-z) I_1(z), z = 2 sqrt(rate s) (DLMF 10.40.1),
    times sqrt(rate/s) e^(-d^2) / sqrt(2 pi z), d^2 = offset^2 / (2 rate +
    offset + z) = (sqrt(s) - sqrt(rate))^2 from the exact offset, not s
    rounded. Within 6.6e-16 relative of 40-digit mpmath at the exact s,
    within two sd of the mean, rates 16 to 1e7. Below rate s = 400 it is
    refused. Each step reads its ratio's numerator and 8k from the tables
    _HANKEL_NUMERATORS and _HANKEL_EIGHT_K (sized there): the same roundings
    of the same exact operands as forming them per step."""
    s = rate + offset
    x = rate * s
    if not x >= _HANKEL_MIN:
        raise ValueError(f"compound Poisson density needs rate * s >= 400, got {x!r}")
    z = 2.0 * math.sqrt(x)
    # sqrt(2 pi z) e^(-z) I_1(z) ~ sum_k (-1)^k a_k(1) / z^k with a_k(1) /
    # a_(k-1)(1) = (4 - (2k - 1)^2) / (8k): past k = 0 every term is negative,
    # and at z >= 40 they fall below 1e-17 by k = 14
    term = -3.0 / (8.0 * z)
    total = 1.0 + term
    k = 1
    while term < -1e-17:
        k += 1
        term *= _HANKEL_NUMERATORS[k] / (_HANKEL_EIGHT_K[k] * z)
        total += term
    square = offset * offset / (2.0 * rate + offset + z)
    return math.sqrt(rate / s) * math.exp(-square) * total / math.sqrt(2.0 * math.pi * z)


def _compound_termwise(rate, lower, upper):
    """sum_(k >= 0) Pois_rate(k + 1) J_k and its term count, J_k = F_lower(k)
    - F_upper(k) = P{lower < Gamma(k + 1, 1) <= upper}, F_x the Poisson(x)
    CDF: J_0 = e^-lower (-expm1(lower - upper)) plus the Kahan-summed
    increments pmf_lower(k) - pmf_upper(k), each e^-x x^k / k! from one pow
    and the rounded 1/k! (the walk pmf(k - 1) x / k adds two roundings a
    step: 1.9e-15 relative at rate 18.65, against 3.3e-16). Once pmf_lower(k)
    <= pmf_upper(k) J falls, and the tail is below term_k rate / (k + 2 -
    rate); the sum stops when that is at most 2^-56 of it."""
    exp_lower, exp_upper, exp_rate = math.exp(-lower), math.exp(-upper), math.exp(-rate)
    window = -exp_lower * math.expm1(lower - upper)
    terms = [rate * exp_rate * window]
    total, carry = terms[0], 0.0
    for k in range(1, len(_INVERSE_FACTORIALS) - 1):
        inverse = _INVERSE_FACTORIALS[k]
        pmf_lower = exp_lower * lower ** k * inverse
        pmf_upper = exp_upper * upper ** k * inverse
        step = pmf_lower - pmf_upper - carry
        grown = window + step
        carry = (grown - window) - step
        window = grown
        term = exp_rate * rate ** (k + 1) * _INVERSE_FACTORIALS[k + 1] * window
        terms.append(term)
        total += term
        if pmf_lower <= pmf_upper and term * rate <= 2.0 ** -56 * total * (k + 2 - rate):
            return math.fsum(terms), k + 1


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
        lo, hi = _integer_band(self.lam, math.sqrt(self.lam))
        return _probability(math.fsum(_poisson_pmf(self.lam, lo, hi)))


class NegativeBinomial(_Record):
    """Number of failures before the r-th success, success probability p."""

    _fields = __slots__ = ("r", "p")

    def _validate(self):
        _check_positive("r", self.r)
        if not (isinstance(self.p, (int, float)) and 0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {_describe(self.p)}")

    def moments(self):
        mean = self.r * (1.0 - self.p) / self.p
        return mean, _finite_variance(mean / self.p, self, "r q / p^2")

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
          The walk runs on a float counter, lo steps to pmf(lo) and then
          hi - lo steps summed left to right (fsum would move the bits).

        A band 1e6 wide, or a walk to 1e6, is refused, as its time has no
        other bound; before the edges round (from r q ~ 1e33 up, to one
        integer). That refuses every p^r below the normal doubles at r < 10
        too (the mean exceeds 5e31 there), whose terms would read as ~0.
        """
        r, p = self.r, self.p
        q = 1.0 - p
        mean, sd = r * q / p, math.sqrt(r * q) / p
        terms = mean + sd if r < _STIRLERR_MIN_SHAPE else 2.0 * sd
        if not terms < _MAX_BAND_TERMS:
            raise ValueError(f"negative binomial band: {terms:.4g} terms exceed "
                             f"{_MAX_BAND_TERMS} at r={r!r}, p={p!r}")
        lo, hi = _integer_band(mean, sd)
        if r < _STIRLERR_MIN_SHAPE:
            pmf = math.exp(r * math.log(p))
            x = 0.0
            for _ in range(lo):
                kr = x + r
                x += 1.0
                pmf *= (kr - kr * p) / x  # no drift from the rounding of q
            total = pmf
            for _ in range(hi - lo):
                kr = x + r
                x += 1.0
                pmf *= (kr - kr * p) / x
                total += pmf
            return _probability(total)
        # lo <= k0 <= hi. (r - 1) q / p rounds by the same ops as mean = r q / p
        # from r - 1.0 <= r, so k0 <= mean < hi + 1. lo > 0 needs r q > 1 as
        # doubles, and then mean - sd is below k0 by (sqrt(r q) - 1) / p, far
        # above the ~6 eps mean of rounding unless r q is within a few ulp of
        # 1. There lo = 1, p > 1/2, and r q > 1 + eps / 2 (eps = 2^-52) with
        # q = 1 - p and r - 1 exact (r < 2^53) gives (r - 1) q > p + ulp(p):
        # it rounds to at least p + ulp(p), so k0 >= 1
        k0 = int((r - 1.0) * q / p)
        n = r + k0
        anchor = (r / n * math.exp(_stirlerr(n) - _stirlerr(r) - _stirlerr(k0) - _bd0(r, n * p)
                                   - _bd0(k0, n * q)) / math.sqrt(2.0 * math.pi * r * k0 / n)
                  if k0 else math.exp(r * math.log(p)))
        return _probability(math.fsum(_lattice_pmf(anchor, k0, lo, hi, r * q, q)))


class InverseGaussian(_Record):
    _fields = __slots__ = ("mu", "shape")

    def _validate(self):
        _check_positive("mu", self.mu)
        _check_positive("shape", self.shape)

    def moments(self):
        # mu^3 / shape from mantissas in [1/2, 1) and exponents apart, as
        # mu / shape overflows at a subnormal shape and mu^2 at mu ~ 1e200;
        # v 2^g with v in [1/2, 1) is a finite double while g <= 1024
        m, e = math.frexp(self.mu)
        s, f = math.frexp(self.shape)
        v, g = math.frexp(m * m * m / s)
        g += 3 * e - f
        return self.mu, _finite_variance(math.ldexp(v, g) if g <= 1024 else math.inf,
                                         self, "mu^3 / shape")

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
            raise ValueError(f"inverse Gaussian band needs shape/mu in (0, inf) as a double, "
                             f"got mu={self.mu!r}, shape={self.shape!r}")
        s = 1.0 / math.sqrt(phi)
        u = 1.0 + s
        mass = (0.5 * math.erfc(-1.0 / math.sqrt(2.0 * u))
                + math.exp(-0.5 / u) * _scaled_normal_sf(math.sqrt(phi / u) * (2.0 + s)))
        if s < 1.0:
            u = 1.0 - s
            mass -= (0.5 * math.erfc(1.0 / math.sqrt(2.0 * u))
                     + math.exp(-0.5 / u) * _scaled_normal_sf(math.sqrt(phi / u) * (2.0 - s)))
        return _probability(mass)


class CompoundPoissonExp(_Record):
    """Poisson(rate) many i.i.d. Exponential(jump_scale) jumps."""

    _fields = __slots__ = ("rate", "jump_scale")

    def _validate(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_scale", self.jump_scale)

    def moments(self):
        mean = self.rate * self.jump_scale
        return mean, _finite_variance(mean * self.jump_scale * 2, self, "2 rate scale^2")

    def band(self):
        """Band mass of S, a sum of Poisson(rate) many Exponential(1) jumps
        (the band is scale-free): e^-rate, the mass of S = 0, if L <= 0, plus
        the mass of S in (max(L, 0), H], for L, H = rate -+ sqrt(2 rate).

        - rate max(L, 0) < 400 (rate < ~23.74): its mixture of Gamma laws,
          term by term (_compound_termwise), 3.4-28 us (CPython 3.11,
          BENCH_36.json).
        - above: one 12-point Gauss-Legendre sum of _compound_density,
          entire in s, over the offset s - rate in exactly [-sd, sd],
          sd = sqrt(2 rate), so no edge is rounded; every node has rate s >
          400, so the 12 calls are Hankel's, of bounded cost: 9.1-22 us.

        Within 6.5e-16 relative of 40-digit mpmath up to rate 1e3, 4.9e-16
        above the switch up to 1e7; rates above 1e7 are refused."""
        rate = self.rate
        if rate > _MAX_WINDOW_MEAN:
            raise ValueError(f"compound Poisson band needs rate <= 1e7, got {rate!r}")
        sd = math.sqrt(2.0 * rate)
        lower, upper = rate - sd, rate + sd
        if rate * lower >= _HANKEL_MIN:
            return _probability(sd * math.fsum(w * _compound_density(rate, sd * x)
                                               for x, w in zip(*_GAUSS_LEGENDRE_12)))
        mass, _ = _compound_termwise(rate, max(lower, 0.0), upper)
        return _probability(mass + math.exp(-rate) if lower <= 0.0 else mass)


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
# the same classes for one hash lookup of a spec's exact type
_SPEC_TYPES = frozenset(DistributionSpec)


class ScanReport(_Record):
    _fields = __slots__ = (
        "family", "grid", "min_band", "argmin_params", "violations", "threshold", "notes"
    )


def moments(spec):
    """Closed-form (mean, variance) of the distribution."""
    if type(spec) in _SPEC_TYPES or isinstance(spec, DistributionSpec):
        return spec.moments()
    raise TypeError(f"not a distribution spec: {_describe(spec)}")


def band_prob(spec):
    """P{|L - E[L]| <= sqrt(Var L)} for the given distribution, exactly a
    Probability (never a LogProbability).

    A spec of one of the six family classes passes on one lookup of its exact
    type; a subclass of one passes the isinstance check after it, and any
    other object raises TypeError."""
    if type(spec) in _SPEC_TYPES or isinstance(spec, DistributionSpec):
        return spec.band()
    raise TypeError(f"not a distribution spec: {_describe(spec)}")


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
    raise _unknown_family(family)


def _unknown_family(family):
    return ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")


FAMILIES = ("gamma", "poisson", "negbinomial", "invgaussian", "compound_poisson_exp", "normal")


def conjecture_scan(family, grid=None):
    """Sweep band_prob over a grid, recording the minimum and any entries
    strictly below the standard normal band less 1e-9 (slack keeps rounding
    error in the band values from reading as a violation). An unknown
    family name is refused, as default_grid refuses it, with a grid too."""
    if family not in FAMILIES:
        raise _unknown_family(family)
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
