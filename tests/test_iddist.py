"""Tests for the infinitely divisible distribution catalog and the band
inequality grid scanner."""

import math
import os
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_extremes import gamma_prob, iddist, specfun
from gamma_extremes.gamma_prob import t
from gamma_extremes.iddist import (
    CompoundPoissonExp,
    DistributionSpec,
    FAMILIES,
    GammaDist,
    InverseGaussian,
    NegativeBinomial,
    NormalBaseline,
    Poisson,
    _compound_density,
    _gauss_legendre,
    band_prob,
    conjecture_scan,
    default_grid,
    moments,
)
from gamma_extremes.optimize import OptimizationResult
from gamma_extremes.specfun import (
    LogProbability,
    Probability,
    _scaled_normal_sf,
    lower_series,
    reg_lower_gamma,
    std_normal_band,
    upper_continued_fraction,
)

# a record of the package that is not one of the six families
NOT_A_FAMILY = OptimizationResult(3.47, Probability(0.64), (1.0, 3.0, 9.0), 12, True)


def _negbinomial_band_mpmath(r, p):
    """40-digit band mass of NegativeBinomial(r, p), summed over the band of
    the double moments from pmf(lo) by the exact ratio recursion."""
    mean, variance = moments(NegativeBinomial(r, p))
    sd = math.sqrt(variance)
    lo, hi = max(0, math.ceil(mean - sd)), math.floor(mean + sd)
    with mpmath.workdps(40):
        r40, p40 = mpmath.mpf(r), mpmath.mpf(p)
        q40 = 1 - p40
        pmf = mpmath.exp(
            mpmath.loggamma(lo + r40) - mpmath.loggamma(r40) - mpmath.loggamma(lo + 1)
            + r40 * mpmath.log(p40) + lo * mpmath.log(q40)
        )
        total = mpmath.mpf(0)
        for k in range(lo, hi + 1):
            total += pmf
            pmf *= (k + r40) * q40 / (k + 1)
        return total


def _inverse_gaussian_band_mpmath(mu, shape):
    """40-digit band mass of InverseGaussian(mu, shape) from its closed-form
    CDF at the exact band edges mu +- sqrt(mu^3 / shape)."""
    with mpmath.workdps(40):
        mu, shape = mpmath.mpf(mu), mpmath.mpf(shape)

        def cdf(x):
            if x <= 0:
                return 0
            root = mpmath.sqrt(shape / x)
            return (mpmath.ncdf(root * (x / mu - 1))
                    + mpmath.exp(2 * shape / mu) * mpmath.ncdf(-root * (x / mu + 1)))

        sd = mpmath.sqrt(mu ** 3 / shape)
        return cdf(mu + sd) - cdf(mu - sd)


def _compound_cdf_mpmath(rate, x, start=0):
    """P{S <= x} in jump-scale units as sum_{k >= start} Pois_x(k) F_rate(k),
    F_rate the Poisson(rate) CDF, taking F_rate(start - 1) as 0."""
    log_factorial = mpmath.loggamma(start + 1)
    pmf_x = mpmath.exp(start * mpmath.log(x) - x - log_factorial)
    pmf_rate = mpmath.exp(start * mpmath.log(rate) - rate - log_factorial)
    cdf_rate = total = mpmath.mpf(0)
    k = start
    while k <= x or pmf_x > mpmath.mpf(10) ** -45:
        cdf_rate += pmf_rate
        total += pmf_x * cdf_rate
        k += 1
        pmf_x *= x / k
        pmf_rate *= rate / k
    return total


def _compound_band_mpmath(rate, scale, window=None):
    """40-digit band mass of CompoundPoissonExp(rate, scale), summed from
    k = 0, or from `window` standard deviations of Poisson(H) below L."""
    with mpmath.workdps(40):
        rate, scale = mpmath.mpf(rate), mpmath.mpf(scale)
        mean, sd = rate * scale, mpmath.sqrt(2 * rate) * scale
        upper, lower = (mean + sd) / scale, (mean - sd) / scale
        start = 0 if window is None else int(lower - window * mpmath.sqrt(upper))
        total = _compound_cdf_mpmath(rate, upper, start)
        if mean - sd > 0:
            total -= _compound_cdf_mpmath(rate, lower, start)
        return float(total)


def _compound_density_mpmath(rate, offset):
    """40-digit e^(-rate - s) sqrt(rate/s) I_1(2 sqrt(rate s)) at the exact
    s = rate + offset."""
    with mpmath.workdps(40):
        rate = mpmath.mpf(rate)
        s = rate + mpmath.mpf(offset)
        return float(mpmath.exp(-rate - s) * mpmath.sqrt(rate / s)
                     * mpmath.besseli(1, 2 * mpmath.sqrt(rate * s)))


def _termwise_terms_mpmath(rate, lower, upper, count):
    """The first `count` terms Pois_rate(k + 1) (F_lower(k) - F_upper(k)) of
    _compound_termwise, at 80 digits: tiny windows cancel ~2 digits a term."""
    with mpmath.workdps(80):
        rate, lower, upper = mpmath.mpf(rate), mpmath.mpf(lower), mpmath.mpf(upper)
        pmf_lower, pmf_upper = mpmath.exp(-lower), mpmath.exp(-upper)
        weight, window = rate * mpmath.exp(-rate), pmf_lower - pmf_upper
        terms = [weight * window]
        for k in range(1, count):
            pmf_lower *= lower / k
            pmf_upper *= upper / k
            window += pmf_lower - pmf_upper
            weight *= rate / (k + 1)
            terms.append(weight * window)
        return terms


def _band_edges(rate):
    sd = math.sqrt(2.0 * rate)
    return max(rate - sd, 0.0), rate + sd


class TestCompoundDensity:
    # 4 rates a decade over [0.01, 1e7], and rates whose two-sd window holds
    # rate s = 400, where the band switches from its termwise sum (below
    # rate max(L, 0) = 400, i.e. rate ~23.74) to the density's quadrature
    RATES = [10 ** (e / 4) for e in range(-8, 29)] + [16.0, 18.0, 20.0, 22.5, 25.0, 28.0]
    # rates 16 to 28 in steps of 0.05, across the switch
    SWEEP = [16.0 + v / 20 for v in range(241)]
    SWITCH = 23.739854874270414

    def _points(self):
        """(rate, offset) pairs with rate (rate + offset) >= 400."""
        points = []
        for rate in self.RATES:
            sd = math.sqrt(2.0 * rate)
            points += [(rate, sd * v / 8) for v in range(-16, 17) if rate + sd * v / 8 > 0]
            if 16.0 <= rate <= 28.0:
                points += [(rate, 400.0 / rate * (1.0 + v) - rate)
                           for v in (-1e-2, -1e-12, 1e-12, 1e-2)]
        return [(rate, offset) for rate, offset in points if rate * (rate + offset) >= 400.0]

    def test_against_mpmath_within_two_sd(self):
        # Hankel's expansion alone, at rate s >= 400, against mpmath at the
        # exact s = rate + offset: measured 6.6e-16 at worst
        points = self._points()
        assert min(rate * (rate + offset) for rate, offset in points) < 400.0 * (1.0 + 1e-11)
        for rate, offset in points:
            expected = _compound_density_mpmath(rate, offset)
            assert abs(_compound_density(rate, offset) - expected) <= 1e-15 * expected, (
                rate, offset)
        # below it the expansion diverges before it converges
        for rate, offset in ((1.0, 398.0), (20.0, -0.01), (0.01, -0.01)):
            with pytest.raises(ValueError, match="rate \\* s >= 400"):
                _compound_density(rate, offset)

    def test_termwise_band_against_mpmath(self):
        # every RATES value below the switch and the sweep across it, both
        # methods; measured: 3.3e-16 at worst termwise, 4.9e-16 above
        rates = [rate for rate in self.RATES if rate < self.SWITCH] + self.SWEEP
        assert sum(rate < self.SWITCH for rate in rates) > 100
        for rate in rates:
            expected = _compound_band_mpmath(rate, 1.0)
            band = band_prob(CompoundPoissonExp(rate, 1.0))
            assert abs(band - expected) <= 1e-15 * expected, rate

    def test_termwise_sum_takes_at_most_two_terms_more_than_needed(self):
        # the omitted tail is at most 2^-56 of the sum, and would not be
        # with three terms fewer
        rates = [10 ** (e / 10) for e in range(-60, 14)] + [math.nextafter(self.SWITCH, 0.0)]
        counts = []
        for rate in rates:
            lower, upper = _band_edges(rate)
            _, count = iddist._compound_termwise(rate, lower, upper)
            counts.append(count)
            terms = _termwise_terms_mpmath(rate, lower, upper, count + 60)
            bound = mpmath.mpf(2) ** -56 * sum(terms)
            assert sum(terms[count:]) <= bound, rate
            if count > 3:
                assert sum(terms[count - 3:]) > bound, rate
        assert counts[0] == 3 and counts[-1] == 62

    def test_band_at_near_zero_rates_against_mpmath(self):
        # the atom e^-rate is nearly all of it; the first window is -expm1(-H)
        for rate in (1e-300, 1e-12, 1e-4, 0.01):
            expected = _compound_band_mpmath(rate, 1.0)
            band = band_prob(CompoundPoissonExp(rate, 1.0))
            assert abs(band - expected) <= 1e-15 * expected, rate
        assert band_prob(CompoundPoissonExp(1e-300, 1.0)) == 1.0

    @pytest.mark.parametrize("switch", [300.0, 500.0])
    def test_band_barely_moves_when_the_switch_moves(self, switch, monkeypatch):
        # rates 20.85 to 26.28 change method; measured: the two methods lie
        # 0-4 ulp apart there (median 2), and every band within 4.9e-16 of mpmath
        monkeypatch.setattr(iddist, "_HANKEL_MIN", switch)
        lo, hi = sorted((switch, 400.0))
        assert sum(lo <= rate * (rate - math.sqrt(2.0 * rate)) < hi for rate in self.SWEEP) > 40
        for rate in self.SWEEP:
            expected = _compound_band_mpmath(rate, 1.0)
            band = band_prob(CompoundPoissonExp(rate, 1.0))
            assert abs(band - expected) <= 1e-15 * expected, (rate, switch)

    def test_band_cost_is_bounded_on_both_sides_of_the_switch(self, monkeypatch):
        # above the switch one fixed 12-node rule; below it no density call,
        # and a sum of at most rate + 8 sqrt(rate) + 6 terms
        calls = []

        def counted(rate, offset):
            calls.append(rate)
            return _compound_density(rate, offset)

        monkeypatch.setattr(iddist, "_compound_density", counted)
        above = (math.nextafter(self.SWITCH, 30.0), 100.0, 1e3, 1e7)
        below = (1e-300, 0.01, 2.0, math.nextafter(self.SWITCH, 0.0))
        for rate in above + below:
            band_prob(CompoundPoissonExp(rate, 1.0))
        assert [calls.count(rate) for rate in above + below] == [12] * 4 + [0] * 4
        for rate in [10 ** (e / 20) for e in range(-120, 28)] + self.SWEEP[:155]:
            _, count = iddist._compound_termwise(rate, *_band_edges(rate))
            assert count <= rate + 8.0 * math.sqrt(rate) + 6.0, rate


def _compound_density_per_step(rate, offset):
    """_compound_density with each Hankel ratio formed per step, as it was
    before the tables, and the k at which its loop ends; for rate s >= 100."""
    s = rate + offset
    z = 2.0 * math.sqrt(rate * s)
    term = -3.0 / (8.0 * z)
    total = 1.0 + term
    k = 1
    while term < -1e-17:
        k += 1
        term *= ((2 * k - 1) ** 2 - 4) / (8.0 * k * z)
        total += term
    square = offset * offset / (2.0 * rate + offset + z)
    density = math.sqrt(rate / s) * math.exp(-square) * total / math.sqrt(2.0 * math.pi * z)
    return density, k


class TestHankelTables:
    def test_entries_are_their_formulas(self):
        assert len(iddist._HANKEL_NUMERATORS) == len(iddist._HANKEL_EIGHT_K) == 28
        for k, (num, eight_k) in enumerate(zip(iddist._HANKEL_NUMERATORS, iddist._HANKEL_EIGHT_K)):
            assert type(num) is float and num == (2 * k - 1) ** 2 - 4
            assert type(eight_k) is float and eight_k == 8 * k

    def test_loop_ends_within_the_tables(self):
        # at the least admitted z = 2 sqrt(400) = 40 the loop ends at k = 14;
        # the tables run on to its end at rate s = 100 (z = 20)
        assert _compound_density_per_step(1.0, 399.0)[1] == 14
        assert _compound_density_per_step(1.0, 99.0)[1] == 27
        assert len(iddist._HANKEL_NUMERATORS) == 28
        # at a larger z every term is smaller, and the loop ends no later
        ends = [_compound_density_per_step(1.0, 99.0 + v)[1] for v in range(0, 5000)]
        assert ends == sorted(ends, reverse=True)

    def test_densities_match_the_per_step_loop_bit_for_bit(self, monkeypatch):
        rng = random.Random(20261020)
        points = []
        for _ in range(1500):
            rate = 10 ** rng.uniform(math.log10(30.0), 7.0)
            points.append((rate, rng.uniform(-2.0, 2.0) * math.sqrt(2.0 * rate)))
        # rate s in [100, 400): the switch lowered as far as the tables reach
        for _ in range(500):
            rate = 10 ** rng.uniform(-1.0, 1.3)
            points.append((rate, rng.uniform(100.0, 400.0) / rate - rate))
        points += [(1.0, 399.0), (20.0, 0.0), (1.0, 99.0)]
        monkeypatch.setattr(iddist, "_HANKEL_MIN", 100.0)
        for rate, offset in points:
            expected, _ = _compound_density_per_step(rate, offset)
            assert _compound_density(rate, offset).hex() == expected.hex(), (rate, offset)


class TestSpecs:
    def test_parameter_validation(self):
        for lam in (0.0, True):
            with pytest.raises(ValueError):
                Poisson(lam)
        with pytest.raises(ValueError):
            NegativeBinomial(1.0, 1.0)
        with pytest.raises(ValueError):
            NegativeBinomial(-1.0, 0.5)
        with pytest.raises(ValueError):
            InverseGaussian(1.0, 0.0)
        with pytest.raises(ValueError):
            CompoundPoissonExp(1.0, float("nan"))
        with pytest.raises(ValueError):
            GammaDist(0.0)


class TestMoments:
    def test_closed_forms(self):
        assert moments(Poisson(1.0)) == (1.0, 1.0)
        assert moments(GammaDist(2.0, 3.0)) == (6.0, 18.0)
        assert moments(CompoundPoissonExp(2.0, 1.0)) == (2.0, 4.0)
        assert moments(InverseGaussian(2.0, 4.0)) == (2.0, 2.0)
        mean, variance = moments(NegativeBinomial(3.0, 0.25))
        assert mean == pytest.approx(3.0 * 0.75 / 0.25)
        assert variance == pytest.approx(3.0 * 0.75 / 0.25 ** 2)
        assert moments(NormalBaseline()) == (0.0, 1.0)

    def test_moments_are_finite_or_refused(self):
        # computed by products: a variance past the doubles is a ValueError,
        # never an OverflowError (from **) or a ZeroDivisionError (from p ** 2)
        values = (5e-324, 1e-200, 1.0, 5.6e102, 1.3e154, 1e300, 1.7e308, 10 ** 300)
        probabilities = (1e-300, 1e-200, 1e-162, 0.5, 1.0 - 2.0 ** -53)
        specs = [Poisson(v) for v in values] + [NormalBaseline()]
        for a in values:
            for b in values:
                specs += [GammaDist(a, b), InverseGaussian(a, b), CompoundPoissonExp(a, b)]
            specs += [NegativeBinomial(a, p) for p in probabilities]
        refused = set()
        for spec in specs:
            try:
                mean, variance = moments(spec)
            except ValueError as error:
                assert "is not a finite double" in str(error), spec
                refused.add(type(spec))
                continue
            assert math.isfinite(mean) and math.isfinite(variance), spec
            if type(spec) is InverseGaussian:
                # a few roundings of the exact rational, or one below the normals
                exact = Fraction(spec.mu) ** 3 / Fraction(spec.shape)
                error = abs(Fraction(variance) - exact)
                assert error <= exact * 2 ** -50 + Fraction(2 ** -1074), spec
        assert refused == {GammaDist, InverseGaussian, CompoundPoissonExp, NegativeBinomial}
        # mu / shape overflows, mu^3 / shape does not
        variance = moments(InverseGaussian(1e-10, 5e-324))[1]
        exact = Fraction(1e-10) ** 3 / Fraction(5e-324)
        assert abs(Fraction(variance) - exact) <= exact * 2 ** -51
        # mu^2 overflows, and so does mu^3 / shape: refused as before
        message = ("variance mu^3 / shape is not a finite double at "
                   "InverseGaussian(mu=1e+200, shape=1.0)")
        with pytest.raises(ValueError, match=re.escape(message)):
            moments(InverseGaussian(1e200, 1.0))
        for spec in (InverseGaussian(1e103, 1.0), CompoundPoissonExp(1.0, 1.4e154),
                     GammaDist(1.0, 1.4e154), NegativeBinomial(1.0, 1e-200)):
            with pytest.raises(ValueError, match="variance"):
                moments(spec)
        # the bands of the first three need no variance
        assert band_prob(InverseGaussian(1e103, 1.0)) == 1.0
        assert band_prob(CompoundPoissonExp(1.0, 1.4e154)) == band_prob(CompoundPoissonExp(1.0, 1.0))

    def test_rejects_non_spec(self):
        # a record that is not one of the families is refused like any object
        for entry in (moments, band_prob):
            for spec in (42, NOT_A_FAMILY):
                with pytest.raises(TypeError):
                    entry(spec)

    def test_spec_check_by_exact_type_then_isinstance(self):
        # the six classes pass on their exact type, a subclass of one on the
        # isinstance check after it; anything else gets the same TypeError,
        # a record of the package that is not a family too
        class PoissonSubclass(Poisson):
            __slots__ = ()

        class GammaSubclass(GammaDist):
            __slots__ = ()

        pairs = ((PoissonSubclass(3.5), Poisson(3.5)), (GammaSubclass(2.0), GammaDist(2.0)))
        for spec, plain in pairs:
            assert float(band_prob(spec)).hex() == float(band_prob(plain)).hex()
            assert type(band_prob(spec)) is Probability
            assert moments(spec) == moments(plain)
        for entry in (band_prob, moments):
            with pytest.raises(TypeError, match=r"^not a distribution spec: 42$"):
                entry(42)
            message = (r"^not a distribution spec: OptimizationResult\(argmin=3.47, "
                       r"min_value=0.64, bracket=\(1.0, 3.0, 9.0\), evaluations=12, "
                       r"converged=True\)$")
            with pytest.raises(TypeError, match=message):
                entry(NOT_A_FAMILY)

    def test_spec_type_is_the_six_family_classes(self):
        assert type(DistributionSpec) is tuple
        assert set(DistributionSpec) == {
            Poisson, NegativeBinomial, InverseGaussian, CompoundPoissonExp, GammaDist,
            NormalBaseline,
        }
        assert len(DistributionSpec) == 6
        for family in FAMILIES:
            for spec in default_grid(family):
                assert isinstance(spec, DistributionSpec), (family, spec)

    def test_entry_points_call_the_family_methods(self):
        specs = (Poisson(3.5), NegativeBinomial(3.0, 0.25), InverseGaussian(2.0, 4.0),
                 CompoundPoissonExp(2.0, 0.5), GammaDist(2.0, 3.0), NormalBaseline())
        for spec in specs:
            assert moments(spec) == spec.moments()
            assert band_prob(spec) == spec.band()


class TestBandProb:
    def test_poisson_unit_rate(self):
        # band [0, 2]: e^{-1}(1 + 1 + 1/2)
        assert band_prob(Poisson(1.0)) == pytest.approx(2.5 * math.exp(-1.0), abs=1e-14)

    def test_poisson_refuses_lam_above_1e7(self):
        # the band sums ~2 sqrt(lam) pmf terms, a cost that grows without bound
        assert 0.68 < band_prob(Poisson(1e7)) < 0.69
        with pytest.raises(ValueError):
            band_prob(Poisson(1e8))

    def test_gamma_exponential(self):
        assert band_prob(GammaDist(1.0)) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-13)

    def test_normal_baseline(self):
        assert band_prob(NormalBaseline()) == std_normal_band(1.0)

    def test_gamma_scale_invariance(self):
        for alpha in (0.01, 0.5, 1.0, 7.3, 400.0):
            reference = t(alpha)
            for beta in (1e-3, 1.0, 42.0, 1e4):
                assert abs(band_prob(GammaDist(alpha, beta)) - reference) <= 1e-12

    def test_poisson_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(11)
        for _ in range(50):
            lam = math.exp(rng.uniform(math.log(0.01), math.log(1e3)))
            mean, sd = lam, math.sqrt(lam)
            lo, hi = max(0, math.ceil(mean - sd)), math.floor(mean + sd)
            dist = stats.poisson(lam)
            expected = dist.cdf(hi) - (dist.cdf(lo - 1) if lo > 0 else 0.0)
            assert band_prob(Poisson(lam)) == pytest.approx(expected, abs=1e-9)

    def test_poisson_against_mpmath(self):
        rng = random.Random(14)
        lams = [math.exp(rng.uniform(math.log(0.01), math.log(1e3))) for _ in range(50)]
        # the four default-grid lams whose 12th printed digit the window pmf corrected
        lams += [148.20207057988566, 444.8782831127584, 529.1978735958436, 666.9919663030117]
        # test_poisson_against_scipy's points, checked here without scipy
        rng = random.Random(11)
        lams += [math.exp(rng.uniform(math.log(0.01), math.log(1e3))) for _ in range(50)]
        for lam in lams:
            sd = math.sqrt(lam)
            lo, hi = max(0, math.ceil(lam - sd)), math.floor(lam + sd)
            with mpmath.workdps(40):
                mlam = mpmath.mpf(lam)
                expected = mpmath.fsum(
                    mpmath.exp(k * mpmath.log(mlam) - mlam - mpmath.loggamma(k + 1))
                    for k in range(lo, hi + 1)
                )
            assert abs(band_prob(Poisson(lam)) - expected) <= 1e-15, lam

    def test_negbinomial_near_underflow_against_mpmath(self):
        # p^r = 1e-300 is still a normal double
        r, p = 150.0, 0.01
        assert abs(band_prob(NegativeBinomial(r, p)) - _negbinomial_band_mpmath(r, p)) <= 1e-12

    def test_negbinomial_against_mpmath(self):
        # p^r underflows at the first two; the band is [1, 2] at the third
        points = [(1e3, 0.01), (1e4, 0.01), (1e3, 0.999), (16.0, 0.05)]
        points += [(s.r, s.p) for s in random.Random(15).sample(default_grid("negbinomial"), 150)]
        # test_negbinomial_against_scipy's points, checked here without scipy
        rng = random.Random(12)
        for _ in range(50):
            r = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
            points.append((r, rng.uniform(0.05, 0.95)))
        for r, p in points:
            expected = _negbinomial_band_mpmath(r, p)
            assert abs(band_prob(NegativeBinomial(r, p)) - expected) <= 1e-14, (r, p)

    def test_negbinomial_below_shape_ten_refuses_underflowed_pmf(self):
        # below r = 10 the band walks from pmf(0) = p^r, here 1e-350
        with pytest.raises(ValueError, match="r=5.0, p=1e-70"):
            band_prob(NegativeBinomial(5.0, 1e-70))
        with pytest.raises(ValueError):
            conjecture_scan("negbinomial", grid=[NegativeBinomial(5.0, 1e-70)])

    def test_negbinomial_admits_bands_up_to_a_million_terms(self):
        # (1e5, 0.001) sums ~6.3e5 terms; the default grid, at most ~400,
        # runs whole in the conjecture golden transcript of test_cli.py
        for r, p in ((1e3, 0.01), (1e4, 0.01), (1e5, 0.001)):
            assert abs(band_prob(NegativeBinomial(r, p)) - 0.6827) < 1e-3, (r, p)

    def test_negbinomial_refuses_more_than_a_million_terms(self):
        # a walk of ~5e9 terms from 0 below r = 10, a band of ~6.3e8 above it
        for r, p in ((5.0, 1e-9), (1e3, 1e-7)):
            with pytest.raises(ValueError, match=f"r={r!r}, p={p!r}"):
                band_prob(NegativeBinomial(r, p))
        with pytest.raises(ValueError, match="terms exceed"):
            conjecture_scan("negbinomial", grid=[NegativeBinomial(5.0, 1e-70)])

    def test_negbinomial_refuses_a_band_its_edges_cannot_resolve(self):
        # from r q ~ 1e33 up mean +- sd round to one integer, and the band
        # read as one pmf value (2.8e-18 at r = 1e34, against ~0.68); its
        # width of ~1.4e17 terms and more is refused before that rounding
        for r in (1e34, 1e100):
            with pytest.raises(ValueError, match=re.escape(f"terms exceed 1000000 at r={r!r}")):
                band_prob(NegativeBinomial(r, 0.5))

    def test_negbinomial_refuses_p_whose_square_underflows(self):
        # p ** 2 is 0 below p ~ 1.5e-162; the band is ~2e200 terms wide
        spec = NegativeBinomial(1.0, 1e-200)
        with pytest.raises(ValueError, match="variance r q / p\\^2 is not a finite double"):
            moments(spec)
        with pytest.raises(ValueError, match="terms exceed"):
            band_prob(spec)
        # (r q / p) / p keeps a finite variance where p ** 2 is 0
        assert moments(NegativeBinomial(1e-200, 1e-163))[1] == pytest.approx(1e126)

    def test_negbinomial_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(12)
        for _ in range(50):
            r = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
            p = rng.uniform(0.05, 0.95)
            mean, variance = moments(NegativeBinomial(r, p))
            sd = math.sqrt(variance)
            lo, hi = max(0, math.ceil(mean - sd)), math.floor(mean + sd)
            dist = stats.nbinom(r, p)
            expected = dist.cdf(hi) - (dist.cdf(lo - 1) if lo > 0 else 0.0)
            assert band_prob(NegativeBinomial(r, p)) == pytest.approx(expected, abs=1e-9)

    def test_inverse_gaussian_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for mu, shape in ((1.0, 2.0), (0.3, 5.0), (10.0, 0.5), (0.05, 80.0), (100.0, 0.01)):
            mean, variance = moments(InverseGaussian(mu, shape))
            sd = math.sqrt(variance)
            dist = stats.invgauss(mu / shape, scale=shape)
            expected = dist.cdf(mean + sd) - (dist.cdf(mean - sd) if mean > sd else 0.0)
            assert band_prob(InverseGaussian(mu, shape)) == pytest.approx(expected, abs=1e-9)

    def test_inverse_gaussian_against_mpmath(self):
        # the closed form at 40 digits and the exact band edges; the worst
        # point of the whole default grid is 2.2e-16, at mu = 39, shape = 1.9
        sample = random.Random(16).sample(default_grid("invgaussian"), 300)
        points = [(s.mu, s.shape) for s in sample]
        points += [(0.01, 100.0), (100.0, 0.01), (1.0, 1.0)]
        # test_inverse_gaussian_against_scipy's other points, checked here
        # without scipy
        points += [(1.0, 2.0), (0.3, 5.0), (10.0, 0.5), (0.05, 80.0)]
        for mu, shape in points:
            expected = _inverse_gaussian_band_mpmath(mu, shape)
            assert abs(band_prob(InverseGaussian(mu, shape)) - expected) <= 4e-16, (mu, shape)

    def test_inverse_gaussian_against_mpmath_over_phi(self, monkeypatch):
        # phi = shape/mu over [1e-8, 1e8], densely where the band's E(w)
        # calls cross E's switch at w^2/2 = 700 (phi near 350) and where the
        # lower edge reaches 0 (phi = 1); measured: 1.8e-16 at worst (2.1e-16
        # at 100 points a decade)
        phis = [10 ** (e / 20) for e in range(-160, 161)]
        phis += [340.0 + v for v in range(21)] + [1.0 + v for v in (-1e-9, 1e-12, 1e-9, 1e-6)]
        seen = []

        def recorded(w):
            seen.append(w * w / 2)
            return _scaled_normal_sf(w)

        monkeypatch.setattr(iddist, "_scaled_normal_sf", recorded)
        for phi in phis:
            expected = _inverse_gaussian_band_mpmath(1.0, phi)
            assert abs(band_prob(InverseGaussian(1.0, phi)) - expected) <= 4e-16, phi
        assert min(seen) < 700.0 < max(seen)
        assert sum(1 for x in seen if 600.0 < x < 800.0) >= 20

    def test_inverse_gaussian_band_depends_on_phi_alone(self):
        # (mu, shape) and (2^k mu, 2^k shape) have one phi, bit for bit
        for mu, shape in ((1.0, 2.0), (0.3, 5.0), (0.01, 83.0), (100.0, 0.01), (7.0, 7.0)):
            reference = band_prob(InverseGaussian(mu, shape)).hex()
            for k in (-200, -30, -1, 1, 17, 300):
                scaled = InverseGaussian(math.ldexp(mu, k), math.ldexp(shape, k))
                assert band_prob(scaled).hex() == reference, (mu, shape, k)

    def test_inverse_gaussian_refuses_a_ratio_beyond_the_doubles(self):
        for mu, shape in ((1e-300, 1e300), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="shape/mu"):
                band_prob(InverseGaussian(mu, shape))
        # a subnormal phi is kept: the band tends to 1 as phi -> 0
        assert band_prob(InverseGaussian(1e300, 1e-10)) > band_prob(InverseGaussian(1.0, 1.0))
        # where w^2/2 overflows, E(w) takes its asymptote; the band is then
        # the normal one, to O(1/sqrt(phi))
        for phi in (1e300, 1.7e308):
            assert band_prob(InverseGaussian(1.0, phi)) == std_normal_band(1.0)

    def test_inverse_gaussian_calls_no_normal_cdf_or_log_tail(self, monkeypatch):
        # the band uses raw erfc and E(w), not the Probability-wrapped CDF or
        # the log-space tail: wrap every binding of both in the package
        calls = []

        def counted(fn):
            def wrapper(z):
                calls.append(fn.__name__)
                return fn(z)
            return wrapper

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gamma_extremes"]
        for name in ("std_normal_cdf", "log_std_normal_sf"):
            original = getattr(specfun, name)
            for module in modules:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted(original))
        specfun.std_normal_cdf(0.0)  # the wrapping counts
        assert calls == ["std_normal_cdf"]
        for spec in default_grid("invgaussian")[::25]:
            band_prob(spec)
        assert calls == ["std_normal_cdf"]

    def test_compound_poisson_against_high_precision_series(self):
        mpmath = pytest.importorskip("mpmath")
        for rate, scale in ((0.3, 1.3), (2.0, 0.7), (17.0, 5.0), (150.0, 1.0)):
            with mpmath.workdps(40):
                mean = rate * scale
                sd = mpmath.sqrt(2 * rate) * scale
                lo, hi = max(mpmath.mpf(0), mean - sd), mean + sd
                total = mpmath.e ** (-rate) if mean - sd <= 0 else mpmath.mpf(0)
                for n in range(1, 600):
                    weight = mpmath.e ** (-rate) * mpmath.mpf(rate) ** n / mpmath.factorial(n)
                    total += weight * (
                        mpmath.gammainc(n, 0, hi / scale, regularized=True)
                        - mpmath.gammainc(n, 0, lo / scale, regularized=True)
                    )
                expected = float(total)
            assert band_prob(CompoundPoissonExp(rate, scale)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_compound_poisson_against_mpmath_identity(self):
        rng = random.Random(13)
        rates = [0.01, 0.3, 1.9, 2.0, 2.1, 17.0, 150.0, 743.2, 1e3]
        rates += [math.exp(rng.uniform(math.log(0.01), math.log(1e3))) for _ in range(20)]
        for rate in rates:
            for scale in (1e-3, 1.0, 1e3):
                expected = _compound_band_mpmath(rate, scale)
                assert abs(band_prob(CompoundPoissonExp(rate, scale)) - expected) <= 1e-14

    def test_compound_poisson_default_grid_against_mpmath(self):
        # 40 rates a decade over [0.01, 1e3], 134 of them summed termwise;
        # measured: 3.3e-16 at worst below the switch, 4.9e-16 above
        for spec in default_grid("compound_poisson_exp"):
            rate = spec.rate
            expected = _compound_band_mpmath(rate, 1.0, window=None if rate < 200.0 else 10)
            assert abs(band_prob(spec) - expected) <= 1e-15 * expected, rate

    def test_compound_poisson_large_rate(self):
        # 10 standard deviations below L leave out less than e^-50 of each law;
        # the quadrature's offsets from the rate are exact, so the error does
        # not grow with the rate: measured 3.3e-16 at worst
        for rate in (3e5, 1e6, 3e6):
            expected = _compound_band_mpmath(rate, 1.0, window=10)
            band = band_prob(CompoundPoissonExp(rate, 1.0))
            assert abs(band - expected) <= 1e-15 * expected, rate

    def test_compound_poisson_refuses_rate_above_1e7(self):
        assert 0.68 < band_prob(CompoundPoissonExp(1e7, 1.0)) < 0.69
        with pytest.raises(ValueError):
            band_prob(CompoundPoissonExp(1.01e7, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(min_value=0.01, max_value=200.0),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_compound_poisson_matches_gamma_mixture(self, rate, scale):
        # the atom at 0 plus sum_n Pois_rate(n) [P(n, H) - P(n, L)]: given
        # n >= 1 jumps the sum is Gamma(n, scale)
        mean, variance = moments(CompoundPoissonExp(rate, scale))
        sd = math.sqrt(variance)
        lo, hi = max(0.0, mean - sd) / scale, (mean + sd) / scale
        weight = math.exp(-rate)
        total = weight if mean - sd <= 0.0 else 0.0
        n = 0
        while n <= rate or weight > 1e-18:
            n += 1
            weight *= rate / n
            window = reg_lower_gamma(n, hi) - (reg_lower_gamma(n, lo) if lo > 0.0 else 0.0)
            total += weight * window
        assert abs(band_prob(CompoundPoissonExp(rate, scale)) - total) <= 1e-12

    def test_compound_poisson_scale_free(self):
        for rate in (0.5, 3.0, 40.0):
            reference = band_prob(CompoundPoissonExp(rate, 1.0))
            for scale in (1e-3, 2.0, 1e3):
                assert band_prob(CompoundPoissonExp(rate, scale)) == pytest.approx(
                    reference, abs=1e-12
                )

    def test_compound_poisson_atom_rule(self):
        # mean - sd <= 0 exactly when rate <= 2; the atom enters the band there
        below = band_prob(CompoundPoissonExp(1.9, 1.0))
        assert below > math.exp(-1.9)  # includes the atom
        above = band_prob(CompoundPoissonExp(2.1, 1.0))
        assert above < 1.0

    def test_discrete_endpoints_inclusive_and_stable(self):
        # lam=4: band is [2, 6] with both endpoints integers, included
        lam = 4.0
        sd = math.sqrt(lam)
        value = band_prob(Poisson(lam))
        direct = sum(
            math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in range(2, 7)
        )
        assert value == pytest.approx(direct, abs=1e-13)
        # non-integer boundaries: nudging the radius by 1e-12 changes nothing
        lam = 7.3
        mean, sd = lam, math.sqrt(lam)
        lo, hi = math.ceil(mean - sd), math.floor(mean + sd)
        for eps in (-1e-12, 1e-12):
            assert math.ceil(mean - (sd + eps)) == lo
            assert math.floor(mean + (sd + eps)) == hi


class TestConjectureScan:
    def test_gamma_family_clean(self):
        report = conjecture_scan("gamma")
        assert report.violations == ()
        assert float(report.min_band) > 0.6826895

    def test_normal_equality(self):
        report = conjecture_scan("normal")
        assert float(report.min_band) == std_normal_band(1.0)
        assert report.violations == ()

    def test_min_band_is_grid_minimum(self):
        grid = [Poisson(lam) for lam in (0.5, 1.0234, 4.0, 9.0)]
        report = conjecture_scan("poisson", grid=grid)
        values = [band_prob(s) for s in grid]
        assert float(report.min_band) == min(values)
        assert report.argmin_params == grid[values.index(min(values))]

    def test_violations_subset_and_truthful(self):
        report = conjecture_scan("poisson")
        threshold = report.threshold
        for spec, value in report.violations:
            assert spec in report.grid
            assert value < threshold - 1e-9
        recomputed = sum(
            1 for spec in report.grid if band_prob(spec) < threshold - 1e-9
        )
        assert len(report.violations) == recomputed

    def test_notes_label_evidence(self):
        report = conjecture_scan("negbinomial", grid=default_grid("negbinomial")[:40])
        assert any("evidence only" in note for note in report.notes)
        assert any("failures before" in note for note in report.notes)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            conjecture_scan("gamma", grid=[])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            default_grid("cauchy")

    @pytest.mark.parametrize("family", ("bogus", "Poisson", None))
    def test_unknown_family_refused_with_a_grid(self, family):
        """A grid does not stand in for the family: its name is checked as
        default_grid checks it, with the same message."""
        with pytest.raises(ValueError) as from_grid:
            default_grid(family)
        with pytest.raises(ValueError) as from_scan:
            conjecture_scan(family, [Poisson(1.0)])
        assert str(from_scan.value) == str(from_grid.value)

    def test_all_default_scans_complete(self):
        for family in ("poisson", "invgaussian", "compound_poisson_exp"):
            report = conjecture_scan(family)
            assert 0.0 < float(report.min_band) <= 1.0
            assert report.argmin_params in report.grid


class TestGaussLegendre:
    @pytest.mark.parametrize("n", (1, 2, 5, 12, 16))
    def test_matches_mpmath_rule(self, n):
        nodes, weights = _gauss_legendre(n)
        with mpmath.workdps(30):
            mp_nodes, mp_weights = mpmath.gauss_quadrature(n, "legendre")
            for x, w, mp_x, mp_w in zip(nodes, weights, mp_nodes, mp_weights):
                assert abs(x - mp_x) <= 1e-16, (n, x)
                assert abs(w - mp_w) <= 4e-15 * mp_w, (n, w)

    @pytest.mark.parametrize("n", (1, 2, 5, 12, 16))
    def test_integrates_monomials_exactly(self, n):
        # the n-point rule is exact for x^k, k <= 2n - 1, on [-1, 1]
        nodes, weights = _gauss_legendre(n)
        assert nodes == [-x for x in reversed(nodes)]
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            value = math.fsum(w * x ** k for x, w in zip(nodes, weights))
            assert abs(value - exact) <= 1e-14, (n, k)


BAND_BITS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "iddist_bits.txt")

# specs that reach every branch of each family's band
BAND_BITS_SPECS = (
    # negative binomial, r < 10: the walk from p^r, with lo = 0 and lo > 0
    NegativeBinomial(0.5, 0.7), NegativeBinomial(3.0, 0.5), NegativeBinomial(5.0, 0.3),
    NegativeBinomial(9.99, 0.05), NegativeBinomial(1.456348477501244, 0.3071428571428571),
    # r >= 10: the anchor at k0 = 0 (with hi = 0 and hi > 0), at k0 = lo > 0
    # and inside the band. k0 = int((r - 1) q / p) = int(mean - q / p) lies
    # in [lo, hi] there, as sd > q / p + 1 once lo > 0, so the band takes it
    # unclamped (TestLatticeAnchor).
    NegativeBinomial(10.0, 0.99), NegativeBinomial(14.0, 0.945),
    NegativeBinomial(10.164814296421225, 0.8706619352348335),
    NegativeBinomial(49.41713361323832, 0.5275510204081633),
    NegativeBinomial(100.0, 0.05), NegativeBinomial(1e4, 0.01), NegativeBinomial(1e6, 0.5),
    # Poisson: k0 = 0, 1 <= k0 < 10 (the stirlerr table), k0 >= 10, lam = 1e6
    Poisson(0.3), Poisson(1.0), Poisson(5), Poisson(7.3), Poisson(37.5), Poisson(1e6),
    # inverse Gaussian: s = 1 / sqrt(phi) >= 1, s < 1, and phi > 350, where
    # the scaled tail runs Lentz's fraction
    InverseGaussian(1.0, 0.25), InverseGaussian(1.0, 1.0), InverseGaussian(2.0, 7.0),
    InverseGaussian(0.01, 4.0), InverseGaussian(1.0, 1e8),
    # compound Poisson: with the atom (rate <= 2), termwise, Hankel's
    CompoundPoissonExp(0.01, 1.0), CompoundPoissonExp(1.9, 1.0), CompoundPoissonExp(3.0, 1.0),
    CompoundPoissonExp(23.0, 1.0), CompoundPoissonExp(24.0, 1.0), CompoundPoissonExp(1e7, 1.0),
    # Gamma: the series, the fraction, Temme's expansion
    GammaDist(0.5), GammaDist(7.0), GammaDist(150.0), GammaDist(1e6),
    NormalBaseline(),
)


def band_bit_lines():
    """One line per band: the spec and float.hex of band_prob's result."""
    return [f"band_prob({spec!r}) {float(band_prob(spec)).hex()}" for spec in BAND_BITS_SPECS]


def test_band_bits_match_golden():
    """Every output bit of band_prob at fixed specs on every branch of each
    family's band, against a transcript of the same calls. A change that
    moves any of these bits must say so."""
    with open(BAND_BITS, encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    assert band_bit_lines() == golden


def test_band_results_are_exactly_probability():
    """Every branch of every family's band returns a Probability, not a
    subclass; the incomplete gamma's results below the normal doubles stay
    LogProbability values with the logs they had when every result went
    through the Probability constructor."""
    for spec in BAND_BITS_SPECS:
        assert type(band_prob(spec)) is Probability, spec
    for value, log in ((gamma_prob.h(0.5, 1e7), "-0x1.d78d81726fff3p+20"),
                       (reg_lower_gamma(2.0, 1e-160), "-0x1.70c29bb6268e9p+9"),
                       (lower_series(2.0, 1e-160), "-0x1.70c29bb6268e9p+9"),
                       (upper_continued_fraction(1.0, 800.0), "-0x1.9000000000000p+9")):
        assert type(value) is LogProbability
        assert value.log.hex() == log


class TestLatticeAnchor:
    """The lattice bands anchor at the mode with no clamp into [lo, hi]; the
    proofs are in the comments at the two anchors. Each band here hands
    _lattice_pmf its k0 and band edges, which a stub records in place of
    the sum."""

    @pytest.fixture
    def anchors(self, monkeypatch):
        seen = []

        def record(anchor, k0, lo, hi, c, d):
            seen.append((k0, lo, hi))
            return [0.5]

        monkeypatch.setattr(iddist, "_lattice_pmf", record)
        return seen

    def test_negative_binomial_mode_lies_in_the_band(self, anchors):
        rng = random.Random(20260614)
        specs = [NegativeBinomial(10 ** rng.uniform(1.0, 5.0), rng.uniform(0.001, 0.999))
                 for _ in range(10_000)]
        # r q a few ulp above 1, where lo = 1 and the margin of the proof is
        # as small as the roundings: p stepped by ulps around 1 - 1/r
        shapes = [10.0 + v / 16 for v in range(400)]
        shapes += [10 ** rng.uniform(1.0, 5.0) for _ in range(400)]
        for r in shapes:
            p = 1.0 - 1.0 / r
            for direction in (0.0, 2.0):
                x = p
                for _ in range(40):
                    if 1.0 < r * (1.0 - x) <= 1.0 + 1e-15:
                        specs.append(NegativeBinomial(r, x))
                    x = math.nextafter(x, direction)
        for spec in specs:
            spec.band()
        assert len(anchors) == len(specs) > 10_000
        assert all(lo <= k0 <= hi for k0, lo, hi in anchors)
        # the proof's edge cases are reached: k0 at lo, and lo = k0 = 1 at
        # every r q just above 1
        assert sum(k0 == lo > 0 for k0, lo, _ in anchors[:10_000]) > 50
        assert len(anchors) > 10_300
        assert all(k0 == lo == 1 for k0, lo, _ in anchors[10_000:])

    def test_poisson_mode_lies_in_the_band(self, anchors):
        rng = random.Random(20260615)
        lams = [10 ** rng.uniform(-2.0, 7.0) for _ in range(10_000)]
        lams += [1.0, math.nextafter(1.0, 2.0), 2.0, 4.0, math.nextafter(4.0, 0.0), 1e7]
        for lam in lams:
            Poisson(lam).band()
        assert len(anchors) == len(lams)
        assert all(lo <= k0 <= hi for k0, lo, hi in anchors)
        assert sum(k0 == lo > 0 for k0, lo, _ in anchors) > 0
