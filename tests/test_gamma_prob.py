"""Tests for the Gamma probability functions h, t and band, for the
closed-form lemma behind h's one-step decrease, and for the Gauss-Legendre
rule that iddist's compound Poisson band integrates with."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from gamma_extremes import certificates, gamma_prob, iddist, specfun
from gamma_extremes.gamma_prob import GammaParams, band, h, t
from gamma_extremes.optimize import edgeworth_argmin, min_h, scan
from gamma_extremes.specfun import (
    MAX_SHAPE,
    MIN_SHAPE,
    TEMME_MIN_SHAPE,
    LogProbability,
    Probability,
    reg_lower_gamma,
    std_normal_band,
)


def mp_log_h(kappa, alpha):
    """log P(alpha, x) at 30 digits for x = kappa * alpha rounded as h rounds
    it, from the Kummer series x^a e^-x / Gamma(a+1) 1F1(1; a+1; x)."""
    with mpmath.workdps(30):
        a, x = mpmath.mpf(alpha), mpmath.mpf(float(kappa) * float(alpha))
        series = mpmath.hyp1f1(1, a + 1, x, maxterms=10 ** 6)
        return a * mpmath.log(x) - x - mpmath.loggamma(a + 1) + mpmath.log(series)


def mp_step_integral(kappa, alpha):
    """integral_0^1 kappa (1 + w/alpha)^alpha e^(-kappa w) dw at 30 digits by
    tanh-sinh quadrature, split at s, 4 s, ... below 1 for s = min(alpha,
    1/kappa) so that the branch point at w = -alpha and the boundary layer
    of width 1/kappa stay resolved."""
    with mpmath.workdps(30):
        k, a = mpmath.mpf(kappa), mpmath.mpf(alpha)
        points = [mpmath.mpf(0)]
        edge = min(a, 1 / k)
        while edge < 1:
            points.append(edge)
            edge *= 4
        points.append(mpmath.mpf(1))
        return mpmath.quad(lambda w: k * mpmath.exp(a * mpmath.log1p(w / a) - k * w), points)


def mp_step_bound(kappa):
    """kappa (e^(1-kappa) - 1) / (1 - kappa) at 30 digits, 1 at kappa = 1:
    the step integral with e^w in place of (1 + w/alpha)^alpha."""
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa)
        return k * mpmath.expm1(1 - k) / (1 - k) if k != 1 else mpmath.mpf(1)


def mp_unit_step(kappa, alpha):
    """(h(kappa, alpha + 1) - h(kappa, alpha), x^alpha e^-x / Gamma(alpha +
    1)) at 50 digits, x = kappa alpha: the step as a difference of P below
    kappa = 1 and of Q from 1 up, where P is too close to 1."""
    with mpmath.workdps(50):
        k, a = mpmath.mpf(kappa), mpmath.mpf(alpha)
        x = k * a
        if kappa < 1.0:
            step = (mpmath.gammainc(a + 1, 0, k * (a + 1), regularized=True)
                    - mpmath.gammainc(a, 0, x, regularized=True))
        else:
            step = (mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                    - mpmath.gammainc(a + 1, k * (a + 1), mpmath.inf, regularized=True))
        return step, mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))


def _log_grid(lo, hi, n):
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (n - 1)
    return [math.exp(log_lo + i * step) if i < n - 1 else hi for i in range(n)]


class TestGammaParams:
    def test_moments(self):
        p = GammaParams(2.0, 3.0)
        assert p.mean == 6.0
        assert p.variance == 18.0

    def test_validation(self):
        for alpha, beta in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (float("nan"), 1.0)):
            with pytest.raises(ValueError):
                GammaParams(alpha, beta)

    def test_int_beyond_double_range_is_rejected(self):
        # math.isfinite raises OverflowError on such an int
        for alpha, beta in ((10 ** 400, 1.0), (1.0, 10 ** 400)):
            with pytest.raises(ValueError):
                GammaParams(alpha, beta)
        assert GammaParams(int(sys.float_info.max)).alpha == sys.float_info.max

    def test_kappa_validation(self):
        # every function that takes a kappa refuses the same values, alike
        takes_kappa = (
            lambda kappa: h(kappa, 2.0),
            lambda kappa: band(GammaParams(2.0), kappa),
            min_h,
            edgeworth_argmin,
            lambda kappa: scan(kappa, 1.0, 10.0, 3),
        )
        for function in takes_kappa:
            for bad in (0.0, -2.0, float("inf"), "2", True):
                with pytest.raises(ValueError, match="kappa must be finite and positive"):
                    function(bad)


class TestH:
    def test_exponential_closed_form(self):
        assert h(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)

    def test_reference_minima_values(self):
        assert h(1.1, 3.47146) == pytest.approx(0.64021, abs=1e-4)
        assert h(4.0, 0.13917) == pytest.approx(0.925864, abs=1e-4)

    def test_small_alpha_limit(self):
        for kappa in (0.5, 1.0, 2.0):
            assert h(kappa, 1e-6) > 0.9999

    def test_above_half_at_kappa_one(self):
        for alpha in _log_grid(1e-4, 1e7, 200):
            assert h(1.0, alpha) > 0.5, alpha
        assert 0.0 < h(1.0, 1e7) - 0.5 < 1e-3

    def test_one_step_decrease(self):
        # below the normal doubles h(kappa < 1, .) is a LogProbability, which
        # orders by its log, so the decrease stays strict on every grid to 1e6
        for kappa in (0.2, 0.5, 0.8, 1.0):
            for alpha in _log_grid(1e-4, 1e6, 100):
                assert h(kappa, alpha + 1.0) < h(kappa, alpha), (kappa, alpha)

    def test_carried_log_below_the_normal_range(self):
        for kappa, alpha in ((0.2, 1e3), (0.5, 1e5), (0.8, 1e6)):
            value = h(kappa, alpha)
            expected = mp_log_h(kappa, alpha)
            assert expected < math.log(sys.float_info.min)
            assert isinstance(value, LogProbability)
            assert abs(value.log - expected) <= 1e-13 * abs(expected), (kappa, alpha)
            assert float(value) == float(mpmath.exp(expected)) == 0.0

    def test_float_unchanged_in_the_normal_range(self):
        # alpha across the underflow edge ~745 / (kappa - 1 - ln kappa)
        log_min = math.log(sys.float_info.min)
        for kappa in (0.2, 0.5, 0.8):
            edge = -log_min / (kappa - 1.0 - math.log(kappa))
            for alpha in (0.5 * edge, 0.9 * edge, 0.99 * edge, 1.01 * edge, 1.1 * edge):
                value = h(kappa, alpha)
                expected = mp_log_h(kappa, alpha)
                if float(value) >= sys.float_info.min:
                    assert type(value) is Probability, (kappa, alpha)
                    error = abs(float(value) - mpmath.exp(expected)) / mpmath.exp(expected)
                    assert error <= 1e-13 * abs(expected), (kappa, alpha)
                else:
                    assert type(value) is LogProbability, (kappa, alpha)
                    assert abs(value.log - expected) <= 1e-13 * abs(expected), (kappa, alpha)

    def test_phase_transition(self):
        grid = _log_grid(1e-4, 1e6, 200)
        inf_half = min(h(0.5, a) for a in grid)
        inf_one = min(h(1.0, a) for a in grid)
        inf_mid = min(h(1.5, a) for a in grid)
        assert inf_half < 0.01
        assert 0.5 < inf_one < 0.501
        assert inf_mid > 0.5
        argmin = min(grid, key=lambda a: h(1.5, a))
        assert grid[0] < argmin < grid[-1]


class TestT:
    def test_exponential_band(self):
        assert t(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-13)

    def test_shape_two_closed_form(self):
        r2 = math.sqrt(2.0)
        expected = math.exp(-(2.0 - r2)) * (3.0 - r2) - math.exp(-(2.0 + r2)) * (3.0 + r2)
        assert t(2.0) == pytest.approx(expected, abs=1e-13)

    def test_normal_limit(self):
        assert abs(t(1e6) - std_normal_band(1.0)) < 5e-4

    def test_above_normal_band(self):
        for alpha in _log_grid(1e-4, 1e6, 1000):
            assert t(alpha) > 0.6826895, alpha

    def test_one_step_decrease(self):
        for alpha in _log_grid(1e-4, 1e6, 1000):
            assert t(alpha + 1.0) < t(alpha), alpha

    def test_validation(self):
        # the rule of h and GammaParams: a string or a bool is not a shape
        for bad in ("7", True, 0.0, -1.0, float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(ValueError):
                t(bad)
        for kappa, alpha in (("1.5", 2.0), (True, 2.0), (1.5, True)):
            with pytest.raises(ValueError):
                h(kappa, alpha)


class TestBand:
    def test_reference_probabilities(self):
        assert band(GammaParams(1.0), 0.5) == pytest.approx(0.3834005, abs=1e-6)
        assert band(GammaParams(2.0), 0.5) == pytest.approx(0.3819693, abs=1e-6)
        assert band(GammaParams(10.0), 2.0) == pytest.approx(0.9585112, abs=1e-6)
        assert band(GammaParams(1.0), 2.0) == pytest.approx(0.9502129, abs=1e-6)

    def test_kappa_one_equals_t(self):
        for alpha in (1e-3, 0.5, 1.0, 3.7, 100.0, 1e5):
            assert band(GammaParams(alpha), 1.0) == t(alpha)

    def test_scale_free(self):
        for beta in (0.01, 1.0, 250.0):
            assert band(GammaParams(3.0, beta), 1.5) == band(GammaParams(3.0), 1.5)

    def test_wide_band_tends_to_one(self):
        value = band(GammaParams(4.0), 8.0)
        assert 0.999996 < value < 1.0

    def test_lower_edge_is_nonnegative_and_matches_the_checked_call(self):
        """band takes its lower edge alpha - kappa sqrt(alpha) to the
        checked reg_lower_gamma once alpha > kappa^2, which would refuse
        one below 0: on 20,000 seeded kappa with alpha one to three doubles
        above kappa^2, where rounding could push the edge below 0, it is
        >= 0, and on a sample of those and of int
        shapes below TEMME_MIN_SHAPE band is bit-identical to two checked
        reg_lower_gamma calls; an int shape from TEMME_MIN_SHAPE up gives
        the bits of the float shape."""
        rng = random.Random(35)
        points = []
        for _ in range(20000):
            kappa = 10.0 ** rng.uniform(-3.0, 3.0)
            alpha = kappa * kappa
            for _ in range(rng.randrange(1, 4)):
                alpha = math.nextafter(alpha, math.inf)
            assert alpha - kappa * math.sqrt(alpha) >= 0.0, (kappa, alpha)
            points.append((alpha, kappa))
        points = points[:300] + [(alpha, 1.0) for alpha in (2, 7, 99, 150, 12345, 10 ** 7)]
        for alpha, kappa in points:
            half_width = kappa * math.sqrt(alpha)
            if alpha >= TEMME_MIN_SHAPE and half_width <= 0.5 * alpha:
                # both edges in Temme's band (the int shapes from 150 up):
                # the float shape's bits, from the edges' offsets
                checked = specfun._temme_band(float(alpha), half_width)
            else:
                checked = Probability(reg_lower_gamma(alpha, alpha + half_width)
                                      - reg_lower_gamma(alpha, alpha - half_width))
            assert band(GammaParams(alpha), kappa).hex() == checked.hex(), (alpha, kappa)

    def test_rounded_edges_take_the_public_entry(self, monkeypatch):
        """Both rounded edges go through gamma_prob's reg_lower_gamma, so a
        wrapper of the public function counts them: t(50) makes two calls
        and keeps its bits; t(1e4) takes _temme_band and makes none."""
        expected = t(50.0).hex()
        calls = []

        def record(a, x):
            calls.append((a, x))
            return reg_lower_gamma(a, x)

        monkeypatch.setattr(gamma_prob, "reg_lower_gamma", record)
        assert t(50.0).hex() == expected
        assert calls == [(50.0, 50.0 + math.sqrt(50.0)), (50.0, 50.0 - math.sqrt(50.0))]
        calls.clear()
        t(1e4)
        assert calls == []


def mp_lower(a, x):
    """P(a, x) for mpf a and x at the working precision, from the Kummer
    series x^a e^-x / Gamma(a+1) 1F1(1; a+1; x)."""
    log_prefactor = a * mpmath.log(x) - x - mpmath.loggamma(a + 1)
    return mpmath.exp(log_prefactor) * mpmath.hyp1f1(1, a + 1, x, maxterms=10 ** 6)


def mp_band(alpha, kappa):
    """P{|X - alpha| <= kappa sqrt(alpha)} at 40 digits, at the exact edges
    alpha +- kappa sqrt(alpha), for alpha > kappa^2."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        w = mpmath.mpf(kappa) * mpmath.sqrt(a)
        return mp_lower(a, a + w) - mp_lower(a, a - w)


def stratified_shapes(seed, lo, hi, n):
    """n seeded shapes, one in each of n equal cells of [log lo, log hi],
    all at one seeded offset in their cells."""
    offset = random.Random(seed).random()
    step = (math.log(hi) - math.log(lo)) / n
    return [math.exp(math.log(lo) + (i + offset) * step) for i in range(n)]


class TestOffsetEdges:
    """From shape TEMME_MIN_SHAPE up, t and band take both edges in one
    frame from their offsets +-kappa sqrt(alpha) (specfun._temme_band), and
    h its edge from (kappa - 1) alpha, so no rounding of an edge to a
    double reaches P."""

    def test_t_and_band_against_mpmath(self):
        """t, and band at kappa = 0.5, 2 and 4, are within 3e-16 relative of
        40-digit mpmath at the exact edges, on 200 seeded shapes in
        [1e2, 1e7] (measured 2.9e-16 over 6,400 such points; the rounded
        edges cost up to 5.7e-13 at kappa = 0.5, alpha ~ 9e6)."""
        worst = 0.0
        for alpha in stratified_shapes(40, 1e2, 1e7, 200):
            for kappa in (1.0, 0.5, 2.0, 4.0):
                value = t(alpha) if kappa == 1.0 else band(GammaParams(alpha), kappa)
                expected = mp_band(alpha, kappa)
                error = float(abs(value - expected) / expected)
                assert error <= 3e-16, (alpha, kappa, error)
                worst = max(worst, error)
        assert worst > 1e-16  # the sample reaches the bound's scale

    @pytest.mark.parametrize(
        "lo, hi", ((9e4, 1.1e5), (9e5, 1.1e6), (2.7e6, 3e6), (9e6, MAX_SHAPE - 1.0)))
    def test_t_decreases_strictly_up_to_the_largest_shape(self, lo, hi):
        """t(alpha + 1) < t(alpha) at 200 seeded alpha in each range; with
        the edges rounded to doubles, 0, 2, 92 and 90 of these failed near
        1e5, 1e6, 3e6 and 1e7."""
        rng = random.Random(f"t-step:{lo}")
        for _ in range(200):
            alpha = rng.uniform(lo, hi)
            assert t(alpha + 1.0) < t(alpha), alpha

    def test_h_below_the_mean_against_mpmath_at_the_exact_product(self):
        """h(0.95, alpha) is within 1e-12 relative of 40-digit mpmath at
        the exact product kappa alpha, on 60 seeded alpha in [3e5, 5e5],
        where P lies far below Temme's band (measured 1.8e-13; from
        x = fl(kappa alpha), up to 1.5e-12)."""
        rng = random.Random(95)
        for _ in range(60):
            alpha = rng.uniform(3e5, 5e5)
            with mpmath.workdps(40):
                expected = mp_lower(mpmath.mpf(alpha), mpmath.mpf(0.95) * mpmath.mpf(alpha))
            assert abs(h(0.95, alpha) - expected) <= 1e-12 * expected, alpha

    def test_band_takes_the_rounded_edges_outside_temmes_band(self):
        """Where the lower edge lies below Temme's band, or alpha < 100, or
        alpha <= kappa^2, band is the two reg_lower_gamma calls at the
        rounded edges, bit for bit; inside it, _temme_band's value. On
        3,000 seeded (alpha, kappa), alpha in [10, 1e7] and kappa in
        [0.01, 30], both sides are reached."""
        rng = random.Random(4040)
        offsets = edges = 0
        for _ in range(3000):
            alpha = 10.0 ** rng.uniform(1.0, 7.0)
            kappa = 10.0 ** rng.uniform(-2.0, math.log10(30.0))
            half_width = kappa * math.sqrt(alpha)
            entry = None
            if alpha >= TEMME_MIN_SHAPE and half_width <= 0.5 * alpha:
                entry = specfun._temme_band(alpha, half_width)
            if entry is None:
                edges += 1
                lower = reg_lower_gamma(alpha, max(0.0, alpha - half_width))
                expected = Probability(reg_lower_gamma(alpha, alpha + half_width) - lower)
            else:
                offsets += 1
                expected = entry
            assert band(GammaParams(alpha), kappa).hex() == expected.hex(), (alpha, kappa)
        assert offsets > 1500 and edges > 500, (offsets, edges)

    def test_int_shapes_give_the_float_shapes_bits(self):
        for alpha in (150, 12345, 10 ** 6, 10 ** 7):
            assert t(alpha).hex() == t(float(alpha)).hex(), alpha
            for kappa in (0.5, 0.9, 1.5, 2.0):
                assert h(kappa, alpha).hex() == h(kappa, float(alpha)).hex(), (kappa, alpha)
                int_band = band(GammaParams(alpha), kappa)
                assert int_band.hex() == band(GammaParams(float(alpha)), kappa).hex(), alpha


class TestEdgeOverflow:
    """An edge kappa alpha or alpha + kappa sqrt(alpha) that overflows to
    +inf at a supported shape gives 1.0, the true value to the double; any
    other refused argument keeps its error."""

    HUGE = (1e303, 1e308, sys.float_info.max)

    def test_h_is_one_where_kappa_alpha_overflows(self):
        for kappa in self.HUGE:
            for alpha in (2.0, 1e5, MAX_SHAPE, 3):
                if kappa * alpha == math.inf:
                    value = h(kappa, alpha)
                    assert type(value) is Probability and value == 1.0, (kappa, alpha)
        # just below the overflow, the true value is 1.0 already
        assert h(sys.float_info.max / 2.0, 2.0) == 1.0

    def test_band_is_one_where_the_upper_edge_overflows(self):
        for kappa in (1.7e308, sys.float_info.max):
            for alpha in (4.0, 1e-3, MAX_SHAPE):
                value = band(GammaParams(alpha, 3.0), kappa)
                assert type(value) is Probability and value == 1.0, (kappa, alpha)
        assert band(GammaParams(4.0), 8.9e307) == 1.0  # the edge is finite

    def test_refused_shapes_keep_their_errors(self):
        for alpha, message in ((math.nextafter(MAX_SHAPE, math.inf), "outside supported range"),
                               (math.nextafter(MIN_SHAPE, 0.0), "outside supported range"),
                               (math.inf, "must be finite"), (math.nan, "must be finite"),
                               (True, "must be finite"), (Fraction(5), "must be finite")):
            with pytest.raises(ValueError, match=message):
                h(1e308, alpha)
        with pytest.raises(ValueError, match="outside supported range"):
            band(GammaParams(2e7), 1.7e308)
        with pytest.raises(ValueError, match="kappa must be finite"):
            h(math.inf, 2.0)


class TestResultClasses:
    def test_results_are_exactly_probability(self):
        """t, band, band_prob and min_h's minimum come back exactly
        Probability, on the clamped band (alpha <= kappa^2), where the upper
        edge's Probability passes through, and off it."""
        for alpha in (1e-6, 0.3, 1.0, 2.0, 50.0, 1e4):
            assert type(t(alpha)) is Probability, alpha
            for kappa in (0.5, 1.0, 3.0, 1e3):
                assert type(band(GammaParams(alpha), kappa)) is Probability, (alpha, kappa)
            assert type(iddist.band_prob(iddist.GammaDist(alpha))) is Probability, alpha
        for kappa in (1.01, 1.5, 4.0):
            assert type(min_h(kappa).min_value) is Probability, kappa

    def test_clamped_band_is_the_upper_edge(self):
        # alpha <= kappa^2: the lower edge clamps to 0 and the band is P at
        # the upper edge, bit for bit
        for alpha, kappa in ((0.5, 1.0), (4.0, 2.0), (1e-6, 1e-3), (1.0, 1.0)):
            upper = reg_lower_gamma(alpha, alpha + kappa * math.sqrt(alpha))
            assert band(GammaParams(alpha), kappa).hex() == upper.hex(), (alpha, kappa)
            if kappa == 1.0:
                assert t(alpha).hex() == upper.hex(), alpha


class TestStepMonotoneIntegral:
    """The lemma in optimize.min_h on the step integral I(kappa, alpha) =
    integral_0^1 kappa (1 + w/alpha)^alpha e^(-kappa w) dw: h(kappa, alpha +
    1) - h(kappa, alpha) = x^alpha e^-x / Gamma(alpha + 1) (I - 1), x = kappa
    alpha, and I < kappa (e^(1-kappa) - 1) / (1 - kappa), which is <= 1 for
    kappa <= 1."""

    def _check_lemma(self, kappa, alpha):
        step, prefactor = mp_unit_step(kappa, alpha)
        integral = mp_step_integral(kappa, alpha)
        with mpmath.workdps(30):
            assert abs(step - prefactor * (integral - 1)) <= 1e-22 * abs(step), (kappa, alpha)
            assert integral < mp_step_bound(kappa), (kappa, alpha)

    def test_closed_form_kappa_one_alpha_one(self):
        # integral_0^1 (1+w) e^{-w} dw = 2 - 3/e
        with mpmath.workdps(30):
            assert abs(mp_step_integral(1.0, 1.0) - (2 - 3 / mpmath.e)) <= 1e-28
        assert mp_step_bound(1.0) == 1
        self._check_lemma(1.0, 1.0)

    def test_below_one_for_kappa_at_most_one(self):
        for kappa in (0.2, 0.5, 0.8, 1.0):
            bound = mp_step_bound(kappa)
            assert bound <= 1, kappa
            for alpha in _log_grid(1e-4, 1e6, 25):
                assert mp_step_integral(kappa, alpha) < bound, (kappa, alpha)
                # and the float h resolves the decrease the lemma proves
                assert h(kappa, alpha + 1.0) < h(kappa, alpha), (kappa, alpha)

    def test_bound_at_half_is_below_one_exactly(self):
        # at kappa = 1/2 the bound is e^(1/2) - 1, and e^(1-w) at w = 1/2 is
        # at most its degree-24 Taylor sum plus the tail bound 2/25!
        taylor = certificates._exp_taylor_one_minus_w(24).evaluate(Fraction(1, 2))
        upper = taylor + Fraction(2, math.factorial(25))
        assert upper - 1 < 1
        with mpmath.workdps(40):
            root_e = mpmath.exp(0.5)
            assert mpmath.mpf(taylor.numerator) / taylor.denominator < root_e
            assert root_e < mpmath.mpf(upper.numerator) / upper.denominator
            assert abs(mp_step_bound(0.5) - (root_e - 1)) <= 1e-28

    def test_large_alpha_approaches_one_from_below(self):
        # 1 - I = 1/(6 alpha) + O(alpha^-2), from (1 + w/alpha)^alpha =
        # e^(w - w^2/(2 alpha) + O(alpha^-2))
        value = mp_step_integral(1.0, 1e6)
        assert 0.999 < value < 1.0
        assert abs((1 - value) * 6e6 - 1) <= 1e-5

    @pytest.mark.parametrize("kappa", (0.2, 0.5, 0.8, 1.0, 4.0))
    def test_matches_mpmath(self, kappa):
        # the identity against mpmath's incomplete gamma; for kappa > 1 the
        # bound exceeds 1 and a unit step can raise h (kappa = 4: alpha >= 0.01)
        for alpha in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e6, 1e7):
            self._check_lemma(kappa, alpha)

    def test_large_kappa_matches_mpmath(self):
        for kappa in (10.0, 1e2, 1e4):
            for alpha in (1e-6, 1.0, 1e6):
                self._check_lemma(kappa, alpha)
