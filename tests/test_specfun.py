"""Tests for the special-function layer: log-gamma, regularized incomplete
gamma, and the standard normal band."""

import copy
import math
import os
import pickle
import random
import re
import sys
from bisect import bisect, bisect_left
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_extremes import gamma_prob, iddist, optimize, specfun
from gamma_extremes.certificates import Case1Report, CertificateReport
from gamma_extremes.gamma_prob import GammaParams, band, h, t
from gamma_extremes.iddist import (
    CompoundPoissonExp,
    GammaDist,
    InverseGaussian,
    NegativeBinomial,
    NormalBaseline,
    Poisson,
    ScanReport,
)
from gamma_extremes.optimize import OptimizationResult
from gamma_extremes.specfun import (
    MAX_SHAPE,
    MIN_SHAPE,
    TEMME_MIN_SHAPE,
    UPPER_MIN_X,
    ConvergenceError,
    LogProbability,
    Probability,
    ln_gamma,
    log_std_normal_sf,
    lower_series,
    reg_lower_gamma,
    std_normal_band,
    std_normal_cdf,
    upper_continued_fraction,
)


def mp_lower(a, x, dps=40):
    """P(a, x) for x <= a from the Kummer series x^a e^-x / Gamma(a+1)
    1F1(1; a+1; x), whose terms only shrink there, with mpmath at dps
    digits. (mpmath's lower form gammainc(a, 0, x) gives up at a = 1e6.)"""
    with mpmath.workdps(dps):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        log_pref = a * mpmath.log(x) - x - mpmath.loggamma(a + 1)
        return mpmath.exp(log_pref) * mpmath.hyp1f1(1, a + 1, x, maxterms=10 ** 6)


def mp_upper(a, x):
    """Q(a, x) with mpmath at 30 digits.

    At x >= a, mpmath's upper form gammainc(a, x, inf). Below a, 1 minus
    mp_lower: P <= 1/2 there, so Q keeps all its digits. (mpmath's upper
    form is correct there too but takes ~30 s at a = 1e7, x = 0.9 (a + 1).)
    """
    with mpmath.workdps(30):
        if x >= a:
            return mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        return 1 - mp_lower(a, x, 30)


def temme_coefficients(rows, cols):
    """Taylor coefficients of Temme's C_k(eta) in exact rationals.

    mu = lambda - 1 solves mu mu' = eta (1 + mu) with mu = eta + ...;
    C_0 = 1/mu - 1/eta and C_k = C_{k-1}'/eta + c_k/mu, c_k cancelling the
    pole at eta = 0.
    """
    size = cols + 2 * rows + 2
    mu = [Fraction(0), Fraction(1)]
    for k in range(2, size + 1):
        cross = sum((k + 1 - i) * mu[i] * mu[k + 1 - i] for i in range(2, k))
        mu.append((mu[k - 1] - cross) / (k + 1))
    inv = [Fraction(1)]  # eta / mu
    for n in range(1, size):
        inv.append(-sum(mu[i + 1] * inv[n - i] for i in range(1, n + 1)))
    table = [inv[1:]]
    for _ in range(1, rows):
        prev = table[-1]
        c = -prev[1]
        table.append([(j + 2) * prev[j + 2] + c * inv[j + 1] for j in range(len(prev) - 2)])
    return [row[:cols] for row in table]


class TestProbability:
    def test_accepts_interval(self):
        assert Probability(0.0) == 0.0
        assert Probability(1.0) == 1.0
        assert Probability(0.25) == 0.25

    def test_clamps_within_slack(self):
        assert Probability(1.0 + 1e-13) == 1.0
        assert Probability(-1e-13) == 0.0

    def test_rejects_beyond_slack(self):
        with pytest.raises(ValueError):
            Probability(1.0 + 1e-11)
        with pytest.raises(ValueError):
            Probability(-1e-11)
        with pytest.raises(ValueError):
            Probability(float("nan"))

    def test_log_probability_orders_by_its_log(self):
        tiny = LogProbability(0.0, -2000.0)
        tinier = LogProbability(0.0, -2001.0)
        assert float(tiny) == float(tinier) == 0.0
        assert tinier < tiny and tiny > tinier and tinier <= tiny and tiny >= tinier
        assert tiny != tinier and not tiny == tinier
        assert tiny == LogProbability(0.0, -2000.0)
        assert hash(tiny) == hash(LogProbability(0.0, -2000.0))
        # against plain numbers: positive, below every normal double
        assert 0.0 < tinier < tiny < 1e-300 < Probability(0.5)
        assert tiny > -1.0 and tiny != 0.0
        assert not (tiny < float("nan") or tiny > float("nan"))
        subnormal = LogProbability(5e-324, math.log(5e-324))
        assert subnormal == 5e-324 and subnormal > tiny
        # arithmetic gives plain floats; the log survives a round trip
        assert type(tiny + 0.5) is float and tiny + 0.5 == 0.5
        assert pickle.loads(pickle.dumps(tiny)).log == -2000.0

    def test_refuses_ints_beyond_the_doubles(self):
        # float() would raise OverflowError; the message tells the int by its
        # repr, or by its bit length past the int-to-str limit
        with pytest.raises(ValueError, match=r"not a probability: 1000000000"):
            Probability(10 ** 400)
        with pytest.raises(ValueError, match="not a probability: a negative int of 16610 bits"):
            Probability(-10 ** 5000)

    def test_refuses_nan_and_infinities(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="not a probability"):
                Probability(value)

    def test_fast_path_keeps_the_edges(self):
        # floats in (0, 1] skip conversion and clamp; every other input
        # takes the checked path
        zero = Probability(-0.0)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert math.copysign(1.0, Probability(-1e-13)) == 1.0
        assert Probability(math.nextafter(1.0, 2.0)) == 1.0
        assert Probability(5e-324) == 5e-324 and Probability(1.0) == 1.0
        for value in (1, 0, Fraction(1, 3), "0.5"):
            assert type(Probability(value)) is Probability
        assert Probability(Fraction(1, 3)) == 1 / 3 and Probability("0.5") == 0.5
        with pytest.raises(ValueError):
            Probability("1.5")
        with pytest.raises(ValueError):
            Probability(2)

    def test_module_fast_path_matches_the_constructor(self):
        # _probability builds the package's results: for every input it gives
        # what Probability gives, class, bits and sign of zero, or the error
        def outcome(build, value):
            try:
                result = build(value)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                return type(exc), str(exc)
            return type(result), float(result).hex(), math.copysign(1.0, result)

        inputs = (0.0, -0.0, 5e-324, sys.float_info.min, 0.5, 1.0, math.nextafter(1.0, 2.0),
                  1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-11, -1e-11, math.inf, -math.inf, math.nan,
                  0, 1, 2, 10 ** 400, Fraction(1, 3), "0.5", True)
        outcomes = [outcome(Probability, value) for value in inputs]
        assert [outcome(specfun._probability, value) for value in inputs] == outcomes
        # the inputs reach the fast path, the clamps and the refusals
        assert sum(result[0] is Probability for result in outcomes) == 14
        assert sum(result[0] is ValueError for result in outcomes) == 7

    def test_carries_no_instance_dict(self):
        assert not hasattr(Probability(0.5), "__dict__")

    def test_a_checked_probability_passes_through(self):
        # a value of type exactly Probability is already checked and
        # clamped: _probability returns it, the object itself
        for value in (0.0, 5e-324, 0.5, 1.0):
            checked = Probability(value)
            assert specfun._probability(checked) is checked
        # a LogProbability still comes back a plain Probability, its log
        # dropped, with the bits the constructor gives
        for value, log in ((0.0, -2000.0), (5e-324, math.log(5e-324))):
            result = specfun._probability(LogProbability(value, log))
            assert type(result) is Probability
            assert float(result).hex() == float(Probability(value)).hex()
            assert not hasattr(result, "log")
        assert not hasattr(LogProbability(0.0, -2000.0), "__dict__")
        with pytest.raises(AttributeError):
            Probability(0.5).note = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copy_round_trips(self, protocol):
        values = (Probability(0.25), Probability(0.0), LogProbability(0.0, -2000.0),
                  LogProbability(5e-324, math.log(5e-324)))
        for value in values:
            for clone in (pickle.loads(pickle.dumps(value, protocol)), copy.copy(value),
                          copy.deepcopy(value)):
                assert type(clone) is type(value)
                assert float(clone).hex() == float(value).hex()
                assert getattr(clone, "log", None) == getattr(value, "log", None)


class TestLnGamma:
    def test_stirlerr_against_mpmath(self):
        # Loader's stirlerr(x) = ln Gamma(x + 1) - (x + 1/2) ln x + x - ln(2 pi) / 2:
        # the table at 1..9 is correctly rounded; Stirling's series from 10 up
        xs = list(range(1, 10)) + [10, 10.5, 11, 15.25, 30, 49.41713361323832, 1e3, 1e6]
        with mpmath.workdps(40):
            for x in xs:
                mx = mpmath.mpf(x)
                expected = (mpmath.loggamma(mx + 1) - (mx + 0.5) * mpmath.log(mx) + mx
                            - mpmath.log(2 * mpmath.pi) / 2)
                if x < 10:
                    assert specfun._stirlerr(x) == float(expected), x
                else:
                    assert abs(specfun._stirlerr(x) - expected) <= 4e-16 * expected, x

    def test_stirlerr_bits_match_the_loop(self):
        """The written-out series gives the bits of the coefficient loop it
        replaced, at 20,000 seeded x in [10, 1e9] and the integers 10..1e4."""
        coefficients = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                        1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)

        def loop(x):
            inv = 1.0 / x
            inv2 = inv * inv
            total = 0.0
            term = inv
            for c in coefficients:
                total += c * term
                term *= inv2
            return total

        rng = random.Random(35)
        xs = [10.0 ** rng.uniform(1.0, 9.0) for _ in range(20000)] + list(range(10, 10001))
        for x in xs:
            assert specfun._stirlerr(x).hex() == loop(x).hex(), x

    def test_bd0_against_mpmath(self):
        """x ln(x/m) + m - x within 6e-16 relative, on both sides of m / 2:
        the deviance kernel's series inside [m/2, 2m] (measured 2.8e-16),
        the direct form outside it (5.4e-16)."""
        rng = random.Random(24)
        with mpmath.workdps(40):
            for _ in range(300):
                m = 10.0 ** rng.uniform(-2.0, 7.0)
                x = float(max(1, round(m * rng.uniform(0.5, 1.5))))
                expected = x * mpmath.log(mpmath.mpf(x) / m) + m - x
                assert abs(specfun._bd0(x, m) - expected) <= 6e-16 * expected + 1e-300, (x, m)

    def test_bd0_matches_the_deviance_kernel(self):
        """_bd0(x, m) and -_log_ratio_term(x, m) share the interval and the
        atanh series, and differ only in the kernel's exact remainders of
        d v: on 20,000 seeded (x, m) with x in [1, 1e7] and m / x in
        [1/2, 2], within 6e-16 relative (measured 4.4e-16)."""
        rng = random.Random(2000)
        for _ in range(20000):
            x = 10.0 ** rng.uniform(0.0, 7.0)
            m = x * 2.0 ** rng.uniform(-1.0, 1.0)
            kernel = -specfun._log_ratio_term(x, m)
            assert abs(specfun._bd0(x, m) - kernel) <= 6e-16 * kernel, (x, m)

    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    def test_against_mpmath_over_range(self):
        # measured at most 1.2e-15 max(1, |ln Gamma|), near a = 2
        rng = random.Random(20240817)
        with mpmath.workdps(40):
            for _ in range(2000):
                a = math.exp(rng.uniform(math.log(1e-6), math.log(1e8)))
                ref = mpmath.loggamma(a)
                assert abs(ln_gamma(a) - ref) <= 2e-15 * max(1.0, abs(ref)), a

    def test_domain_errors(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ln_gamma(bad)


class TestRegLowerGamma:
    def test_exponential_closed_form(self):
        assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_zero_argument(self):
        for a in (1e-6, 0.5, 1.0, 100.0, 1e7):
            assert reg_lower_gamma(a, 0.0) == 0.0

    def test_shape_two_closed_form(self):
        assert reg_lower_gamma(2.0, 3.0) == pytest.approx(
            1.0 - math.exp(-3.0) * 4.0, abs=1e-13
        )

    def test_integer_shape_closed_forms(self):
        # P(n, x) = 1 - e^{-x} sum_{k<n} x^k / k!
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 10)
            x = rng.uniform(0.0, 30.0)
            partial = sum(x ** k / math.factorial(k) for k in range(n))
            expected = 1.0 - math.exp(-x) * partial
            assert abs(reg_lower_gamma(n, x) - expected) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(1e-7, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(2e7, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.0, -0.5)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.0, float("inf"))

    @pytest.mark.parametrize("a, x", [(2.0, 10 ** 400), (10 ** 400, 2.0)], ids=("x", "a"))
    def test_int_beyond_double_range_is_a_domain_error(self, a, x):
        # math.isfinite raises OverflowError on such an int
        with pytest.raises(ValueError):
            reg_lower_gamma(a, x)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts every int to str")
    @pytest.mark.parametrize("call, error, message", [
        (lambda: t(10 ** 5000), ValueError,
         "alpha must be finite and positive, got an int of 16610 bits"),
        (lambda: reg_lower_gamma(2.0, 10 ** 5000), ValueError,
         "argument must be finite and nonnegative, got an int of 16610 bits"),
        (lambda: reg_lower_gamma(2.0, -10 ** 5000), ValueError,
         "argument must be finite and nonnegative, got a negative int of 16610 bits"),
        (lambda: reg_lower_gamma(10 ** 5000, 1.0), ValueError,
         "shape parameter an int of 16610 bits outside supported range [1e-06, 10000000.0]"),
        (lambda: NegativeBinomial(1.0, 10 ** 5000), ValueError,
         "p must lie in (0, 1), got an int of 16610 bits"),
        (lambda: optimize.bracket_minimum(abs, -1.0, 1.0, -10 ** 5000), ValueError,
         "need an int grid_n >= 3, got a negative int of 16610 bits"),
        (lambda: iddist.band_prob(10 ** 5000), TypeError,
         "not a distribution spec: an int of 16610 bits"),
    ], ids=("t", "x", "negative-x", "a", "negbinomial-p", "grid_n", "spec"))
    def test_int_too_long_for_str_is_told_by_bit_length(self, call, error, message):
        # repr of an int beyond the interpreter's int-to-str limit raises its
        # own ValueError, which would replace the message
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message

    def test_other_messages_keep_the_value_repr(self):
        for call, message in (
            (lambda: t(10 ** 400), f"alpha must be finite and positive, got {10 ** 400!r}"),
            (lambda: t(float("nan")), "alpha must be finite and positive, got nan"),
            (lambda: reg_lower_gamma(2e7, 1.0),
             "shape parameter 20000000.0 outside supported range [1e-06, 10000000.0]"),
            (lambda: reg_lower_gamma(True, 1.0), "shape parameter must be finite, got True"),
            (lambda: reg_lower_gamma(2.0, -0.5), "argument must be finite and nonnegative, got -0.5"),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    def test_int_at_double_range_edge(self):
        big = int(sys.float_info.max)
        assert reg_lower_gamma(2.0, big) == 1.0
        with pytest.raises(ValueError):
            reg_lower_gamma(2.0, big + 1)

    def test_recurrence_in_log_space(self):
        # P(a+1, x) = P(a, x) - x^a e^{-x} / Gamma(a+1)
        rng = random.Random(99)
        for _ in range(500):
            a = math.exp(rng.uniform(math.log(1e-4), math.log(100.0)))
            x = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
            step = math.exp(a * math.log(x) - x - ln_gamma(a + 1.0))
            lhs = reg_lower_gamma(a + 1.0, x)
            rhs = reg_lower_gamma(a, x) - step
            assert abs(lhs - rhs) <= 1e-11, (a, x)

    def test_complementarity_near_crossover(self):
        """Series-path P and continued-fraction-path Q at crossover +-1%.

        |P + Q - 1| <= 1e-11 over 10^4 random shapes in the supported range.
        """
        rng = random.Random(20240818)
        worst = 0.0
        worst_at = None
        failures = 0
        for _ in range(10_000):
            a = math.exp(rng.uniform(math.log(MIN_SHAPE), math.log(MAX_SHAPE)))
            factor = rng.choice((0.99, 1.01))
            x = factor * (a + 1.0)
            try:
                err = abs(lower_series(a, x) + upper_continued_fraction(a, x) - 1.0)
            except (ValueError, ArithmeticError):
                failures += 1
                continue
            if err > worst:
                worst, worst_at = err, (a, factor)
        assert failures == 0 and worst <= 1e-11, (
            f"complementarity: {failures} path failures, worst |P+Q-1| = {worst:.3g} "
            f"at (a, crossover factor) = {worst_at}"
        )

    def test_temme_coefficients_are_the_exact_recursion(self):
        table = specfun._TEMME_COEFFS
        exact = temme_coefficients(len(table), len(table[0]))
        assert [list(row) for row in table] == [[float(c) for c in row] for row in exact]
        # known leading values: C_0(0) = -1/3, C_1(0) = -1/540, C_2(0) = 25/6048
        assert (exact[0][0], exact[1][0], exact[2][0]) == (
            Fraction(-1, 3), Fraction(-1, 540), Fraction(25, 6048))

    @pytest.mark.parametrize("factor", (0.1, 0.5, 0.9, 0.99))
    def test_upper_below_crossover_matches_mpmath(self, factor):
        """Q below x = a + 1, where Lentz's fraction alone stops on a false
        convergence for a > ~10: recurrence plus fraction below shape 100,
        Temme's expansion above."""
        for a in (0.5, 3.0, 30.0, 300.0, 3000.0, 1e4, 1e5, 1e6, 1e7):
            x = factor * (a + 1.0)
            expected = mp_upper(a, x)
            assert abs(upper_continued_fraction(a, x) - expected) <= 1e-13 * expected, (a, x)

    def test_upper_refuses_small_x_below_temme_shapes(self):
        for a in (1e-6, 0.5, 3.0, 50.0):
            with pytest.raises(ConvergenceError):
                upper_continued_fraction(a, 0.5 * UPPER_MIN_X)
            assert upper_continued_fraction(a, 0.0) == 1.0
        assert upper_continued_fraction(TEMME_MIN_SHAPE, 1e-3) == 1.0

    @pytest.mark.parametrize("a, x", ((1.0, 720.0), (1.0, 800.0), (50.0, 1000.0), (99.0, 1e5)))
    def test_lower_series_refuses_an_overflowed_sum(self, a, x, monkeypatch):
        """Far above the mean below shape 100 the series' sum overflows to
        inf, or to nan once a term overflows too: a diagnosed error naming
        a and x, raised where the loop stops and long before the iteration
        cap, while reg_lower_gamma still gives 1 from Q there."""
        monkeypatch.setattr(specfun, "MAX_ITERATIONS", 2000)
        with pytest.raises(ConvergenceError, match=re.escape(f"overflowed for a={a}, x={x};")):
            lower_series(a, x)
        assert reg_lower_gamma(a, x) == 1.0

    @pytest.mark.parametrize("a", (1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7))
    def test_temme_paths_match_mpmath(self, a):
        """P above and Q below x = a + 1 at large shape, both from Temme's
        expansion, against mpmath; complementarity alone would only show
        that two paths agree."""
        for x in (0.99 * (a + 1.0), 1.01 * (a + 1.0), a - math.sqrt(a), a + math.sqrt(a)):
            q = mp_upper(a, x)
            if x >= a + 1.0:
                value, expected = lower_series(a, x), 1 - q
            else:
                value, expected = upper_continued_fraction(a, x), q
            assert abs(value - expected) <= 1e-13 * expected, (a, x)

    @pytest.mark.parametrize("a", (100.0, 300.0, 1e3, 1e4, 1e5, 1e6, 1e7))
    def test_below_the_mean_matches_kummer_series(self, a):
        """P below x = a from reg_lower_gamma: Temme's P form where
        a eta^2 / 2 <= min(40, 0.08 a); beyond, the asymptotic sum where
        (a - x)^2 >= 60 a and the lower series short of that, all at
        z = (x - a) / sqrt(a) in [-8, 0] and at the two doubles around the
        edge of the band. Each is within 5e-15 relative plus 5e-16 per
        unit of a eta^2 / 2, the absolute error of the exponent of the
        prefactor e^(-a eta^2 / 2) that the methods share; the series adds
        its truncated tail, up to 1e-16 sqrt(a), and the asymptotic sum,
        which has none, adds nothing. Just past the edge the series runs
        at a = 100 and 300, the asymptotic sum from a = 1e3 up."""
        cutoff = min(specfun._TEMME_EXPONENT_CUTOFF, 0.08 * a)
        outside = beyond_the_band(a)
        inside = math.nextafter(outside, a)
        assert -specfun._log_ratio_term(a, inside) <= cutoff
        half_a_eta2 = -specfun._log_ratio_term(a, outside)
        assert half_a_eta2 > cutoff
        if a >= 1e3:
            assert (a - outside) ** 2 >= specfun._ASYMPTOTIC_MIN_SPREAD * a
            expected = specfun._lower_asymptotic(a, outside - a, outside, half_a_eta2)
            assert reg_lower_gamma(a, outside) == expected
        else:
            assert (a - outside) ** 2 < specfun._ASYMPTOTIC_MIN_SPREAD * a
            assert reg_lower_gamma(a, outside) == lower_series(a, outside)
        points = [a + 0.5 * k * math.sqrt(a) for k in range(-16, 1)] + [outside, inside]
        for x in points:
            half_a_eta2 = -specfun._log_ratio_term(a, x)
            tol = 5e-15 + 5e-16 * half_a_eta2
            if half_a_eta2 > cutoff and (a - x) ** 2 < specfun._ASYMPTOTIC_MIN_SPREAD * a:
                tol += 1e-16 * math.sqrt(a)
            expected = mp_lower(a, x)
            assert abs(reg_lower_gamma(a, x) - expected) <= tol * expected, (a, x)

    def test_near_the_mean_from_a_ten_matches_mpmath(self):
        """P at 300 seeded (a, x), a in [10, 30), x in a [0.8, 1.2], within
        2e-15 relative of 40-digit mpmath. The log-prefactor takes its
        cancellation-free form there; the direct a ln x - x - ln Gamma(a)
        it used below a = 30 was up to 2.3e-14 off."""
        rng = random.Random(2026)
        for _ in range(300):
            a = rng.uniform(10.0, 30.0)
            x = a * rng.uniform(0.8, 1.2)
            with mpmath.workdps(40):
                expected = mpmath.gammainc(a, 0, x, regularized=True)
            assert abs(reg_lower_gamma(a, x) - expected) <= 2e-15 * expected, (a, x)

    def test_series_envelope_deep_in_the_lower_tail(self):
        """P below x = a + 1 at a < 100, the series' region, at 3,000 seeded
        (a, x), a log-uniform in [1e-6, 100] and x in [1e-8, a + 1), within
        3.5e-15 + 3.2e-16 |ln P| relative of 40-digit mpmath: the error of
        the prefactor's exponent grows with |ln P| (1e-13 at |ln P| ~ 600),
        so no one relative bound holds there. A result below the normal
        doubles is a LogProbability whose log is within 2.8e-16 relative.
        Each bound is the measured worst (0.967 and 0.947 of it) rounded up."""
        rng = random.Random(4101)
        logs = 0
        for _ in range(3000):
            a = math.exp(rng.uniform(math.log(1e-6), math.log(100.0)))
            x = math.exp(rng.uniform(math.log(1e-8), math.log(a + 1.0)))
            if not x < a + 1.0:
                continue
            value = reg_lower_gamma(a, x)
            with mpmath.workdps(40):
                a_mp, x_mp = mpmath.mpf(a), mpmath.mpf(x)
                log_p = (a_mp * mpmath.log(x_mp) - x_mp - mpmath.loggamma(a_mp + 1)
                         + mpmath.log(mpmath.hyp1f1(1, a_mp + 1, x_mp)))
                if isinstance(value, LogProbability):
                    logs += 1
                    assert abs(value.log - log_p) <= 2.8e-16 * -log_p, (a, x)
                else:
                    expected = mpmath.exp(log_p)
                    tol = 3.5e-15 + 3.2e-16 * -log_p
                    assert abs(value - expected) <= tol * expected, (a, x)
        assert logs > 50

    @pytest.mark.parametrize("a, x", ((1.0, 709.5), (1.0, 600.0), (50.0, 400.0)))
    def test_lower_series_far_above_the_mean(self, a, x):
        """The series' stated envelope where its prefactor's exponent is
        ~x: measured 4.6e-14, 2.1e-14 and 1.4e-14."""
        with mpmath.workdps(40):
            expected = mpmath.gammainc(a, 0, x, regularized=True)
        assert abs(lower_series(a, x) - expected) <= 1e-13 * expected

    def test_monotone_in_x(self):
        for a in (1e-4, 0.3, 1.0, 7.0, 250.0):
            xs = [a * f for f in (0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.5)]
            values = [reg_lower_gamma(a, x) for x in xs]
            assert all(u < v for u, v in zip(values, values[1:])), a
        # at very large shape only a few-sigma window is representable
        a = 1e5
        xs = [a * f for f in (0.97, 0.99, 1.0, 1.01, 1.03)]
        values = [reg_lower_gamma(a, x) for x in xs]
        assert all(u < v for u, v in zip(values, values[1:]))

    def test_monotone_in_a(self):
        for x in (0.1, 1.0, 5.0, 40.0):
            shapes = [x * f for f in (0.3, 0.6, 1.0, 1.4, 2.0, 3.0)]
            values = [reg_lower_gamma(a, x) for a in shapes]
            assert all(u > v for u, v in zip(values, values[1:])), x

    @given(
        a=st.floats(min_value=1e-3, max_value=1e3),
        x=st.floats(min_value=0.0, max_value=5e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_result_is_probability(self, a, x):
        value = reg_lower_gamma(a, x)
        assert 0.0 <= value <= 1.0


def beyond_the_band(a):
    """The largest double x < a beyond Temme's band at a >= 100, where
    a eta^2 / 2 > min(40, 0.08 a)."""
    cutoff = min(specfun._TEMME_EXPONENT_CUTOFF, 0.08 * a)
    outside, inside = 0.0, a
    while True:
        mid = 0.5 * (outside + inside)
        if mid in (outside, inside):
            return outside
        if -specfun._log_ratio_term(a, mid) > cutoff:
            outside = mid
        else:
            inside = mid


def asymptotic_upper_x(a):
    """The largest double x at which reg_lower_gamma(a, x), a >= 100, takes
    the asymptotic sum: beyond Temme's band and (a - x)^2 >= 60 a."""
    x = min(beyond_the_band(a), a - math.sqrt(specfun._ASYMPTOTIC_MIN_SPREAD * a))
    while (a - x) ** 2 < specfun._ASYMPTOTIC_MIN_SPREAD * a:
        x = math.nextafter(x, 0.0)
    return x


def takes_asymptotic_sum(a, x):
    """Whether reg_lower_gamma(a, x) takes the asymptotic sum."""
    return (a >= TEMME_MIN_SHAPE and 0.0 < x < a + 1.0
            and -specfun._log_ratio_term(a, x) > min(specfun._TEMME_EXPONENT_CUTOFF, 0.08 * a)
            and (a - x) ** 2 >= specfun._ASYMPTOTIC_MIN_SPREAD * a)


def asymptotic_points(seed, n):
    """n seeded (a, x) on the asymptotic sum's path: a log-uniform in
    [100, 1e7], x = a - d with d log-uniform between the path's edge and a,
    skewed toward the edge, where the sum takes the most terms."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        a = 10.0 ** rng.uniform(2.0, 7.0)
        least = a - asymptotic_upper_x(a)
        x = a - least * (a / least) ** (rng.random() ** 3)
        if x > 0.0:
            assert takes_asymptotic_sum(a, x), (a, x)
            points.append((a, x))
    return points


class _CountedRows:
    """A stand-in for _ASYMPTOTIC_TERMS that records how many rows each
    pass over it reads."""

    def __init__(self, rows):
        self.rows = rows
        self.counts = []

    def __iter__(self):
        self.counts.append(0)
        for row in self.rows:
            self.counts[-1] += 1
            yield row


class TestLowerAsymptotic:
    """P(a, x) far below the mean at a >= 100 from the expansion of DLMF
    8.11.iii, where (a - x)^2 >= 60 a beyond Temme's band."""

    def test_table_is_the_exact_recursion(self):
        """Each row is b_k / lambda of b_k = lambda (1 - lambda) b_(k-1)' +
        (2k - 1) lambda b_(k-1), here by plain polynomial arithmetic on
        ints, each coefficient rounded once, highest first."""
        def times(p, q):
            out = [0] * (len(p) + len(q) - 1)
            for i, c in enumerate(p):
                for j, e in enumerate(q):
                    out[i + j] += c * e
            return out

        def plus(p, q):
            size = max(len(p), len(q))
            return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(size)]

        table = specfun._ASYMPTOTIC_TERMS
        assert len(table) == 40
        b = [1]
        for k in range(1, len(table) + 1):
            derivative = [j * c for j, c in enumerate(b)][1:] or [0]
            b = plus(times([0, 1, -1], derivative), times([0, 2 * k - 1], b))
            while b[-1] == 0:
                b.pop()
            assert b[0] == 0 and all(c > 0 for c in b[1:]), k
            assert table[k - 1] == tuple(float(c) for c in reversed(b[1:])), k
            # b_k(1) = (2k - 1)!!, and the leading coefficient is k!
            assert sum(b) == math.prod(range(1, 2 * k, 2)) and b[-1] == math.factorial(k), k
            if k <= 3:
                assert b == ([0, 1], [0, 1, 2], [0, 1, 8, 6])[k - 1]

    def test_sum_and_p_against_mpmath(self, monkeypatch):
        """On 320 seeded points of its path: the sum divided by a - x within
        5e-16 relative of 40-digit mpmath's hyp1f1(1, a + 1, x) / a (measured
        1.6e-16); the log-prefactor, taken from the dispatch's a eta^2 / 2,
        the bits of _log_prefactor(a, x); and P within 5e-15 plus 5e-16 per
        unit of a eta^2 / 2 where x >= a/2, and 1.5e-15 per unit below,
        where _log_ratio_term takes its direct form (up to 6.2 ulp off)."""
        parts = []
        real = specfun._from_log_parts
        monkeypatch.setattr(specfun, "_from_log_parts",
                            lambda total, log_prefactor: parts.append((total, log_prefactor))
                            or real(total, log_prefactor))
        for a, x in asymptotic_points(3801, 320):
            value = reg_lower_gamma(a, x)
            total, log_prefactor = parts[-1]
            assert log_prefactor == specfun._log_prefactor(a, x), (a, x)
            with mpmath.workdps(40):
                ma, mx = mpmath.mpf(a), mpmath.mpf(x)
                series = mpmath.hyp1f1(1, ma + 1, mx, maxterms=10 ** 6) / ma
                log_p = ma * mpmath.log(mx) - mx - mpmath.loggamma(ma) + mpmath.log(series)
                assert abs(total - series) <= 5e-16 * series, (a, x)
                half_a_eta2 = -specfun._log_ratio_term(a, x)
                tol = 5e-15 + (5e-16 if x >= 0.5 * a else 1.5e-15) * half_a_eta2
                if isinstance(value, LogProbability):
                    assert abs(value.log - log_p) <= tol, (a, x)
                else:
                    assert abs(value / mpmath.exp(log_p) - 1) <= tol, (a, x)

    def test_exponent_from_the_dispatch_is_log_prefactor(self):
        """Below the mean at a >= 100 the dispatch forms the exponent as
        -half_a_eta2 - _stirling_shift(a) from its half_a_eta2 =
        -_log_ratio_term(a, x): negation is exact, so on 20,000 seeded
        (a, x) it has the bits of _log_prefactor(a, x)."""
        rng = random.Random(3805)
        for _ in range(20000):
            a = 10.0 ** rng.uniform(2.0, 7.0)
            x = a * rng.random()
            half_a_eta2 = -specfun._log_ratio_term(a, x)
            exponent = -half_a_eta2 - specfun._stirling_shift(a)
            assert exponent.hex() == specfun._log_prefactor(a, x).hex(), (a, x)

    def test_term_count_is_bounded(self, monkeypatch):
        """At most 34 terms, of the table's 40, on the seeded points and
        along the path's upper edge, where the count is largest: 33 along
        Temme's band and 34 near (a - x)^2 = 60 a at a ~ 487."""
        rows = _CountedRows(specfun._ASYMPTOTIC_TERMS)
        monkeypatch.setattr(specfun, "_ASYMPTOTIC_TERMS", rows)
        edge = [(a, asymptotic_upper_x(a)) for a in (10.0 ** (2.0 + k / 100) for k in range(501))]
        for a, x in asymptotic_points(3802, 300) + edge:
            reg_lower_gamma(a, x)
        assert len(rows.counts) == 801
        assert max(rows.counts) <= 34 < len(rows.rows)
        assert max(rows.counts[300:]) >= 33

    def test_short_table_is_a_diagnosed_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_ASYMPTOTIC_TERMS", specfun._ASYMPTOTIC_TERMS[:5])
        a = 1e6
        x = asymptotic_upper_x(a)
        with pytest.raises(ConvergenceError, match=re.escape(f"did not converge for a={a}, x={x}")):
            reg_lower_gamma(a, x)

    def test_no_series_on_its_path(self, monkeypatch):
        """A stub of the series counts no call on the path, including
        (a - x)^2 = 90 a at a = 1e4 ... 1e7 (a eta^2 / 2 ~ 45 at 1e7), where
        the series took 35 us to 0.93 ms; each result is the sum's."""
        calls = []
        monkeypatch.setattr(specfun, "_lower_series", lambda a, x: calls.append((a, x)))
        monkeypatch.setattr(specfun, "_series_sum", lambda a, x: calls.append((a, x)))
        cliff = [(a, a - math.sqrt(90.0 * a)) for a in (1e4, 1e5, 1e6, 1e7)]
        assert 44.9 < -specfun._log_ratio_term(*cliff[-1]) < 45.2
        for a, x in cliff + asymptotic_points(3803, 300):
            assert takes_asymptotic_sum(a, x), (a, x)
            half_a_eta2 = -specfun._log_ratio_term(a, x)
            expected = specfun._lower_asymptotic(a, x - a, x, half_a_eta2)
            assert reg_lower_gamma(a, x) == expected, (a, x)
        assert calls == []

    def test_series_short_of_it_is_bounded_and_unchanged(self, monkeypatch):
        """Beyond Temme's band with (a - x)^2 < 60 a the series stays, only
        at a < 494 and x/a < 0.6515, in at most 68 terms (MAX_ITERATIONS
        cut to 68 raises nothing), with the bits of the public lower_series:
        its exponent comes from the dispatch's a eta^2 / 2 and is
        _log_prefactor's. From a = 494 up, the band's edge lies on the
        asymptotic sum's path."""
        for k in range(301):
            a = 494.0 * 10.0 ** (4.3 * k / 300)
            assert asymptotic_upper_x(a) == beyond_the_band(a), a
        monkeypatch.setattr(specfun, "MAX_ITERATIONS", 68)
        rng = random.Random(3804)
        points = []
        for a in (100.0 + k for k in range(401)):
            top = beyond_the_band(a)
            if (a - top) ** 2 < specfun._ASYMPTOTIC_MIN_SPREAD * a:
                points += [(a, top), (a, rng.uniform(asymptotic_upper_x(a), top))]
        assert len(points) == 2 * 394
        for a, x in points:
            if takes_asymptotic_sum(a, x):
                continue
            assert a < 494.0 and x < 0.6515 * a, (a, x)
            value = reg_lower_gamma(a, x)
            assert float(value).hex() == float(lower_series(a, x)).hex(), (a, x)

    @pytest.mark.parametrize("kappa", (0.5, 0.8, 0.95))
    def test_h_decreases_across_the_switch(self, kappa):
        """h(kappa, alpha + 1) < h(kappa, alpha) for alpha within 30 of the
        shape where h's x = kappa alpha moves onto the asymptotic sum: from
        the series at kappa = 0.5 (alpha = 240), from Temme's band at 0.8
        and 0.95 (alpha ~ 1728 and ~ 30930), in quarter steps."""
        low, high = 100.0, 1e6
        while high - low > 1e-6:
            mid = 0.5 * (low + high)
            if takes_asymptotic_sum(mid, kappa * mid):
                high = mid
            else:
                low = mid
        alphas = [high + 0.25 * k for k in range(-120, 121)]
        assert not takes_asymptotic_sum(alphas[0], kappa * alphas[0])
        assert takes_asymptotic_sum(alphas[-1], kappa * alphas[-1])
        for alpha in alphas:
            assert h(kappa, alpha + 1.0) < h(kappa, alpha), alpha


def mp_log_ratio_term(a, x):
    """a ln(x/a) - (x - a) to 40 significant digits: mpmath works at 40
    digits plus the ~log10(2a / |x - a|) that the cancellation costs."""
    lost = math.ceil(math.log10(2.0 * a / abs(x - a))) if x != a else 0
    with mpmath.workdps(40 + max(0, lost)):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        return a * mpmath.log(x / a) - (x - a)


def x_form_deviance(a, x):
    """The deviance kernel as formed from x in [a/2, 2a]: s = fl(x + a)
    and its error by TwoSum of (x, a). The reference for _deviance at
    d = x - a, bit for bit."""
    d = x - a
    s = x + a
    t = s - a
    s_err = (x - t) + (a - (s - t))
    v = d / s
    q = v * s
    r = (d - q) - specfun._two_product_error(v, s, q)
    p = d * v
    w = v * v
    series = 0.0
    for c in specfun._DEVIANCE_TERMS[bisect_left(specfun._DEVIANCE_MAX_W, w)]:
        series = series * w + c
    u = 2.0 * a * v * w
    tail = (u + 3.0 * u * w * series) / 3.0
    return (tail - (specfun._two_product_error(d, v, p) + d * ((r - v * s_err) / s))) - p


class TestLogRatioTerm:
    @staticmethod
    def _check(a, x):
        """The exact remainders of _log_ratio_term's leading term -d v,
        taken as _deviance takes them, each equal to its exact rational:
        the rounding error of s = fl(2a + d) = fl(x + a), the division
        remainder d - v s and the product's d v - fl(d v). Then the
        result: within 2.5e-16 relative of mpmath, and where |v| < 1/10,
        so that the series term is under 1/30 of the result, less than an
        ulp from it (faithfully rounded; measured 0.66 ulp there, and 1.2
        ulp at |v| near 1/3).
        Without any one of the three remainders the seeded sample reads
        up to 1.5-1.8 ulp."""
        assert 0.5 * a <= x <= 2.0 * a
        d = x - a
        s = 2.0 * a + d
        t = s - 2.0 * a
        s_err = (d - t) + (2.0 * a - (s - t))
        assert Fraction(s_err) == Fraction(x) + Fraction(a) - Fraction(s), (a, x)
        v = d / s
        q = v * s
        r = (d - q) - specfun._two_product_error(v, s, q)
        assert Fraction(r) == Fraction(d) - Fraction(v) * Fraction(s), (a, x)
        p = d * v
        e = specfun._two_product_error(d, v, p)
        assert Fraction(e) == Fraction(d) * Fraction(v) - Fraction(p), (a, x)
        expected = mp_log_ratio_term(a, x)
        error = abs(specfun._log_ratio_term(a, x) - expected)
        assert error <= 2.5e-16 * abs(expected), (a, x)
        if abs(d) < 0.1 * s:
            assert error < math.ulp(expected), (a, x)

    def test_remainder_is_exact_on_a_seeded_sample(self):
        rng = random.Random(1971)
        for _ in range(3000):
            a = 10.0 ** rng.uniform(-6.0, 7.0)
            self._check(a, a * 2.0 ** rng.uniform(-1.0, 1.0))

    @pytest.mark.parametrize("a", (1e-6, 0.7, 30.0, 100.0, 1e3, 12345.678, 1e6, 1e7))
    def test_remainder_is_exact_next_to_the_mean(self, a):
        for direction in (-math.inf, math.inf):
            x = a
            for _ in range(200):
                x = math.nextafter(x, direction)
                self._check(a, x)

    def test_remainder_is_zero_at_the_mean(self):
        for a in (MIN_SHAPE, 0.7, 30.0, 100.0, 1e3, 12345.678, 1e6, MAX_SHAPE):
            value = specfun._log_ratio_term(a, a)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, a

    def test_offset_form_is_the_x_form_to_the_bit(self):
        """_deviance(a, d) sums 2a + d by TwoSum; at d = x - a that is the
        real sum x + a rounded once, as the kernel formed it from x. So on
        20,000 seeded (a, x), x in [a/2, 2a] and every 100th point at an
        end, _log_ratio_term(a, x) and _deviance(a, x - a) have the bits
        of the x-form kernel."""
        rng = random.Random(1973)
        for k in range(20000):
            a = 10.0 ** rng.uniform(-6.0, 7.0)
            x = a * (0.5, 2.0)[k // 100 % 2] if k % 100 == 0 else a * 2.0 ** rng.uniform(-1.0, 1.0)
            expected = x_form_deviance(a, x).hex()
            assert specfun._deviance(a, x - a).hex() == expected, (a, x)
            assert specfun._log_ratio_term(a, x).hex() == expected, (a, x)

    def test_offsets_off_the_doubles(self):
        """At a band's edge offset d = +-kappa fl(sqrt a), where a + d is
        no double, _deviance(a, d) is within 2.5e-16 relative of mpmath's
        a ln(1 + d/a) - d at the exact a + d: 4,000 seeded a in
        [100, 1e7], kappa in [0.01, 8] and d in [-a/2, a]."""
        rng = random.Random(1974)
        worst = 0.0
        for _ in range(4000):
            a = 10.0 ** rng.uniform(2.0, 7.0)
            d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, math.log10(8.0)) * math.sqrt(a)
            if not -0.5 * a <= d <= a:
                continue
            with mpmath.workdps(60):
                ma, md = mpmath.mpf(a), mpmath.mpf(d)
                expected = ma * mpmath.log1p(md / ma) - md
            worst = max(worst, float(abs(specfun._deviance(a, d) - expected) / abs(expected)))
        assert worst <= 2.5e-16, worst


def temme_full(a, x, half_a_eta2):
    """_temme's (y, R) from every row and column of _TEMME_COEFFS."""
    y = math.copysign(math.sqrt(half_a_eta2), x - a)
    if half_a_eta2 > specfun._TEMME_EXPONENT_CUTOFF:
        return y, 0.0
    eta = y * math.sqrt(2.0 / a)
    series = 0.0
    for row in reversed(specfun._TEMME_COEFFS):
        coeff = 0.0
        for d in reversed(row):
            coeff = coeff * eta + d
        series = series / a + coeff
    return y, math.exp(-half_a_eta2) / math.sqrt(2.0 * math.pi * a) * series


def test_temme_truncation_matches_the_full_table():
    """_temme sums only the rows and columns of Temme's table that a and
    eta need: on 20,000 seeded (a, x), a in [100, 1e7] and
    z = (x - a) / sqrt(a) in [-9, 9], y is the full table's everywhere and
    R within 4 ulp of it, and identical on at least 99.9% of the points."""
    rng = random.Random(1979)
    n, identical = 20000, 0
    for _ in range(n):
        a = 10.0 ** rng.uniform(2.0, 7.0)
        x = a + rng.uniform(-9.0, 9.0) * math.sqrt(a)
        half_a_eta2 = -specfun._log_ratio_term(a, x)
        y, remainder = specfun._temme(a, x - a, half_a_eta2)
        full_y, full_remainder = temme_full(a, x, half_a_eta2)
        assert y == full_y, (a, x)
        assert abs(remainder - full_remainder) <= 4 * math.ulp(full_remainder), (a, x)
        identical += remainder == full_remainder
    assert identical >= 0.999 * n, identical


TEMME_TOL = 2.0 ** -62 / 3.0


def temme_table_faults(shapes, etas, terms):
    """What is wrong with a table of _temme_tables' form, as a list of
    (i, j, k, n, fault). Row k of bin (i, j), a > a_lo (TEMME_MIN_SHAPE in
    the first bin) and |eta| < eta_hi (sqrt(0.8) in the last), must be the
    first w coefficients of _TEMME_COEFFS[k], highest first, where term
    (k, n)'s bound |d[k][n]| eta_hi^n a_lo^-k is below the tolerance over
    the bin for every n >= w ("dropped above tol") and reaches it at
    n = w - 1 ("last kept below tol"); the bin's rows are the len(shapes)
    + 1 - i its whole-row test keeps, last first, and every term of a row
    past them is below the tolerance. A bound within 1e-12 relative of
    the tolerance counts as on either side of it: there the bin's edge is
    that term's own threshold (at k = 0 some are 2e-15 above it, as
    rounded)."""
    coeffs = specfun._TEMME_COEFFS
    rows, cols = len(coeffs), len(coeffs[0])
    eta_max = math.sqrt(2.0 * specfun._TEMME_EXPONENT_CUTOFF / TEMME_MIN_SHAPE)
    slack = 1e-12 * TEMME_TOL
    faults = []
    for i, a_lo in enumerate((TEMME_MIN_SHAPE,) + tuple(shapes)):
        for j, eta_hi in enumerate(tuple(etas) + (eta_max,)):
            cell = terms[i][j]
            if len(cell) != rows - i:
                faults.append((i, j, None, None, f"{len(cell)} rows"))
            for k in range(rows):
                width = len(cell[len(cell) - 1 - k]) if k < len(cell) else 0
                if k < len(cell) and cell[len(cell) - 1 - k] != coeffs[k][:width][::-1]:
                    faults.append((i, j, k, None, "not the row's first terms"))
                for n in range(cols):
                    bound = abs(coeffs[k][n]) * eta_hi ** n / a_lo ** k
                    if n >= width and bound > TEMME_TOL + slack:
                        faults.append((i, j, k, n, "dropped above tol"))
                    if n == width - 1 and bound < TEMME_TOL - slack:
                        faults.append((i, j, k, n, "last kept below tol"))
    return faults


def test_temme_table_keeps_the_terms_that_reach_the_tolerance():
    """Each term of Temme's table is kept in a bin exactly while its bound
    there can reach 2^-62 / 3: every dropped term's bound is below it over
    the bin, and every row's last kept term reaches it."""
    shapes, etas, terms = specfun._TEMME_SHAPES, specfun._TEMME_ETAS, specfun._TEMME_TERMS
    assert temme_table_faults(shapes, etas, terms) == []
    # the bins are those of whole rows and columns; the largest cells lost
    # terms: 84 -> 83 at a <= 1625 (48 -> 37, 72 -> 53), 70 -> 64 below 12692
    sizes = [[sum(map(len, cell)) for cell in row] for row in terms]
    assert [len(row) for row in sizes] == [14] * 4
    assert (sizes[0][0], sizes[0][7], sizes[0][11], sizes[0][13]) == (6, 37, 53, 83)
    assert (sizes[1][0], sizes[1][7], sizes[1][13]) == (5, 27, 64)
    assert (sizes[3][0], sizes[3][13]) == (3, 39)


def test_temme_table_bins_stop_at_the_supported_shapes(monkeypatch):
    """Every kept shape bin starts at or below MAX_SHAPE, and the kept bins
    are the first ones of the table built with no such stop (whose next
    two bins start at 3.2e8 and 1.1e17): so on 20,000 seeded (a, x),
    a in [100, MAX_SHAPE], each a finds the same cell in both, and R keeps
    its bits."""
    shapes, terms = specfun._TEMME_SHAPES, specfun._TEMME_TERMS
    assert len(terms) == len(shapes) + 1 == 4
    assert all(a_lo <= MAX_SHAPE for a_lo in (TEMME_MIN_SHAPE,) + shapes)
    monkeypatch.setattr(specfun, "MAX_SHAPE", math.inf)
    all_shapes, _, all_terms = specfun._temme_tables()
    monkeypatch.undo()
    assert all_shapes[:len(shapes)] == shapes and all_terms[:len(terms)] == terms
    assert len(all_terms) == 6
    assert 3.1e8 < all_shapes[-2] < 3.2e8 and 1.0e17 < all_shapes[-1] < 1.2e17

    def remainder(a, x, shapes, terms):
        half_a_eta2 = -specfun._log_ratio_term(a, x)
        if half_a_eta2 > specfun._TEMME_EXPONENT_CUTOFF:
            return 0.0
        eta = math.copysign(math.sqrt(half_a_eta2), x - a) * math.sqrt(2.0 / a)
        series = 0.0
        for row in terms[bisect_left(shapes, a)][bisect(specfun._TEMME_ETAS, abs(eta))]:
            coeff = 0.0
            for c in row:
                coeff = coeff * eta + c
            series = series / a + coeff
        return math.exp(-half_a_eta2) / math.sqrt(2.0 * math.pi * a) * series

    rng = random.Random(1980)
    for _ in range(20000):
        a = 10.0 ** rng.uniform(2.0, 7.0)
        x = a + rng.uniform(-9.0, 9.0) * math.sqrt(a)
        assert bisect_left(shapes, a) == bisect_left(all_shapes, a) <= 3, a
        kept = specfun._temme(a, x - a, -specfun._log_ratio_term(a, x))[1]
        assert kept.hex() == remainder(a, x, all_shapes, all_terms).hex(), (a, x)


def test_temme_table_check_fails_on_a_dropped_term():
    """temme_table_faults finds each single needed term dropped: the last
    term of any row of any bin, and any row's whole last term set."""
    shapes, etas, terms = specfun._TEMME_SHAPES, specfun._TEMME_ETAS, specfun._TEMME_TERMS
    for i, bins in enumerate(terms):
        for j, cell in enumerate(bins):
            for r, row in enumerate(cell):
                mutated = [list(map(list, b)) for b in terms]
                mutated[i][j][r] = row[1:]  # its highest term dropped
                assert temme_table_faults(shapes, etas, mutated), (i, j, r)


KERNEL_BITS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "specfun_bits.txt")

# (a, x) on every row of reg_lower_gamma's dispatch table, then points whose
# results fall below the normal doubles (LogProbability)
KERNEL_POINTS = (
    # a < 100, x < a + 1: the series
    (1e-6, 1e-3), (0.5, 0.3), (7.0, 3.0), (50.0, 45.0), (99.5, 99.0),
    # a < 100, x >= a + 1: 1 - the fraction
    (0.5, 2.0), (7.0, 12.0), (50.0, 60.0), (99.0, 120.0),
    # a >= 100, x >= a + 1: Temme's P
    (100.0, 101.0), (1e3, 1050.0), (1e6, 1001000.0), (1e7, 10003000.0),
    # a >= 100, in the band below the mean: Temme's P
    (100.0, 95.0), (1e3, 980.0), (12345.678, 12300.0), (1e6, 999000.0), (1e7, 9997000.0),
    # a >= 100, further below the mean: the series while (a - x)^2 < 60 a,
    # (100, 50); the asymptotic sum beyond
    (100.0, 50.0), (1e3, 700.0), (1e6, 990000.0), (1e7, 9900000.0),
    # below the normal doubles
    (1e3, 100.0), (100.0, 1e-5), (0.5, 709.0), (1.0, 709.5),
)
KERNEL_SHAPES = (1e-6, 0.3, 1.0, 7.0, 99.0, 150.0, 1e3, 12345.678, 1e5, 1e6, 1e7)


def _bits(call, *args):
    """float.hex of call(*args), with the log of a LogProbability, or the
    name of the error it raises."""
    try:
        value = call(*args)
    except ArithmeticError as exc:
        return type(exc).__name__
    bits = float(value).hex()
    if isinstance(value, LogProbability):
        bits += f" log={value.log.hex()}"
    return bits


def kernel_bit_lines():
    """One line per kernel call: its arguments and its result's bits."""
    lines = []
    for a, x in KERNEL_POINTS:
        for call in (reg_lower_gamma, lower_series, upper_continued_fraction):
            lines.append(f"{call.__name__}({a!r}, {x!r}) {_bits(call, a, x)}")
    for kappa in (0.5, 0.9, 1.0, 1.01, 1.5, 3.0):
        for alpha in KERNEL_SHAPES:
            lines.append(f"h({kappa!r}, {alpha!r}) {_bits(h, kappa, alpha)}")
    for alpha in KERNEL_SHAPES:
        lines.append(f"t({alpha!r}) {_bits(t, alpha)}")
        for kappa in (0.5, 2.0):
            params = GammaParams(alpha, 3.0)
            lines.append(f"band({params!r}, {kappa!r}) {_bits(band, params, kappa)}")
    return lines


def test_kernel_bits_match_golden():
    """Every output bit of the incomplete gamma and of h, t and band at
    fixed points, in float.hex, against a transcript of the same calls.
    A change that moves any of these bits must say so."""
    with open(KERNEL_BITS, encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    assert kernel_bit_lines() == golden


def test_gamma_band_prob_is_t_bit_for_bit():
    """The catalog's Gamma band is t itself: one record type, one kernel."""
    for alpha in KERNEL_SHAPES:
        for beta in (1.0, 3.0):
            value = iddist.band_prob(GammaParams(alpha, beta))
            assert type(value) is Probability, alpha
            assert value.hex() == t(alpha).hex(), (alpha, beta)


def guarded_lentz(a, x):
    """Lentz's loop with its zero guards, as it stood before they were
    proved idle: (the fraction, the least of D_i / (b_0 + i) and
    C_i / (b_0 + i) over its steps). Its first value is the reference for
    specfun._lentz bit for bit, its second a check of the invariant
    D_i, C_i >= b_0 + i that makes the guards idle. Like _lentz, it tests
    for convergence at even steps only."""
    tiny, tol = specfun.TINY, specfun.REL_TOL
    b = x + 1.0 - a if x >= 1.0 else (1.0 - a) + x
    b0 = b
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    i = 0.0
    least = math.inf
    for _ in range(specfun.MAX_ITERATIONS):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        least = min(least, d / (b0 + i), c / (b0 + i))
        d = 1.0 / d
        delta = d * c
        h *= delta
        if i % 2.0 == 0.0 and -tol < delta - 1.0 < tol:
            return h, least
    raise ConvergenceError(f"continued fraction did not converge for a={a}, x={x}")


class TestLentzWithoutGuards:
    """_lentz has no zero guards: each caller has b_0 = x + 1 - a > 0 and
    x >= 0, where D_i and C_i stay >= b_0 + i (see its docstring). On 10^4
    seeded arguments of each caller, as the callers pass them, the guarded
    loop keeps D_i and C_i within 1e-6 relative of that bound, and the
    unguarded one gives the same bits."""

    def lentz_arguments(self, monkeypatch, run):
        """The (a, x) each call of _lentz gets while run() runs."""
        calls = []
        real = specfun._lentz
        monkeypatch.setattr(specfun, "_lentz", lambda a, x: calls.append((a, x)) or real(a, x))
        run()
        monkeypatch.undo()
        return calls

    def check(self, calls):
        assert len(calls) >= 10 ** 4
        for a, x in calls:
            reference, least = guarded_lentz(a, x)
            assert specfun._lentz(a, x).hex() == reference.hex(), (a, x)
            assert least >= 1.0 - 1e-6, (a, x)

    def test_above_a_plus_one(self, monkeypatch):
        # a log-uniform over the shapes; x from a + 1 exactly (every 100th
        # point) up to ten times it, and every 100th point far above
        rng = random.Random(3701)
        points = []
        for k in range(10 ** 4):
            a = math.exp(rng.uniform(math.log(MIN_SHAPE), math.log(MAX_SHAPE)))
            if k % 100 == 0:
                x = a + 1.0
            elif k % 100 == 50:
                x = math.exp(rng.uniform(math.log(a + 1.0), math.log(1e308)))
            else:
                x = (a + 1.0) * math.exp(rng.uniform(0.0, math.log(10.0)))
            points.append((a, x))

        def run():
            for a, x in points:
                upper_continued_fraction(a, x)

        calls = self.lentz_arguments(monkeypatch, run)
        assert calls == points
        assert sum(x == a + 1.0 for a, x in calls) == 100
        self.check(calls)

    def test_shape_lowered_below_a_plus_one(self, monkeypatch):
        # below a + 1 at a < 100, the fraction runs at the lowered shape a0;
        # a log-uniform and, to lower it more often, uniform by turns
        rng = random.Random(3702)
        points = []
        while len(points) < 10 ** 4:
            if len(points) % 2:
                a = rng.uniform(MIN_SHAPE, TEMME_MIN_SHAPE)
            else:
                a = math.exp(rng.uniform(math.log(MIN_SHAPE), math.log(TEMME_MIN_SHAPE)))
            x = rng.uniform(UPPER_MIN_X, a + 1.0)
            if x < a + 1.0:
                points.append((a, x))

        def run():
            for a, x in points:
                upper_continued_fraction(a, x)

        calls = self.lentz_arguments(monkeypatch, run)
        assert [x for _, x in calls] == [x for _, x in points]
        assert all(a0 <= 1.0 or a0 <= x for a0, x in calls)
        assert sum(a0 < a for (a0, _), (a, _) in zip(calls, points)) > 5000
        self.check(calls)

    def test_scaled_normal_tail(self, monkeypatch):
        # Q(1/2, y^2) from y^2 = 700, where erfc leaves the normal doubles, up
        # to 1e308; a y^2 that rounds below 700 on the way through w takes
        # erfc instead
        rng = random.Random(3703)
        y2s = [math.exp(rng.uniform(math.log(700.0), math.log(1e308))) for _ in range(10100)]
        ws = [math.sqrt(2.0 * y2) for y2 in y2s]

        def run():
            for w in ws:
                specfun._scaled_normal_sf(w)

        calls = self.lentz_arguments(monkeypatch, run)
        assert len(calls) >= len(ws) - 10
        assert all(a == 0.5 and x >= specfun._ERFC_MAX_EXPONENT for a, x in calls)
        self.check(calls)


class _Float(float):
    """A float subclass, which the entry fast paths leave to the checks."""


def checked_h(kappa, alpha):
    """h with its check always run: the fast path's reference. A product
    kappa alpha that overflows at a supported shape gives 1.0."""
    x = specfun._check_positive("kappa", kappa) * alpha
    if x == math.inf and type(alpha) in (float, int) and MIN_SHAPE <= alpha <= MAX_SHAPE:
        return Probability(1.0)
    return reg_lower_gamma(alpha, x)


class TestEntryFastPath:
    """reg_lower_gamma, lower_series, upper_continued_fraction and h take a
    plain in-range float straight to their bodies; everything else goes
    through the checks. Both routes give the same class, bits and log, or
    the same error type and message."""

    SHAPES = (MIN_SHAPE, math.nextafter(MIN_SHAPE, 0.0), MAX_SHAPE,
              math.nextafter(MAX_SHAPE, math.inf), 10 ** 7, True, Probability(0.5),
              math.nan, math.inf, -math.inf)
    ARGUMENTS = (0.0, -0.0, 5e-324, sys.float_info.max, math.inf, math.nan, -1e-300,
                 10 ** 400, True)
    KAPPAS = (math.nan, math.inf, 0.0, -0.0, 5e-324, sys.float_info.max, 2, True,
              _Float(1.5), 1.5)
    ALPHAS = (MIN_SHAPE, 0.5, 2.0, MAX_SHAPE, 3)
    BODIES = {
        reg_lower_gamma: specfun._reg_lower_gamma,
        lower_series: specfun._lower_series,
        upper_continued_fraction: specfun._upper_continued_fraction,
    }

    @staticmethod
    def outcome(call, *args):
        try:
            value = call(*args)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc), str(exc)
        return type(value), float(value).hex(), getattr(value, "log", None)

    @pytest.mark.parametrize("public", list(BODIES), ids=lambda f: f.__name__)
    def test_same_outcome_as_the_checks(self, public):
        body = self.BODIES[public]
        outcomes = []
        for a in self.SHAPES:
            for x in self.ARGUMENTS:
                checked = self.outcome(lambda: body(*specfun._check_domain(a, x)))
                assert self.outcome(public, a, x) == checked, (a, x)
                outcomes.append(checked)
        # the inputs reach the results, the refusals and the fast path
        assert sum(outcome[0] is ValueError for outcome in outcomes) == 74
        assert sum(outcome[0] in (Probability, LogProbability) for outcome in outcomes) >= 14

    def test_h_same_outcome_as_the_check(self):
        outcomes = []
        for kappa in self.KAPPAS:
            for alpha in self.ALPHAS:
                expected = self.outcome(checked_h, kappa, alpha)
                assert self.outcome(h, kappa, alpha) == expected, (kappa, alpha)
                outcomes.append(expected)
        # kappa = the largest double overflows kappa alpha at alpha = 2, 3
        # and MAX_SHAPE, where h is 1.0
        assert sum(outcome[0] is ValueError for outcome in outcomes) == 25
        assert sum(outcome[0] in (Probability, LogProbability) for outcome in outcomes) == 25
        assert outcomes.count((Probability, "0x1.0000000000000p+0", None)) >= 3

    def test_plain_floats_skip_the_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"checked {args}")

        monkeypatch.setattr(specfun, "_check_domain", refuse)
        monkeypatch.setattr(specfun, "_check_positive", refuse)
        for public in self.BODIES:
            assert public(2.0, 3.0) == self.BODIES[public](2.0, 3.0)
            assert public(MIN_SHAPE, -0.0) == self.BODIES[public](MIN_SHAPE, -0.0)
        monkeypatch.setattr(gamma_prob, "_check_positive", refuse)
        assert h(1.5, 2.0) == specfun._reg_lower_gamma(2.0, 3.0)
        # an int, a bool or a float subclass is checked
        for args in ((2, 3.0), (2.0, True), (Probability(0.5), 3.0)):
            with pytest.raises(AssertionError, match="checked"):
                reg_lower_gamma(*args)
        with pytest.raises(AssertionError, match="checked"):
            h(_Float(1.5), 2.0)


class TestStdNormal:
    def test_reference_bands(self):
        assert std_normal_band(1.0) == pytest.approx(0.6826895, abs=1e-7)
        assert std_normal_band(0.5) == pytest.approx(0.3829249, abs=1e-7)
        assert std_normal_band(2.0) == pytest.approx(0.9544997, abs=1e-7)

    def test_erf_identity(self):
        for kappa in (0.1, 0.7, 1.0, 1.8, 3.0, 5.0):
            assert std_normal_band(kappa) == pytest.approx(
                math.erf(kappa / math.sqrt(2.0)), abs=1e-13
            )

    def test_strictly_increasing_and_limit(self):
        grid = [0.05 * i for i in range(1, 161)]
        values = [std_normal_band(k) for k in grid]
        assert all(u < v for u, v in zip(values, values[1:]))
        assert abs(std_normal_band(8.0) - 1.0) <= 1e-12

    def test_domain_errors(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                std_normal_band(bad)

    def test_cdf_symmetry(self):
        for z in (0.3, 1.0, 2.5):
            assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)
        assert std_normal_cdf(0.0) == 0.5

    def test_log_sf_matches_cdf_midrange(self):
        for z in (0.5, 1.5, 2.0):
            assert log_std_normal_sf(z) == pytest.approx(
                math.log(1.0 - std_normal_cdf(z)), rel=1e-12
            )

    def test_log_sf_deep_tail(self):
        # log Q(z) ~ -z^2/2 - log(z sqrt(2 pi)) for large z
        for z in (10.0, 50.0, 1e3, 1e5):
            asymptotic = -0.5 * z * z - math.log(z * math.sqrt(2.0 * math.pi))
            assert log_std_normal_sf(z) == pytest.approx(asymptotic, rel=1e-3)

    def test_band_one_is_correctly_rounded(self):
        # erf(1/sqrt 2) rounded once to double
        assert std_normal_band(1.0) == float.fromhex("0x1.5d897a241a6fap-1")

    def test_cdf_against_mpmath(self):
        rng = random.Random(21)
        zs = [rng.uniform(-37.0, 8.0) for _ in range(400)] + [-37.0, -9.0, 0.0, 8.0]
        with mpmath.workdps(40):
            for z in zs:
                expected = mpmath.ncdf(z)
                assert abs((std_normal_cdf(z) - expected) / expected) <= 1e-12, z

    def test_log_sf_against_mpmath_up_to_two(self):
        rng = random.Random(22)
        zs = [rng.uniform(-40.0, 2.0) for _ in range(400)] + [-1.0, 0.0, 1.0, 2.0]
        with mpmath.workdps(40):
            for z in zs:
                expected = mpmath.log(mpmath.ncdf(-z))
                assert abs(log_std_normal_sf(z) - expected) <= 1e-15, z

    def test_log_sf_against_mpmath_beyond_two(self):
        # erfc up to z ~ 37.5, where erfc(z / sqrt 2) / 2 leaves the normal
        # doubles, Lentz's fraction beyond: both are off by the rounding of
        # z / sqrt 2 times the slope ~z of the log (measured <= 2.3e-16 z^2)
        rng = random.Random(23)
        zs = [rng.uniform(2.0, 37.0) for _ in range(300)]
        zs += [rng.uniform(37.0, 1e3) for _ in range(100)] + [2.0, 37.0, 37.5, 38.0]
        with mpmath.workdps(40):
            for z in zs:
                expected = mpmath.log(mpmath.ncdf(-z))
                assert abs(log_std_normal_sf(z) - expected) <= 2.5e-16 * z * z, z

    def test_log_sf_far_tail_against_mpmath(self, monkeypatch):
        """Beyond erfc's normal doubles, ln(e^(z^2/2) P{Z > z}) - z^2 / 2 is
        within 1.5e-16 z^2 absolute (measured 1.04e-16) on 1002 seeded z in
        [37.6, 1e7], against mpmath at 40 digits plus the two per decade
        that z^2 carries. Where z^2 overflows, and at z = +inf, the result
        is -inf, with no continued fraction run; -inf gives 0 and NaN NaN."""
        rng = random.Random(29)
        zs = [37.6, 1e7] + [10.0 ** rng.uniform(math.log10(37.6), 7.0) for _ in range(1000)]
        for z in zs:
            with mpmath.workdps(40 + 2 * math.ceil(math.log10(z))):
                expected = mpmath.log(mpmath.ncdf(-mpmath.mpf(z)))
            assert abs(log_std_normal_sf(z) - expected) <= 1.5e-16 * z * z, z

        def no_fraction(a, x):
            raise AssertionError(f"continued fraction run at a={a}, x={x}")

        monkeypatch.setattr(specfun, "_lentz", no_fraction)
        assert log_std_normal_sf(1e200) == -math.inf
        assert log_std_normal_sf(2e154) == -math.inf
        assert log_std_normal_sf(math.inf) == -math.inf
        assert log_std_normal_sf(-math.inf) == 0.0
        assert math.isnan(log_std_normal_sf(math.nan))


def _scaled_normal_sf_mpmath(w):
    """e^(w^2/2) P{Z > w} to 40 digits: the working precision grows with
    w^2, whose digits the exponential and the tail cancel. Past w = 1e8,
    the asymptotic series (1 - 1/w^2 + 3/w^4) / (w sqrt(2 pi)), whose
    omitted part is below 15/w^6 < 1e-47 relative."""
    with mpmath.workdps(40 + 2 * max(0, math.ceil(math.log10(w or 1.0)))):
        w = mpmath.mpf(w)
        if w > 1e8:
            return (1 - 1 / w ** 2 + 3 / w ** 4) / (w * mpmath.sqrt(2 * mpmath.pi))
        return mpmath.exp(w * w / 2) * mpmath.ncdf(-w)


class TestScaledNormalSf:
    # erfc and exp below y^2 = w^2 / 2 = 700, Lentz's fraction from it up
    SWITCH_W = math.sqrt(2.0 * specfun._ERFC_MAX_EXPONENT)

    def test_against_mpmath_on_both_sides_of_the_switch(self):
        # measured: 4.7e-16 relative at worst over these points (7.9e-16 over
        # 4000 random points in [0, 40] and [2e-9, 1.2e6])
        rng = random.Random(24)
        ws = [rng.uniform(0.0, 45.0) for _ in range(400)]
        ws += [math.exp(rng.uniform(-20.0, 14.0)) for _ in range(200)]
        ws += [0.0, 1e-300, 1.0, self.SWITCH_W, 1e6, 1e20, 1e150, 1e155, 1e300]
        ws += [self.SWITCH_W * (1.0 + v) for v in (-1e-3, -1e-15, 1e-15, 1e-3)]
        assert min(ws) < self.SWITCH_W < max(ws)
        for w in ws:
            expected = _scaled_normal_sf_mpmath(w)
            assert abs(specfun._scaled_normal_sf(w) - expected) <= 1e-15 * expected, w

    def test_branches_agree_at_the_switch(self, monkeypatch):
        # run each branch at points around the switch (the direct one is
        # sound up to y^2 = 709.8, where e^(y^2) overflows); measured: within
        # 1 ulp
        for w in [self.SWITCH_W * (1.0 + v) for v in (-1e-2, -1e-15, 0.0, 1e-15, 1e-3)]:
            with monkeypatch.context() as patch:
                patch.setattr(specfun, "_ERFC_MAX_EXPONENT", math.inf)
                direct = specfun._scaled_normal_sf(w)
                patch.setattr(specfun, "_ERFC_MAX_EXPONENT", 0.0)
                fraction = specfun._scaled_normal_sf(w)
            assert abs(direct - fraction) <= 2 * math.ulp(direct), w


# each public record: keyword fields, and its repr as the dataclass-built
# records printed it (GammaDist shows its default beta; GammaParams, its
# alias, builds the same record and prints the class's one name)
RECORDS = [
    (GammaParams, {"alpha": 2}, "GammaDist(alpha=2, beta=1.0)"),
    (GammaDist, {"alpha": 0.001}, "GammaDist(alpha=0.001, beta=1.0)"),
    (Poisson, {"lam": 3.5}, "Poisson(lam=3.5)"),
    (NegativeBinomial, {"r": 2.0, "p": 0.25}, "NegativeBinomial(r=2.0, p=0.25)"),
    (InverseGaussian, {"mu": 1.5, "shape": 1e-2}, "InverseGaussian(mu=1.5, shape=0.01)"),
    (CompoundPoissonExp, {"rate": 4.0, "jump_scale": 1.0},
     "CompoundPoissonExp(rate=4.0, jump_scale=1.0)"),
    (NormalBaseline, {}, "NormalBaseline()"),
    (ScanReport, {
        "family": "gamma", "grid": (GammaDist(2.0),), "min_band": Probability(0.7),
        "argmin_params": GammaDist(2.0), "violations": (), "threshold": 0.68,
        "notes": ("evidence only",),
    }, "ScanReport(family='gamma', grid=(GammaDist(alpha=2.0, beta=1.0),), min_band=0.7, "
       "argmin_params=GammaDist(alpha=2.0, beta=1.0), violations=(), threshold=0.68, "
       "notes=('evidence only',))"),
    (OptimizationResult, {
        "argmin": 3.47, "min_value": Probability(0.64), "bracket": (1.0, 3.0, 9.0),
        "evaluations": 12, "converged": True,
    }, "OptimizationResult(argmin=3.47, min_value=0.64, bracket=(1.0, 3.0, 9.0), "
       "evaluations=12, converged=True)"),
    (CertificateReport, {
        "name": "G+", "degree": 2, "coefficients": (Fraction(-1), Fraction(1, 2)),
        "sign_verdict": "all_negative", "spot_checks": (0, 2), "detail": "d",
    }, "CertificateReport(name='G+', degree=2, coefficients=(Fraction(-1, 1), Fraction(1, 2)), "
       "sign_verdict='all_negative', spot_checks=(0, 2), detail='d')"),
    (Case1Report, {"derivative_bound": 0.5, "value_at_endpoint": 0.25, "samples_checked": 1000},
     "Case1Report(derivative_bound=0.5, value_at_endpoint=0.25, samples_checked=1000)"),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, text", RECORDS,
                             ids=["GammaParams"] + [r[0].__name__ for r in RECORDS[1:]])
    def test_semantics(self, cls, fields, text):
        record = cls(**fields)
        assert repr(record) == text
        positional = cls(*fields.values())
        assert positional == record
        assert hash(positional) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(TypeError):
            cls(**fields, unknown=1)
        names = list(fields)
        if names:
            first = names[0]
            with pytest.raises(TypeError):
                cls(**{name: fields[name] for name in names[1:]})
            with pytest.raises(TypeError):
                cls(fields[first], **fields)
        else:
            first = "field"
        with pytest.raises(AttributeError):
            setattr(record, first, 1)
        with pytest.raises(AttributeError):
            delattr(record, first)
        assert repr(record) == text

    def test_equal_fields_of_another_class_differ(self):
        # the Gamma law has one type, so its two names build equal records;
        # the same fields in any other record class, a subclass included,
        # compare unequal both ways
        assert gamma_prob.GammaParams is iddist.GammaDist is gamma_prob.GammaDist
        assert GammaParams(2.0) == GammaDist(2.0)

        class Shape(specfun._Record):
            _fields = __slots__ = ("alpha", "beta")
            _defaults = (1.0,)

        class GammaSubclass(GammaDist):
            __slots__ = ()

        for other in (Shape(2.0), GammaSubclass(2.0)):
            assert other._values() == GammaDist(2.0)._values()
            assert GammaDist(2.0) != other
            assert other != GammaDist(2.0)
