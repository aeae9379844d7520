"""Tests for bracketing, Brent minimization, and the h-minimum front end."""

import math
import sys

import mpmath
import pytest

from gamma_extremes import optimize
from gamma_extremes.gamma_prob import h
from gamma_extremes.optimize import (
    DEFAULT_LOG_HI,
    DEFAULT_LOG_LO,
    DEFAULT_TOL,
    MaxEvaluations,
    NoInteriorMinimum,
    bracket_minimum,
    brent_min,
    edgeworth_argmin,
    _lin_grid,
    _lin_point,
    min_h,
    scan,
)

# reference interior minima: kappa -> (argmin, min value)
REFERENCE_MINIMA = {
    1.01: (33.4871, 0.545885),
    1.1: (3.47146, 0.64021),
    1.2: (1.78959, 0.691283),
    1.5: (0.757559, 0.774739),
    2.0: (0.396184, 0.841243),
    3.0: (0.205464, 0.899108),
    4.0: (0.13917, 0.925864),
}

# min_h's evaluations at each table kappa, with brent_min started from the
# bracket's known end values; from a cold start they were 7, 7, 7, 7, 7, 8
# and 8 (51), and on tol alone, before brent_min stopped at h's rounding
# floor, 23, 16, 16, 14, 13, 11 and 24 (117)
MIN_H_EVALUATIONS = {1.01: 5, 1.1: 5, 1.2: 5, 1.5: 6, 2.0: 6, 3.0: 6, 4.0: 6}
# kappa -> argmin near which mp_min_h searches: the table, the flattest golden
# kappa, and 5.32, where a stop on a fit over far-apart points was 2e-5 off
MPMATH_ARGMINS = {kappa: argmin for kappa, (argmin, _) in REFERENCE_MINIMA.items()}
MPMATH_ARGMINS.update({1.001: 333.489, 5.32: 0.0977136})

# a dense sweep of kappa > 1, and kappas whose minimum lies outside the grid
DENSE_KAPPAS = [1.0 + i / 50 for i in range(1, 401)] + [1.0001, 1.001, 1000.0, 3000.0]
OUTSIDE_GRID_KAPPAS = (5000.0, 1e4, 1.0000001)
# kappa <= 1, where h(kappa, .) is decreasing: a dense sweep and its edges
DECREASING_KAPPAS = [i / 200 for i in range(1, 201)] + [
    1e-6, 1e-3, 0.9999999, math.nextafter(1.0, 0.0)
]


def full_grid_bracket(f, lo, hi, grid_n):
    """The first strictly-lower triple and f at its two ends, with every
    grid point evaluated before the scan."""
    xs = _lin_grid(lo, hi, grid_n)
    fs = [f(x) for x in xs]
    for i in range(1, grid_n - 1):
        if fs[i] < fs[i - 1] and fs[i] < fs[i + 1]:
            return (xs[i - 1], xs[i], xs[i + 1]), (fs[i - 1], fs[i + 1])
    raise AssertionError("no interior triple")


def mp_min_h(kappa, lo, hi, steps=80):
    """(argmin, min) of h(kappa, e^y) = P(alpha, kappa alpha) over y in [lo, hi]
    by golden-section search at 30 digits: 80 steps shrink the interval to
    1e-16 of its width, and the minimum to ~1e-30 of h."""
    with mpmath.workdps(30):
        kappa = mpmath.mpf(kappa)

        def f(y):
            alpha = mpmath.exp(y)
            return mpmath.gammainc(alpha, 0, kappa * alpha, regularized=True)

        ratio = (mpmath.sqrt(5) - 1) / 2
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(steps):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - ratio * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + ratio * (b - a)
                fd = f(d)
        y = (a + b) / 2
        return mpmath.exp(y), f(y)


class Counting:
    """An objective that counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


class TestBracketMinimum:
    def test_quadratic(self):
        lo, mid, hi = bracket_minimum(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 11)
        assert lo < 2.0 < hi
        assert lo < mid < hi

    def test_boundary_minimum_raises(self):
        with pytest.raises(NoInteriorMinimum) as info:
            bracket_minimum(lambda x: x, 0.0, 1.0, 10)
        assert info.value.boundary == "lower"
        with pytest.raises(NoInteriorMinimum) as info:
            bracket_minimum(lambda x: -x, 0.0, 1.0, 10)
        assert info.value.boundary == "upper"

    def test_stops_at_the_first_triple(self):
        # grid 0, 0.5, ..., 5: the first triple is centred on index 4 (x = 2)
        f = Counting(lambda x: (x - 2.0) ** 2)
        assert bracket_minimum(f, 0.0, 5.0, 11) == (1.5, 2.0, 2.5)
        assert f.calls == 4 + 2
        # two dips: the first one is returned, before the second is seen
        f = Counting(lambda x: math.cos(x))
        lo, mid, hi = bracket_minimum(f, 0.0, 20.0, 41)
        assert lo < math.pi < hi
        assert f.calls == 6 + 2

    def test_whole_grid_before_no_interior_minimum(self):
        for f, boundary in ((Counting(lambda x: x), "lower"), (Counting(lambda x: -x), "upper")):
            with pytest.raises(NoInteriorMinimum) as info:
                bracket_minimum(f, 0.0, 1.0, 10)
            assert info.value.boundary == boundary
            assert f.calls == 10

    def test_h_kappa_one_has_no_interior_minimum(self):
        with pytest.raises(NoInteriorMinimum) as info:
            bracket_minimum(lambda x: h(1.0, math.exp(x)), DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200)
        assert info.value.boundary == "upper"
        assert info.value.value == pytest.approx(0.5, abs=1e-3)

    def test_h_interior_bracket(self):
        lo, mid, hi = bracket_minimum(
            lambda x: h(1.5, math.exp(x)), math.log(1e-4), math.log(1e4), 200
        )
        assert lo < math.log(0.757559) < hi

    @pytest.mark.parametrize("lo, hi, n", [
        (DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200), (DEFAULT_LOG_LO, DEFAULT_LOG_HI, 500),
        (0.0, 5.0, 11), (0.0, 20.0, 41), (0.05, 0.95, 50), (-1.0, 1.0, 3),
    ])
    def test_grid_points_by_index_are_the_listed_grid(self, lo, hi, n):
        # the reference: the whole grid as one list, bit for bit
        step = (hi - lo) / (n - 1)
        listed = [lo + i * step if i < n - 1 else hi for i in range(n)]
        by_index = [_lin_point(lo, hi, n, i) for i in range(n)]
        assert [x.hex() for x in by_index] == [x.hex() for x in listed]
        assert [x.hex() for x in _lin_grid(lo, hi, n)] == [x.hex() for x in listed]

    def test_validation(self):
        with pytest.raises(ValueError):
            bracket_minimum(lambda x: x * x, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            bracket_minimum(lambda x: x * x, 0.0, 1.0, 2)

    @pytest.mark.parametrize("grid_n", (2, 3.5, "200", True))
    def test_rejects_invalid_grid_n(self, grid_n):
        with pytest.raises(ValueError, match="int grid_n >= 3"):
            bracket_minimum(lambda x: x * x, -1.0, 1.0, grid_n)


class TestBrentMin:
    def test_quadratic(self):
        result = brent_min(lambda x: (x - 2.0) ** 2, (0.0, 1.5, 5.0), 1e-10)
        assert result.argmin == pytest.approx(2.0, abs=1e-8)
        assert result.min_value == pytest.approx(0.0, abs=1e-15)
        assert result.converged

    def test_stops_at_the_rounding_floor(self):
        # one ulp of 1 of rounding over a curvature of 2e-3:
        # delta = sqrt(2 eps / 2e-3) ~ 4.7e-7
        delta = math.sqrt(2.0 * 2.0 ** -52 / 2e-3)
        f = Counting(lambda x: 1.0 + 1e-3 * (x - 2.0) ** 2)
        result = brent_min(f, (1.99, 2.001, 2.01), 1e-10)
        assert result.converged
        assert abs(result.argmin - 2.0) <= 2.0 * delta
        # on tol alone it took 32 evaluations
        assert result.evaluations <= 5
        assert f.calls == result.evaluations

    def test_warm_start_steps_first_to_the_parabola(self):
        # with f at the bracket's ends, the first step is the vertex of the
        # parabola through the three points, here the minimum itself
        f = lambda x: (x - 2.0) ** 2
        seen = []
        result = brent_min(lambda x: seen.append(x) or f(x), (0.0, 1.5, 5.0), 1e-10,
                           ends=(f(0.0), f(5.0)))
        assert seen[:2] == [1.5, 2.0]
        assert result.argmin == 2.0
        assert result.min_value == 0.0
        assert result.converged
        # the ends cost no evaluation: 5, against 7 from a cold start
        assert result.evaluations == len(seen) == 5

    @pytest.mark.parametrize("f, bracket, tol, evaluations, argmin", [
        (lambda x: (x - 2.0) ** 2, (0.0, 1.5, 5.0), 1e-10, 7, "0x1.0000000000000p+1"),
        (lambda x: 1.0 + 1e-3 * (x - 2.0) ** 2, (0.0, 1.5, 5.0), 1e-10, 37,
         "0x1.00000172891c3p+1"),
        (lambda x: math.cosh(x - 0.7), (-2.0, 0.0, 3.0), 1e-9, 9, "0x1.6666666648d83p-1"),
    ])
    def test_cold_start_is_unchanged(self, f, bracket, tol, evaluations, argmin):
        # without ends the search starts at the middle point alone and takes
        # a golden section first, into the longer side (each middle here is
        # left of its bracket's centre): the counts and argmins measured
        # before the warm start existed
        _, mid, hi = bracket
        seen = []
        result = brent_min(lambda x: seen.append(x) or f(x), bracket, tol)
        assert seen[1] == mid + 0.3819660112501051 * (hi - mid)
        assert result.evaluations == evaluations
        assert result.argmin.hex() == argmin
        assert result.converged
        assert brent_min(f, bracket, tol, ends=None) == result

    def test_result_invariants(self):
        f = lambda x: math.cosh(x - 0.7)
        result = brent_min(f, (-2.0, 0.0, 3.0), 1e-9)
        lo, mid, hi = result.bracket
        assert lo < result.argmin < hi
        # min_value re-evaluated at argmin, never a stale cache
        assert result.min_value == f(result.argmin)

    def test_evaluation_budget(self):
        with pytest.raises(MaxEvaluations):
            brent_min(lambda x: (x - 2.0) ** 2, (0.0, 1.5, 5.0), 1e-10, max_evaluations=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            brent_min(lambda x: x * x, (0.0, 2.0, 1.0), 1e-8)
        with pytest.raises(ValueError):
            brent_min(lambda x: x * x, (0.0, 1.0, 2.0), 0.0)

    @pytest.mark.parametrize("tol", (-1.0, 0.0, math.nan, math.inf))
    def test_invalid_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            brent_min(lambda x: x * x, (0.0, 1.0, 2.0), tol)


class TestMinH:
    def test_reference_table(self):
        for kappa, (argmin_ref, value_ref) in REFERENCE_MINIMA.items():
            result = min_h(kappa)
            assert result.argmin == pytest.approx(argmin_ref, rel=1e-3), kappa
            assert float(result.min_value) == pytest.approx(value_ref, abs=1e-4), kappa
            assert float(result.min_value) > 0.5, kappa

    @pytest.mark.parametrize("kappa", MPMATH_ARGMINS)
    def test_minimum_against_mpmath(self, kappa):
        # what min_h's digits mean, whatever path Brent takes: the minimum to
        # 1e-15 (measured <= 5.6e-16), the argmin to 1e-6 relative (measured
        # <= 3.6e-7, at kappa = 1.001), as h is flat to second order there
        argmin, value = mp_min_h(kappa, math.log(0.8 * MPMATH_ARGMINS[kappa]),
                                 math.log(1.25 * MPMATH_ARGMINS[kappa]))
        result = min_h(kappa)
        assert abs(float(result.min_value) - value) <= 1e-15, kappa
        assert abs(result.argmin / argmin - 1) <= 1e-6, kappa

    @pytest.mark.parametrize("kappa", REFERENCE_MINIMA)
    def test_same_result_as_the_full_grid(self, kappa):
        def objective(x):
            return h(kappa, math.exp(x))

        log_bracket, ends = full_grid_bracket(objective, DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200)
        expected = brent_min(objective, log_bracket, DEFAULT_TOL, ends=ends)
        result = min_h(kappa)
        assert result.bracket == tuple(math.exp(x) for x in log_bracket)
        assert result.argmin == math.exp(expected.argmin)
        assert result.min_value == expected.min_value
        assert result.evaluations == expected.evaluations
        assert result.converged == expected.converged

    def test_seeded_bracket_matches_the_full_grid_on_a_dense_sweep(self):
        for kappa in DENSE_KAPPAS:
            def objective(x):
                return h(kappa, math.exp(x))

            log_bracket, ends = full_grid_bracket(objective, DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200)
            expected = brent_min(objective, log_bracket, DEFAULT_TOL, ends=ends)
            result = min_h(kappa)
            assert result.bracket == tuple(math.exp(x) for x in log_bracket), kappa
            assert result.argmin == math.exp(expected.argmin), kappa
            assert result.min_value == expected.min_value, kappa
            assert result.evaluations == expected.evaluations, kappa
            assert result.converged == expected.converged, kappa

    def test_evaluation_budget(self):
        """brent_min starts from the bracket's end values and stops at h's
        rounding floor: 39 evaluations over the table, against 51 from a
        cold start and 117 on tol alone. A return to a cold start or to
        searching below the floor fails here without a timing test."""
        counts = {kappa: min_h(kappa).evaluations for kappa in REFERENCE_MINIMA}
        assert counts == MIN_H_EVALUATIONS
        assert sum(counts.values()) == 39

    def test_dense_sweep_evaluation_budget(self):
        # measured 2405 over the sweep, 5 to 8 per kappa; 3084 (6 to 17) from
        # a cold start, 5657 on tol alone
        counts = [min_h(kappa).evaluations for kappa in DENSE_KAPPAS]
        assert sum(counts) <= 2405
        assert max(counts) <= 8

    @pytest.mark.parametrize("kappa", OUTSIDE_GRID_KAPPAS)
    def test_minimum_outside_the_grid_same_diagnosis_as_the_scan(self, kappa):
        with pytest.raises(NoInteriorMinimum) as expected:
            bracket_minimum(lambda x: h(kappa, math.exp(x)), DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200)
        with pytest.raises(NoInteriorMinimum) as info:
            min_h(kappa)
        assert info.value.boundary == expected.value.boundary
        assert info.value.abscissa == math.exp(expected.value.abscissa)
        assert info.value.value == expected.value.value

    def test_decreasing_kappas_same_diagnosis_as_the_scan(self):
        xs = _lin_grid(DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200)
        for kappa in DECREASING_KAPPAS:
            values = {x: h(kappa, math.exp(x)) for x in xs}
            fs = list(values.values())
            assert all(u >= v for u, v in zip(fs, fs[1:])), kappa
            with pytest.raises(NoInteriorMinimum) as expected:
                bracket_minimum(values.__getitem__, DEFAULT_LOG_LO, DEFAULT_LOG_HI, 200)
            with pytest.raises(NoInteriorMinimum) as info:
                min_h(kappa)
            assert info.value.boundary == expected.value.boundary == "upper", kappa
            assert info.value.abscissa == math.exp(expected.value.abscissa), kappa
            assert float(info.value.value).hex() == float(expected.value.value).hex(), kappa
            assert type(info.value.value) is type(expected.value.value), kappa

    @pytest.mark.parametrize("kappa", (0.2, 0.5, 0.8, 1.0))
    def test_decreasing_kappa_call_budget(self, kappa, monkeypatch):
        counted = Counting(h)
        monkeypatch.setattr(optimize, "h", counted)
        with pytest.raises(NoInteriorMinimum):
            min_h(kappa)
        # one call, at the upper grid end; the full scan took 200
        assert counted.calls == 1

    @pytest.mark.parametrize("kappa", REFERENCE_MINIMA)
    def test_bracket_call_budget(self, kappa, monkeypatch):
        counted = Counting(h)
        monkeypatch.setattr(optimize, "h", counted)
        result = min_h(kappa)
        # the walk starts on the triple's middle: 3 calls, of which
        # brent_min reuses the middle one and its argmin (3-5 calls from the
        # Edgeworth estimate alone; the full scan took 65-112)
        assert counted.calls - result.evaluations == 1, kappa
        assert counted.calls <= 7, kappa

    def test_dense_sweep_walk_calls(self, monkeypatch):
        walks = []
        descend = optimize._descend_to_triple

        def counted_descend(f, *args):
            counted = Counting(f)
            triple = descend(counted, *args)
            walks.append(counted.calls)
            return triple

        monkeypatch.setattr(optimize, "_descend_to_triple", counted_descend)
        for kappa in DENSE_KAPPAS:
            min_h(kappa)
        # measured 1219 calls: 397 walks of 3 and 7 of 4; from the Edgeworth
        # estimate alone 1967, mostly 5 each
        assert len(walks) == len(DENSE_KAPPAS)
        assert sum(walks) <= 1300
        assert max(walks) <= 5

    def test_argmin_seed_meets_both_limits(self):
        """The walk's seed 1 / (3 (kappa - 1)) + A / (kappa - B) has the
        argmin's limits: + 7/45 as kappa -> 1 and u* / kappa as kappa -> inf,
        u* the root of E_1(u) = e^-u. min_h's argmins approach both."""
        seed = optimize._argmin_seed
        u_star = optimize._SEED_SCALE + 1.0 / 3.0
        with mpmath.workdps(30):
            assert abs(mpmath.e1(u_star) - mpmath.exp(-u_star)) < 1e-16
        for kappa in (1.0 + 1e-6, 1.0 + 1e-4):
            assert abs(seed(kappa) - 1.0 / (3.0 * (kappa - 1.0)) - 7.0 / 45.0) < 1e-4, kappa
        for kappa in (1e6, 1e9):
            assert abs(kappa * seed(kappa) - u_star) < 1e-5, kappa
        # measured 0.15536 at kappa = 1.001 and 0.43494 at kappa = 3000
        assert abs(min_h(1.001).argmin - 1.0 / (3.0 * 0.001) - 7.0 / 45.0) < 1e-3
        assert abs(3000.0 * min_h(3000.0).argmin - u_star) < 1e-3
        for kappa in (1e300, 6e307, sys.float_info.max):
            assert 0.0 < seed(kappa) < math.inf and math.log(seed(kappa)) < DEFAULT_LOG_LO

    @pytest.mark.parametrize("kappa", (1e303, 1e308, sys.float_info.max))
    def test_huge_kappa_same_diagnosis_as_a_finite_scan(self, kappa):
        # h(kappa, .) is 1.0 on the whole grid, where kappa alpha overflows
        # too: the scan finds the minimum at the lower end, as at 1e300
        with pytest.raises(NoInteriorMinimum) as expected:
            min_h(1e300)
        with pytest.raises(NoInteriorMinimum) as info:
            min_h(kappa)
        assert expected.value.boundary == info.value.boundary == "lower"
        assert expected.value.abscissa == info.value.abscissa == math.exp(DEFAULT_LOG_LO)
        assert expected.value.value == info.value.value == 1.0

    def test_edgeworth_argmin(self):
        assert edgeworth_argmin(1.5) == pytest.approx(2.0 / 3.0)
        # the argmin is 1.005 to 1.25 times the estimate over the table
        for kappa, (argmin, _) in REFERENCE_MINIMA.items():
            assert 1.0 <= argmin / edgeworth_argmin(kappa) <= 1.3, kappa
        for kappa in (1.0, 0.5):
            with pytest.raises(ValueError):
                edgeworth_argmin(kappa)

    def test_edgeworth_argmin_past_the_overflow(self):
        # where 3 (kappa - 1) overflows the estimate is (1/3) / (kappa - 1),
        # a subnormal, not 0.0
        for kappa in (6e307, 1e308, sys.float_info.max):
            assert 3.0 * (kappa - 1.0) == math.inf
            value = edgeworth_argmin(kappa)
            assert value == (1.0 / 3.0) / (kappa - 1.0)
            assert 0.0 < value < sys.float_info.min
            assert abs(value - mpmath.mpf(1) / (3 * (mpmath.mpf(kappa) - 1))) <= 5e-324
        # elsewhere its bits are those of 1 / (3 (kappa - 1))
        below = math.nextafter(sys.float_info.max / 3.0, 0.0)
        for kappa in (1.0001, 1.5, 4.0, 1e300, 5e307, below):
            assert edgeworth_argmin(kappa) == 1.0 / (3.0 * (kappa - 1.0)), kappa

    def test_kappa_one_boundary_diagnosis(self):
        with pytest.raises(NoInteriorMinimum) as info:
            min_h(1.0)
        assert info.value.boundary == "upper"
        assert info.value.value == pytest.approx(0.5, abs=1e-3)

    def test_kappa_below_one_boundary_diagnosis(self):
        with pytest.raises(NoInteriorMinimum):
            min_h(0.8)

    @pytest.mark.parametrize("kappa", (0.5, 1.5))
    @pytest.mark.parametrize("tol", (-1.0, 0.0, math.nan, math.inf))
    def test_invalid_tol_raises_for_every_kappa(self, kappa, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            min_h(kappa, tol=tol)

    def test_short_grid_raises_before_the_diagnosis(self):
        with pytest.raises(ValueError, match="grid_n"):
            min_h(0.8, grid_n=2)

    @pytest.mark.parametrize("kappa", (0.5, 1.5))
    @pytest.mark.parametrize("grid_n", (2, 3.5, "200", True))
    def test_invalid_grid_n_raises_for_every_kappa(self, kappa, grid_n):
        with pytest.raises(ValueError, match="int grid_n >= 3"):
            min_h(kappa, grid_n=grid_n)

    def test_restart_robustness(self):
        # tol must sit above the double-precision flatness floor near the
        # minimum (~sqrt(eps)) for the abscissa guarantee to be meaningful
        for kappa in (1.01, 1.5, 3.0):
            tol = 1e-6
            a = min_h(kappa, tol=tol, grid_n=200)
            b = min_h(kappa, tol=tol, grid_n=500)
            diff = abs(math.log(a.argmin) - math.log(b.argmin))
            assert diff <= 4.0 * tol * (abs(math.log(a.argmin)) + 1.0), kappa

    def test_result_invariants(self):
        result = min_h(2.0)
        lo, mid, hi = result.bracket
        assert lo < result.argmin < hi
        assert result.min_value == h(2.0, result.argmin)
        assert result.evaluations <= 200


class TestScan:
    def test_shape_and_monotone_alpha(self):
        rows = scan(1.5, 0.01, 100.0, 50)
        assert len(rows) == 50
        alphas = [a for a, _ in rows]
        assert alphas[0] == pytest.approx(0.01)
        assert alphas[-1] == 100.0
        assert all(u < v for u, v in zip(alphas, alphas[1:]))

    def test_kappa_below_one_decreasing_tail(self):
        # stop before h(0.8, .) underflows to exactly 0 (alpha ~ 3e4)
        rows = scan(0.8, 1.0, 1e4, 40)
        values = [v for _, v in rows]
        assert all(u > v for u, v in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_kappa_one_tends_to_half(self):
        rows = scan(1.0, 1.0, 1e6, 40)
        values = [v for _, v in rows]
        assert all(u > v for u, v in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.5, abs=1e-3)

    def test_kappa_four_interior_dip(self):
        rows = scan(4.0, 1e-3, 10.0, 200)
        values = [float(v) for _, v in rows]
        k = values.index(min(values))
        assert 0 < k < len(values) - 1
        assert rows[k][0] == pytest.approx(0.13917, rel=0.05)
        assert values[-1] > values[k]

    def test_validation(self):
        with pytest.raises(ValueError):
            scan(1.0, 10.0, 1.0, 5)
        with pytest.raises(ValueError):
            scan(1.0, 1.0, 10.0, 1)

    @pytest.mark.parametrize("alpha_lo, alpha_hi, name", [
        (1.0, math.inf, "alpha_hi"),
        (1.0, math.nan, "alpha_hi"),
        (-math.inf, 10.0, "alpha_lo"),
        (math.nan, 10.0, "alpha_lo"),
        (0.0, 10.0, "alpha_lo"),
    ])
    def test_non_finite_range_is_refused_by_name(self, alpha_lo, alpha_hi, name):
        # the log grid of an infinite range would hand h a nan shape
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            scan(1.5, alpha_lo, alpha_hi, 3)

    @pytest.mark.parametrize("n", (3.0, "3", True, 1, -5))
    def test_n_must_be_an_int_of_at_least_two(self, n):
        with pytest.raises(ValueError, match="int n >= 2"):
            scan(1.5, 1.0, 10.0, n)
