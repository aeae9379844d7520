"""Tests for the exact sign-certificate verification chains."""

import io
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_extremes import certificates as C
from gamma_extremes import cli, exact_poly
from gamma_extremes.exact_poly import (
    RationalPoly,
    sturm_roots_in_interval,
    verify_sign_on_interval,
)
from gamma_extremes.reference_data import V_MINUS_EVEN_COEFFS, V_PLUS_EVEN_COEFFS

# printed w-expansions of the cleared log-truncation numerators
F_PLUS_EXPECTED = 2 * RationalPoly(
    [0, -15, -135, -345, 190, 1735, 495, -3615, -716, 3615, 495, -1735, 190, 345, -135, 15]
)
H_PLUS_EXPECTED = RationalPoly(
    [0, -30, -255, -600, 410, 2900, 705, -5550, -1672, 5550, 705, -2900, 410, 600, -255, 30]
)
F_MINUS_EXPECTED = -2 * RationalPoly(
    [0, -3, 21, -33, -56, 130, 94, -130, -56, 33, 21, 3]
)
H_MINUS_EXPECTED = RationalPoly(
    [0, 6, -39, 54, 100, -200, -128, 200, 100, -54, -39, -6]
)

G_PLUS_EXPECTED = [
    -1140603, -17129046, -115786348, -468301840, -1267262160, -2427446688,
    -3393664576, -3517163008, -2715321600, -1554209280, -649507840,
    -192286720, -38154240, -4546560, -245760,
]
I_PLUS_EXPECTED = [
    -1083048, -16069911, -108024568, -435858040, -1178745360, -2259543408,
    -3165284416, -3291555328, -2553515520, -1471031040, -619724800,
    -185251840, -37171200, -4485120, -245760,
]
G_MINUS_EXPECTED = [
    128409, 2102668, 14459888, 56813056, 142035456, 236177408,
    264626176, 197525504, 94175232, 25952256, 3145728,
]
I_MINUS_EXPECTED = [
    175743, 2666962, 17644496, 67116160, 162604032, 262406144,
    286081024, 208437248, 97320960, 26345472, 3145728,
]


def _even_coeffs(report):
    return [int(c) for c in report.coefficients[::2]]


def _exp_trunc(x, order):
    return sum(x ** k / math.factorial(k) for k in range(order + 1))


def _direct_p_q(side, w):
    """Independent big-rational evaluation of the defining formulas."""
    alpha = (1 - w ** 2) ** 2 / (4 * w ** 2)
    sign = 1 if side == "plus" else -1
    tau = 4 * w ** 2 / ((1 - w ** 2) * (1 + sign * 2 * w - w ** 2))
    eta = tau / 2
    order = 5 if side == "plus" else 4
    log_trunc = lambda x: sum(Fraction((-1) ** (k + 1), k) * x ** k for k in range(1, order + 1))
    return -1 + alpha * log_trunc(tau), Fraction(-1, 2) + alpha * log_trunc(eta)


class TestBuildPQ:
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_matches_direct_formula(self, side):
        n_p, n_q, d = C.build_P_Q(side)
        for w in (Fraction(1, 10), Fraction(1, 7), Fraction(2, 9)):
            p_ref, q_ref = _direct_p_q(side, w)
            assert n_p.evaluate(w) / d.evaluate(w) == p_ref
            assert n_q.evaluate(w) / d.evaluate(w) == q_ref

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            C.build_P_Q("both")

    def test_cleared_numerators_match_printed_polynomials(self):
        n_p, n_q, _ = C.build_P_Q("plus")
        assert 15 * n_p == F_PLUS_EXPECTED
        assert 30 * n_q == H_PLUS_EXPECTED
        n_p, n_q, _ = C.build_P_Q("minus")
        assert 3 * n_p == F_MINUS_EXPECTED
        assert 6 * n_q == H_MINUS_EXPECTED


class TestChains:
    def test_plus_chain(self):
        g_rep, i_rep, v_rep = C.verify_chain_plus(full_compare=True)
        assert g_rep.sign_verdict == "all_negative"
        assert i_rep.sign_verdict == "all_negative"
        assert v_rep.sign_verdict == "all_positive"
        assert _even_coeffs(g_rep) == G_PLUS_EXPECTED
        assert _even_coeffs(i_rep) == I_PLUS_EXPECTED
        assert _even_coeffs(v_rep) == list(V_PLUS_EVEN_COEFFS)
        assert v_rep.degree == 124
        assert int(v_rep.coefficients[0]) == 23565171557938261664962395
        assert int(v_rep.coefficients[124]) == 116733302341443256320000
        assert "R+ < 0" in v_rep.detail

    def test_minus_chain(self):
        g_rep, i_rep, v_rep = C.verify_chain_minus(full_compare=True)
        assert g_rep.sign_verdict == "all_positive"
        assert i_rep.sign_verdict == "all_positive"
        assert v_rep.sign_verdict == "all_positive"
        assert _even_coeffs(g_rep) == G_MINUS_EXPECTED
        assert _even_coeffs(i_rep) == I_MINUS_EXPECTED
        assert _even_coeffs(v_rep) == list(V_MINUS_EVEN_COEFFS)
        assert int(v_rep.coefficients[0]) == 1058023271132626023
        assert int(v_rep.coefficients[68]) == 3984496719921263149056
        assert "R- > 0" in v_rep.detail

    def test_odd_coefficients_vanish(self):
        for report in (
            C.verify_small_alpha_certificate(),
            *C.verify_chain_plus(),
            *C.verify_chain_minus(),
        ):
            assert all(c == 0 for c in report.coefficients[1::2]), report.name

    def test_spot_checks_within_degree(self):
        printed = {
            "G+": G_PLUS_EXPECTED, "I+": I_PLUS_EXPECTED, "V+": V_PLUS_EVEN_COEFFS,
            "G-": G_MINUS_EXPECTED, "I-": I_MINUS_EXPECTED, "V-": V_MINUS_EVEN_COEFFS,
        }
        for report in (*C.verify_chain_plus(), *C.verify_chain_minus()):
            even = printed[report.name]
            assert report.degree == 2 * (len(even) - 1), report.name
            # constant, q^2 and top coefficient, each a printed value
            assert report.spot_checks == (0, 2, report.degree), report.name
            for index in report.spot_checks:
                assert report.coefficients[index] == even[index // 2] != 0, report.name

    def test_sign_verdict_recomputable(self):
        for report in (*C.verify_chain_plus(), *C.verify_chain_minus()):
            nonzero = [c for c in report.coefficients if c != 0]
            recomputed = "all_positive" if all(c > 0 for c in nonzero) else "all_negative"
            assert report.sign_verdict == recomputed


class TestTaylorShift:
    @given(
        nums=st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30), max_size=20),
        x=st.fractions(min_value=-5, max_value=5, max_denominator=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_evaluation_at_x_plus_one(self, nums, x):
        shifted = exact_poly._taylor_shift(nums)
        assert len(shifted) == len(nums)
        assert sum(c * x ** k for k, c in enumerate(shifted)) == sum(
            c * (x + 1) ** k for k, c in enumerate(nums)
        )

    def test_q_expansion_of_every_certificate_input(self, monkeypatch):
        """The seven real substitutions (G+-, I+-, V+- and the small-shape
        sextic) against direct Fraction substitution at deg + 1 distinct
        rational q: two polynomials of degree <= deg that agree there are
        equal."""
        calls = []
        expand = C._q_expansion

        def recorded(poly_w, factor_power, outer_constant, den_constant):
            result = expand(poly_w, factor_power, outer_constant, den_constant)
            calls.append((poly_w, factor_power, outer_constant, den_constant, result))
            return result

        monkeypatch.setattr(C, "_q_expansion", recorded)
        C.verify_all(full_compare=True)
        assert len(calls) == 7
        for poly_w, power, outer, den, result in calls:
            assert result.degree == 2 * power
            for k in range(result.degree + 1):
                q = Fraction(k, 3)
                u = 1 + q * q
                direct = outer * u ** power * poly_w.evaluate(1 / (den * u))
                assert result.evaluate(q) == direct, (power, k)

    @pytest.mark.parametrize("order", (12, 24))
    def test_case1_taylor_sum(self, order):
        """sum_(k <= order) (1-w)^k / k! at order + 1 distinct rational w."""
        taylor = C._exp_taylor_one_minus_w(order)
        assert taylor.degree == order
        for i in range(order + 1):
            w = Fraction(i, 7)
            assert taylor.evaluate(w) == sum(
                Fraction((1 - w) ** k, math.factorial(k)) for k in range(order + 1)
            )

    def test_verify_ring_product_budget(self, monkeypatch):
        """verify_all(full_compare=True) makes 78 ring products (5 of them
        reached as int * poly, 33 of them polynomial x polynomial), no power,
        and no polynomial division or Sturm chain. Before build_P_Q formed
        each term w^(2k-2) base^(order-k) from one running product of
        base = (1-w^2) quad, with the w power as a shift, it made 126
        products and 31 powers; before each side built D^1..D^exp_order once
        it made 139 products and 33 powers, before the substitutions were
        Taylor shifts 582 products and 40 powers, and before the sign proofs
        were interval images 20 divisions for 2 Sturm chains. The division
        count is taken at `_divide`, which both `divmod` and `%` run. A
        return to ring products or Sturm chains on the proof path fails here
        without a timing test."""
        counts = {"mul": 0, "pow": 0, "divide": 0, "sturm_sequence": 0}
        mul, pow_ = RationalPoly.__mul__, RationalPoly.__pow__
        divide, sturm_sequence = RationalPoly._divide, exact_poly.sturm_sequence

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counted_pow(self, n):
            counts["pow"] += 1
            return pow_(self, n)

        def counted_divide(self, divisor, with_quotient):
            counts["divide"] += 1
            return divide(self, divisor, with_quotient)

        def counted_sturm_sequence(p):
            counts["sturm_sequence"] += 1
            return sturm_sequence(p)

        monkeypatch.setattr(RationalPoly, "__mul__", counted_mul)
        monkeypatch.setattr(RationalPoly, "__rmul__", counted_mul)
        monkeypatch.setattr(RationalPoly, "__pow__", counted_pow)
        monkeypatch.setattr(RationalPoly, "_divide", counted_divide)
        monkeypatch.setattr(exact_poly, "sturm_sequence", counted_sturm_sequence)
        C.verify_all(full_compare=True)
        assert counts == {"mul": 78, "pow": 0, "divide": 0, "sturm_sequence": 0}


class TestSmallAlphaCertificate:
    def test_coefficients(self):
        report = C.verify_small_alpha_certificate()
        assert report.sign_verdict == "all_positive"
        assert _even_coeffs(report) == [240, 416, 152, 8, 92, 58, 3]

    def test_consistency_at_q_one(self):
        # (1+q^2)^6 I(1/(1+q^2)) at q=1 equals 2^6 I(1/2), exactly
        report = C.verify_small_alpha_certificate()
        expansion = RationalPoly(report.coefficients)
        assert expansion.evaluate(1) == 64 * C.SMALL_ALPHA_POLY.evaluate(Fraction(1, 2))


def _below_xi(b):
    """b < sqrt(3) - sqrt(2) for rational 0 < b < 1, in exact arithmetic:
    squaring b + sqrt(2) < sqrt(3) twice gives 8 b^2 < (1 - b^2)^2."""
    return 8 * b * b < (1 - b * b) ** 2


class TestCase2:
    def test_report(self):
        report = C.verify_case2_J()
        assert report.name == "case2J"
        assert report.sign_verdict == "mixed"
        assert report.spot_checks == (0,)
        assert report.coefficients == (-1, 1, 9, 38, -31, 9, -1)
        assert "has no sign variation" in report.detail

    def test_constant_term_is_checked(self, monkeypatch):
        # still positive on (1/4, 1/3) with the same value at 1/4, so only
        # the q^0 spot check can catch the changed constant term
        patched = C.CASE2_NUMERATOR + RationalPoly([-1, 4])
        assert verify_sign_on_interval(patched, Fraction(1, 4), Fraction(1, 3), "positive")
        assert patched.evaluate(Fraction(1, 4)) == C.CASE2_NUMERATOR.evaluate(Fraction(1, 4))
        monkeypatch.setattr(C, "CASE2_NUMERATOR", patched)
        with pytest.raises(C.CertificateMismatch) as info:
            C.verify_case2_J()
        assert (info.value.index, info.value.expected, info.value.actual) == (0, -1, -2)

    def test_numerator_negative_at_zero(self):
        assert C.CASE2_NUMERATOR.evaluate(0) == -1

    def test_enclosure_is_exact(self):
        lo, hi = C._xi_bounds()
        assert Fraction(3, 10) < lo < hi < Fraction(1, 3)  # (1/4, 1/3) encloses (1/4, xi)
        assert hi - lo <= Fraction(2, 2 ** 80)
        assert _below_xi(lo) and not _below_xi(hi)


class TestCase1:
    def test_bounds_and_samples(self):
        report = C.verify_case1_transcendental()
        assert report.derivative_bound == pytest.approx(1.746594, abs=1e-5)
        assert report.value_at_endpoint == pytest.approx(0.003095392, abs=1e-8)
        assert report.samples_checked == 1000
        # the rational enclosures round to the doubles of 50-digit mpmath
        with mpmath.workdps(50):
            xi = 1 / (mpmath.sqrt(2) + mpmath.sqrt(3))
            derivative = -mpmath.e ** (1 - xi) + 1 + 2 * (1 + xi ** 2) / (1 - xi ** 2) ** 2
            value = mpmath.e ** (1 - xi) + xi - 3 + 2 * xi / (1 - xi ** 2)
        assert report.derivative_bound == float(derivative) == 1.7465935058681832
        assert report.value_at_endpoint == float(value) == 0.003095391905735631

    def test_certificate_changes_sign_where_phi_does(self):
        # positive for no trivial reason: the same polynomial has a root
        # between 0.3, where phi < 0, and the left end of the proven interval
        certificate = C._case1_certificate()
        assert certificate.degree == 14
        xi_lo, _ = C._xi_bounds()
        assert certificate.evaluate(Fraction(3, 10)) < 0
        assert sturm_roots_in_interval(certificate, Fraction(3, 10), xi_lo) == 1
        hi = C._sqrt_bounds(2)[1] - 1
        assert sturm_roots_in_interval(certificate, xi_lo, hi) == 0

    def test_phi_positive_inside_interval(self):
        # interior points of [1/(sqrt(2)+sqrt(3)), 1/(1+sqrt(2))) ~ [0.3178, 0.4142)
        for w in (0.32, 0.35, 0.41):
            phi = math.exp(1.0 - w) + w - 3.0 + 2.0 * w / (1.0 - w * w)
            assert phi > 0.0, w

    def test_phi_negative_below_interval(self):
        # positivity is genuinely interval-local: just below the left endpoint
        w = 0.3
        phi = math.exp(1.0 - w) + w - 3.0 + 2.0 * w / (1.0 - w * w)
        assert phi < 0.0


class TestScaleFactors:
    def test_positive_on_their_intervals(self):
        one_minus_w2 = RationalPoly([1, 0, -1])
        plus_quad = RationalPoly([1, 2, -1])
        minus_quad = RationalPoly([1, -2, -1])
        assert verify_sign_on_interval(one_minus_w2, 0, Fraction(1, 2), "positive")
        assert verify_sign_on_interval(plus_quad, 0, Fraction(1, 2), "positive")
        assert verify_sign_on_interval(minus_quad, 0, Fraction(1, 4), "positive")
        # endpoint of the closed interval (0, 1/4]
        assert minus_quad.evaluate(Fraction(1, 4)) > 0


class TestDirectRSigns:
    def test_r_signs_match_exact_conclusions(self):
        # R+- = (1 +- 4w) expT(P) + 2 expT(Q) - 3 from the defining formulas,
        # in exact rationals; w in [0.05, 0.414] is alpha in (1, 100), and
        # w <= 1/4 is alpha >= (15/8)^2
        rng = random.Random(20240820)
        ws = [Fraction(rng.randint(50_000, 414_000), 1_000_000) for _ in range(20)]
        for w in ws + [Fraction(1, 4)]:
            p, q = _direct_p_q("plus", w)
            assert (1 + 4 * w) * _exp_trunc(p, 4) + 2 * _exp_trunc(q, 4) - 3 < 0, w
            if w <= Fraction(1, 4):
                p, q = _direct_p_q("minus", w)
                assert (1 - 4 * w) * _exp_trunc(p, 3) + 2 * _exp_trunc(q, 3) - 3 > 0, w


class TestReporting:
    def test_verify_all_and_formats(self):
        reports, case1 = C.verify_all()
        assert [r.name for r in reports] == [
            "smallalpha", "G+", "I+", "V+", "G-", "I-", "V-", "case2J",
        ]
        records = C.format_records(reports, case1).splitlines()
        assert "name=V+;verdict=all_positive;detail=degree 124; q^0=ok,q^2=ok,q^124=ok" in records
        assert "name=case2J;verdict=mixed;detail=degree 6; q^0=ok" in records
        assert records[-1] == (
            "name=case1;verdict=pass;detail=derivative=1.746594 value=0.003095392 samples=1000"
        )
        for line in records:
            assert line.startswith("name=") and ";verdict=" in line and ";detail=" in line

    def test_verify_all_subset(self):
        reports, case1 = C.verify_all(only={"smallalpha"})
        assert [r.name for r in reports] == ["smallalpha"]
        assert case1 is None

    def test_mismatch_carries_both_values(self):
        exc = C.CertificateMismatch("X", 2, Fraction(5), Fraction(7))
        assert exc.index == 2
        assert exc.expected == 5
        assert exc.actual == 7


def _replaced(record, **changes):
    values = dict(zip(record._fields, record._values()))
    values.update(changes)
    return type(record)(**values)


def _patch_step(monkeypatch, side, index, **changes):
    """Replace one chain step of C._SIDES[side] for the test's duration."""
    spec = C._SIDES[side]
    steps = list(spec.steps)
    steps[index] = _replaced(steps[index], **changes)
    monkeypatch.setitem(C._SIDES, side, _replaced(spec, steps=tuple(steps)))


class TestIntegerChecks:
    """The checker reads integer numerators; its misses carry exact values
    (the ones it raised when it compared reduced Fractions) and its reports
    carry integer coefficients."""

    def test_spot_mismatch(self, monkeypatch):
        _patch_step(monkeypatch, "plus", 0,
                    spots=((0, -1140603), (2, -17129045), (28, -245760)))
        with pytest.raises(C.CertificateMismatch) as info:
            C.verify_chain_plus()
        exc = info.value
        assert (exc.name, exc.index, exc.expected, exc.actual) == ("G+", 2, -17129045, -17129046)
        assert type(exc.actual) is Fraction
        assert str(exc) == "G+: coefficient of q^2 is -17129046, expected -17129045"

    def test_spot_beyond_degree_reads_zero(self, monkeypatch):
        spots = C._SIDES["minus"].steps[2].spots[:2] + ((70, 5),)
        _patch_step(monkeypatch, "minus", 2, spots=spots)
        with pytest.raises(C.CertificateMismatch) as info:
            C.verify_chain_minus()
        exc = info.value
        assert (exc.name, exc.index, exc.expected, exc.actual) == ("V-", 70, 5, 0)

    def test_full_compare_mismatch(self, monkeypatch):
        reference = list(V_PLUS_EVEN_COEFFS)
        reference[5] += 1
        _patch_step(monkeypatch, "plus", 2, reference=tuple(reference))
        assert C.verify_chain_plus()[2].name == "V+"  # spot checks alone still pass
        with pytest.raises(C.CertificateMismatch) as info:
            C.verify_chain_plus(full_compare=True)
        exc = info.value
        assert (exc.name, exc.index) == ("V+", 10)
        assert exc.expected == 401897536051918258546845673711321
        assert exc.actual == 401897536051918258546845673711320
        assert type(exc.expected) is type(exc.actual) is Fraction

    def test_full_compare_mismatch_prints_fail_record(self, monkeypatch):
        reference = list(V_MINUS_EVEN_COEFFS)
        reference[0] -= 1
        _patch_step(monkeypatch, "minus", 2, reference=tuple(reference))
        out = io.StringIO()
        assert cli.run(["verify", "--full-compare", "--only", "chain_minus"], out=out) == 1
        assert out.getvalue() == (
            "name=verify;verdict=fail;detail=V-: coefficient of q^0 is "
            "1058023271132626023, expected 1058023271132626022\n"
        )

    def test_sign_violation(self, monkeypatch):
        _patch_step(monkeypatch, "plus", 1, sign="all_positive")
        with pytest.raises(C.SignViolation, match="I\\+: sign verdict all_negative, expected all_positive"):
            C.verify_chain_plus()

    def test_coefficients_are_the_fraction_view(self, monkeypatch):
        expansions = []
        expand = C._q_expansion

        def recorded(*args):
            expansions.append(expand(*args))
            return expansions[-1]

        monkeypatch.setattr(C, "_q_expansion", recorded)
        reports, _ = C.verify_all(full_compare=True)
        polys = expansions + [C.CASE2_NUMERATOR]
        assert [r.name for r in reports] == [
            "smallalpha", "G+", "I+", "V+", "G-", "I-", "V-", "case2J",
        ]
        for report, poly in zip(reports, polys, strict=True):
            assert poly.den == 1, report.name
            assert len(report.coefficients) == len(poly.coeffs) == report.degree + 1
            for got, want in zip(report.coefficients, poly.coeffs):
                assert type(got) is int and got == want, report.name

    def test_non_integral_polynomial_reports_fractions(self):
        poly = RationalPoly([Fraction(1, 2), 0, 3])
        report = C._make_report("x", poly, "all_positive", [(0, Fraction(1, 2)), (2, 3)], "")
        assert report.coefficients == (Fraction(1, 2), 0, 3)
        assert all(type(c) is Fraction for c in report.coefficients)
        with pytest.raises(C.CertificateMismatch) as info:
            C._make_report("x", poly, "all_positive", [(0, Fraction(1, 3))], "")
        exc = info.value
        assert (exc.index, exc.expected, exc.actual) == (0, Fraction(1, 3), Fraction(1, 2))
        with pytest.raises(C.CertificateMismatch) as info:
            C._make_report("x", poly, "all_positive", [], "", full_compare_coeffs=(1, 3))
        assert (info.value.index, info.value.expected, info.value.actual) == (
            0, 1, Fraction(1, 2)
        )
