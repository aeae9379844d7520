"""Tests for exact rational polynomial arithmetic, the q-substitution of the
certificate chains, the interval image behind every sign proof, and Sturm
root counting, which serves as the sign proofs' independent oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_extremes.certificates import _q_expansion
from gamma_extremes.exact_poly import (
    EndpointRoot,
    RationalPoly,
    _horner,
    _interval_image,
    sturm_roots_in_interval,
    sturm_sequence,
    verify_sign_on_interval,
)


def bounded_fractions(lo, hi, max_denominator):
    """Fractions in [lo, hi] with denominators up to max_denominator, built
    as st.fractions(lo, hi, max_denominator=...) builds them: a denominator
    d in 1..max_denominator, a numerator n of the multiples of 1/(d s) in
    [lo, hi] (s the bounds' common scale), and n / (d s) cut back by
    limit_denominator. st.fractions draws n from a strategy it makes anew
    for each d (a flatmap, most of this file's time); here n is one draw
    over the range at max_denominator, mapped linearly onto d's range."""
    lo, hi = Fraction(lo), Fraction(hi)
    scale = lo.denominator * hi.denominator
    low, high = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    div = math.gcd(scale, low, high)
    low, high, scale = low // div, high // div, scale // div
    top_low, top_count = max_denominator * low, max_denominator * (high - low) + 1

    def build(d, m):
        n = d * low + (m - top_low) * (d * (high - low) + 1) // top_count
        return Fraction(n, d * scale).limit_denominator(max_denominator)

    return st.builds(build, st.integers(1, max_denominator),
                     st.integers(top_low, top_low + top_count - 1))


rationals = bounded_fractions(-50, 50, 20)
polys = st.lists(rationals, min_size=0, max_size=7).map(RationalPoly)


@pytest.mark.parametrize("lo, hi, max_denominator", (
    (-50, 50, 20), (-3, 3, 12), (Fraction(1, 12), 4, 12), (Fraction(1, 50), Fraction(49, 50), 50),
))
def test_bounded_fractions_keep_the_bounds_and_denominators(lo, hi, max_denominator):
    @given(value=bounded_fractions(lo, hi, max_denominator))
    @settings(max_examples=200, deadline=None)
    def check(value):
        assert lo <= value <= hi and value.denominator <= max_denominator

    check()


class TestRationalPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert RationalPoly([1, 2, 0, 0]) == RationalPoly([1, 2])
        assert RationalPoly([0, 0]).is_zero()
        assert RationalPoly([]).degree == -1

    def test_product_examples(self):
        one_plus = RationalPoly([1, 1])
        one_minus = RationalPoly([1, -1])
        assert one_plus * one_minus == RationalPoly([1, 0, -1])
        assert RationalPoly([1, 0, -1]) * RationalPoly([1, 2, -1]) == RationalPoly(
            [1, 2, -2, -2, 1]
        )

    def test_additive_identity(self):
        p = RationalPoly([3, Fraction(1, 2), -7])
        assert p + RationalPoly.zero() == p

    def test_pow_examples(self):
        q2 = RationalPoly([1, 0, 1])
        assert q2 ** 0 == RationalPoly.one()
        assert q2 ** 2 == RationalPoly([1, 0, 2, 0, 1])
        assert RationalPoly([1, 0, -1]) ** 3 == RationalPoly([1, 0, -3, 0, 3, 0, -1])

    def test_exact_division(self):
        p = RationalPoly([1, 0, -1])  # (1-w)(1+w)
        assert p.divmod(RationalPoly([1, 1])) == (RationalPoly([1, -1]), RationalPoly.zero())
        assert RationalPoly([1, 1, 1]) % RationalPoly([1, 1]) == RationalPoly.one()

    def test_shift_down(self):
        assert RationalPoly([0, 0, 2, 3]).shift_down(2) == RationalPoly([2, 3])
        with pytest.raises(ValueError):
            RationalPoly([1, 2]).shift_down(1)

    def test_evaluation_is_exact(self):
        p = RationalPoly([Fraction(1, 3), -2, Fraction(5, 7)])
        x = Fraction(9, 4)
        assert p.evaluate(x) == Fraction(1, 3) - 2 * x + Fraction(5, 7) * x * x


class TestRingAxioms:
    @given(a=polys, b=polys, c=polys)
    @settings(max_examples=150, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=polys, b=polys, c=polys)
    @settings(max_examples=150, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @given(a=polys, b=polys)
    @settings(max_examples=150, deadline=None)
    def test_commutativity_and_sub(self, a, b):
        assert a * b == b * a
        assert a + b == b + a
        assert (a - b) + b == a

    @given(a=polys, b=polys)
    @settings(max_examples=100, deadline=None)
    def test_divmod_roundtrip(self, a, b):
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


class TestSubstitution:
    """_q_expansion(p, m, c, d) = c (1+q^2)^m p(1/(d (1+q^2))), a polynomial in q."""

    def test_identity_example(self):
        w = RationalPoly([0, 1])
        assert _q_expansion(w, 1, 1, 1) == RationalPoly.one()

    def test_degree_six_reference_expansion(self):
        p = RationalPoly([3, 40, -153, 160, 145, 40, 5])
        expected = RationalPoly([240, 0, 416, 0, 152, 0, 8, 0, 92, 0, 58, 0, 3])
        assert _q_expansion(p, 6, 1, 1) == expected

    def test_half_substitution(self):
        p = RationalPoly([1, 0, -1])  # 1 - w^2 at w = 1/(2(1+q^2)), times (2(1+q^2))^2
        assert _q_expansion(p, 2, 4, 2) == RationalPoly([3, 0, 8, 0, 4])

    @given(
        p=polys,
        q0=bounded_fractions(-5, 5, 12),
        extra=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_commutes_with_evaluation(self, p, q0, extra):
        power = max(p.degree, 0) + extra
        result = _q_expansion(p, power, 5, 3)
        factor = 1 + q0 * q0
        direct = 5 * factor ** power * p.evaluate(1 / (3 * factor))
        assert result.evaluate(q0) == direct


class TestSturm:
    def test_examples(self):
        assert sturm_roots_in_interval(RationalPoly([-2, 0, 1]), 1, 2) == 1
        assert sturm_roots_in_interval(RationalPoly([1, 0, 1]), -10, 10) == 0

    def test_reference_sextic_has_no_roots(self):
        p = RationalPoly([-1, 1, 9, 38, -31, 9, -1])
        assert sturm_roots_in_interval(p, Fraction(1, 4), Fraction(1, 3)) == 0

    def test_constructed_linear_factors(self):
        # roots at 1/2, 3/2, 5/2 with multiplicity-free construction
        p = RationalPoly.one()
        for root in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
            p = p * RationalPoly([-root, 1])
        assert sturm_roots_in_interval(p, 0, 3) == 3
        assert sturm_roots_in_interval(p, 0, 1) == 1
        assert sturm_roots_in_interval(p, 1, 2) == 1
        assert sturm_roots_in_interval(p, 3, 4) == 0

    def test_endpoint_root_raises(self):
        with pytest.raises(EndpointRoot):
            sturm_roots_in_interval(RationalPoly([-1, 1]), 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            sturm_roots_in_interval(RationalPoly.zero(), 0, 1)
        with pytest.raises(ValueError):
            sturm_roots_in_interval(RationalPoly([1, 1]), 2, 1)


class TestVerifySign:
    def test_reference_sextic_positive(self):
        p = RationalPoly([-1, 1, 9, 38, -31, 9, -1])
        assert verify_sign_on_interval(p, Fraction(1, 4), Fraction(1, 3), "positive")

    def test_negative_example(self):
        assert not verify_sign_on_interval(RationalPoly([-1, 1]), 0, Fraction(1, 2), "positive")
        assert verify_sign_on_interval(RationalPoly([-1, 1]), 0, Fraction(1, 2), "negative")

    def test_degree_six_band_polynomial_positive(self):
        p = RationalPoly([3, 40, -153, 160, 145, 40, 5])
        assert verify_sign_on_interval(p, 0, 1, "positive")

    def test_sign_change_detected(self):
        p = RationalPoly([Fraction(-1, 4), 1])  # root at 1/4
        assert not verify_sign_on_interval(p, 0, 1, "positive")

    def test_invalid_expected(self):
        with pytest.raises(ValueError):
            verify_sign_on_interval(RationalPoly([1]), 0, 1, "nonnegative")


small_rationals = bounded_fractions(-3, 3, 12)
widths = bounded_fractions(Fraction(1, 12), 4, 12)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


class TestIntervalImage:
    @given(p=nonzero_polys, lo=small_rationals, width=widths,
           extra=st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_is_a_positive_multiple_of_the_moebius_substitution(self, p, lo, width, extra):
        """image(y) / ((1+y)^P p(lo + (hi-lo)/(1+y))) is one positive
        constant: both sides are polynomials of degree <= P in y, checked at
        P + 2 points y >= 0 (where the right side vanishes, so must the left)."""
        hi = lo + width
        power = p.degree + extra
        image = RationalPoly(_interval_image(p.nums, lo, hi, power))
        ratios = set()
        for k in range(power + 2):
            y = Fraction(k, 2)
            direct = (1 + y) ** power * p.evaluate(lo + width / (1 + y))
            if direct == 0:
                assert image.evaluate(y) == 0
            else:
                ratios.add(image.evaluate(y) / direct)
        assert len(ratios) == 1 and ratios.pop() > 0


class TestVerifySignSoundness:
    """The interval-image proof against the Sturm count as an oracle."""

    @given(q=nonzero_polys, lo=small_rationals, width=widths,
           t=bounded_fractions(Fraction(1, 50), Fraction(49, 50), 50))
    @settings(max_examples=40, deadline=None)
    def test_planted_root_is_never_proved(self, q, lo, width, t):
        hi = lo + width
        p = q * RationalPoly([-(lo + t * width), 1])  # root strictly inside (lo, hi)
        for expected in ("positive", "negative"):
            assert not verify_sign_on_interval(p, lo, hi, expected)

    @given(p=nonzero_polys, lo=small_rationals, width=widths)
    @settings(max_examples=40, deadline=None)
    def test_a_proof_agrees_with_sturm_and_the_endpoints(self, p, lo, width):
        hi = lo + width
        for expected, sign in (("positive", 1), ("negative", -1)):
            if verify_sign_on_interval(p, lo, hi, expected):
                assert sturm_roots_in_interval(p, lo, hi) == 0
                assert sign * p.evaluate(lo) > 0 and sign * p.evaluate(hi) > 0

    def test_endpoint_root_is_no_strict_sign(self):
        # x - 1 and x - 2 are positive, resp. negative, inside (1, 2) but
        # vanish at an end of the closed interval
        assert not verify_sign_on_interval(RationalPoly([-1, 1]), 1, 2, "positive")
        assert not verify_sign_on_interval(RationalPoly([-2, 1]), 1, 2, "negative")
        assert verify_sign_on_interval(RationalPoly([-1, 1]), Fraction(11, 10), 2, "positive")

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_sign_on_interval(RationalPoly.zero(), 0, 1, "positive")
        with pytest.raises(ValueError):
            verify_sign_on_interval(RationalPoly([1]), 1, 1, "positive")
        with pytest.raises(TypeError):
            verify_sign_on_interval(RationalPoly([1]), 0, 0.5, "positive")


# -- the integer-numerator representation against a schoolbook Fraction ring --

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _school_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def _school_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _school_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = _school_mul(out, a)
    return out


def _school_evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _school_divmod(a, b):
    b = _trim(b)
    rem = list(_trim(a))
    if len(rem) < len(b):
        return (), tuple(rem)
    q = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        factor = rem[k + len(b) - 1] / b[-1]
        q[k] = factor
        for j, c in enumerate(b):
            rem[k + j] -= factor * c
    return _trim(q), _trim(rem[: len(b) - 1])


def _fractions(values):
    return [Fraction(v) for v in values]


def _assert_canonical(p):
    assert isinstance(p.nums, tuple) and all(type(n) is int for n in p.nums)
    assert type(p.den) is int and p.den > 0
    if p.nums:
        assert p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1
    else:
        assert p.den == 1
    assert isinstance(p.coeffs, tuple)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == tuple(Fraction(n, p.den) for n in p.nums)


wide_rationals = st.one_of(
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80).map(Fraction),
    # st.fractions(max_denominator=10 ** 6) as it builds them, without its flatmap
    st.builds(lambda d, n: Fraction(n, d), st.integers(1, 10 ** 6), st.integers()),
    st.builds(
        Fraction,
        st.integers(min_value=-(2 ** 120), max_value=2 ** 120),
        st.integers(min_value=1, max_value=2 ** 90),
    ),
    st.sampled_from([Fraction(0), Fraction(1, 2 ** 200), Fraction(-(2 ** 200) + 1, 3)]),
)
coefficient_lists = st.lists(wide_rationals, min_size=0, max_size=12)


class TestAgainstSchoolbook:
    @given(a=coefficient_lists, b=coefficient_lists)
    @settings(max_examples=200, deadline=None)
    def test_mul_add_sub(self, a, b):
        p, q = RationalPoly(a), RationalPoly(b)
        assert (p * q).coeffs == _school_mul(a, b)
        assert (p + q).coeffs == _school_add(a, b)
        assert (p - q).coeffs == _school_add(a, [-c for c in b])
        assert (-p).coeffs == _trim(-c for c in a)
        for result in (p * q, p + q, p - q, -p):
            _assert_canonical(result)

    @given(a=coefficient_lists, scalar=wide_rationals)
    @settings(max_examples=100, deadline=None)
    def test_scalar_mul(self, a, scalar):
        p = RationalPoly(a)
        expected = _trim(c * scalar for c in a)
        assert (p * scalar).coeffs == expected
        assert (scalar * p).coeffs == expected
        _assert_canonical(p * scalar)

    @given(a=st.lists(wide_rationals, max_size=5), n=st.integers(min_value=0, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_pow(self, a, n):
        result = RationalPoly(a) ** n
        assert result.coeffs == _school_pow(a, n)
        _assert_canonical(result)

    @given(a=coefficient_lists, x=wide_rationals)
    @settings(max_examples=150, deadline=None)
    def test_evaluate(self, a, x):
        assert RationalPoly(a).evaluate(x) == _school_evaluate(a, x)

    @given(a=coefficient_lists, b=coefficient_lists)
    @settings(max_examples=150, deadline=None)
    def test_divmod(self, a, b):
        if not _trim(b):
            with pytest.raises(ZeroDivisionError):
                RationalPoly(a).divmod(RationalPoly(b))
            return
        q, r = RationalPoly(a).divmod(RationalPoly(b))
        assert (q.coeffs, r.coeffs) == _school_divmod(a, b)
        _assert_canonical(q)
        _assert_canonical(r)

    @given(a=coefficient_lists)
    @settings(max_examples=100, deadline=None)
    def test_derivative_and_shift(self, a):
        p = RationalPoly(a)
        assert p.derivative().coeffs == _trim(i * c for i, c in enumerate(a))[1:]
        shifted = (p * RationalPoly([0, 0, 1])).shift_down(2)
        assert shifted == p
        _assert_canonical(p.derivative())


wide_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(2 ** 128), max_value=2 ** 128),
    st.integers(min_value=1, max_value=2 ** 64),
)
# the length first, so long lists are drawn as often as short ones
wide_polys = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(wide_fractions, min_size=n, max_size=n)
).map(RationalPoly)


class TestKroneckerEdges:
    """Products at carry and sign edges: runs of all-ones numerators at word
    boundaries, alternating signs, zero gaps, huge parts and constants (the
    names come from the Kronecker-substitution product these cases were
    written for). `_school_mul` runs `__mul__`'s own convolution, so the
    evaluation identity below is the independent check."""

    @pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 200])
    def test_all_ones_at_slot_boundary(self, bits):
        m = 2 ** bits - 1
        for length in (1, 2, 3, 8):
            for signs in ((1,) * length, tuple((-1) ** i for i in range(length))):
                a = _fractions(s * m for s in signs)
                b = _fractions(-s * m for s in reversed(signs))
                for left, right in ((a, a), (a, b), (b, a[:1])):
                    assert (RationalPoly(left) * RationalPoly(right)).coeffs == _school_mul(left, right)

    def test_alternating_signs(self):
        a = _fractions((-1) ** i * (i + 1) ** 9 for i in range(20))
        b = _fractions((-1) ** (i + 1) * 255 for i in range(13))
        assert (RationalPoly(a) * RationalPoly(b)).coeffs == _school_mul(a, b)
        assert (RationalPoly(a) ** 3).coeffs == _school_pow(a, 3)

    def test_borrow_through_zero_slots(self):
        # -1 + x^3: zero coefficients between terms of opposite sign
        a = _fractions([-1, 0, 0, 1])
        assert (RationalPoly(a) * RationalPoly([1])).coeffs == tuple(a)
        b = _fractions([1, -1, 0, 0, -1])
        assert (RationalPoly(a) * RationalPoly(b)).coeffs == _school_mul(a, b)

    def test_huge_numerators_and_denominators(self):
        tiny = Fraction(1, 2 ** 200)
        a = [tiny, Fraction(-(3 ** 150), 7), Fraction(2 ** 300 - 1), tiny]
        b = [Fraction(5, 2 ** 199), Fraction(0), Fraction(-1, 3 ** 90)]
        assert (RationalPoly(a) * RationalPoly(b)).coeffs == _school_mul(a, b)
        assert (RationalPoly(a) ** 2).coeffs == _school_mul(a, a)
        assert RationalPoly(a).evaluate(tiny) == _school_evaluate(a, tiny)
        _assert_canonical(RationalPoly(a) * RationalPoly(b))

    @given(p=wide_polys, q=wide_polys, seed=st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_product_evaluates_to_product_of_values(self, p, q, seed):
        # up to 40 x 40 terms, past the package's largest product (33 x 33)
        rng = random.Random(seed)
        product = p * q
        assert product == q * p
        _assert_canonical(product)
        for _ in range(3):
            r = Fraction(rng.randint(-(2 ** 40), 2 ** 40), rng.randint(1, 2 ** 40))
            assert product.evaluate(r) == p.evaluate(r) * q.evaluate(r)

    def test_constants_and_zero(self):
        zero, three = RationalPoly.zero(), RationalPoly([3])
        p = RationalPoly([Fraction(1, 3), -2, 5])
        assert (zero * p).is_zero() and (p * zero).is_zero()
        assert (zero * zero).is_zero() and (zero ** 3).is_zero()
        assert zero ** 0 == RationalPoly.one()
        assert (three * p).coeffs == (1, -6, 15)
        assert (three * three).coeffs == (9,)
        assert (p - p).is_zero()
        assert zero.evaluate(Fraction(7, 3)) == 0
        assert zero.degree == -1 and zero.coeffs == ()
        for q in (zero, zero * p, p - p, zero ** 2):
            _assert_canonical(q)


class TestCanonicalForm:
    def test_equal_by_different_routes_compare_and_hash_equal(self):
        x_plus_half = RationalPoly([Fraction(1, 2), 1])
        routes = [
            x_plus_half * x_plus_half,
            x_plus_half ** 2,
            RationalPoly([Fraction(1, 4), 1, 1]),
            RationalPoly([Fraction(2, 8), Fraction(3, 3), 1, 0, 0]),
            RationalPoly([1, 4, 4]) * Fraction(1, 4),
            (RationalPoly([3, 12, 12]) * Fraction(1, 12)),
            RationalPoly([0, 0, Fraction(1, 4), 1, 1]).shift_down(2),
            RationalPoly([Fraction(1, 4), 1, 1]) + RationalPoly([Fraction(1, 6), Fraction(-1, 3)])
            - RationalPoly([Fraction(1, 6), Fraction(-1, 3)]),
            RationalPoly([0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)]).derivative(),
            (RationalPoly([1, 4, 4]) * RationalPoly([1, 1])).divmod(RationalPoly([4, 4]))[0],
        ]
        for p in routes:
            assert p == routes[0]
            assert hash(p) == hash(routes[0])
            assert (p.nums, p.den) == ((1, 4, 4), 4)
            _assert_canonical(p)
        assert len(set(routes)) == 1

    def test_constant_equals_scalar(self):
        assert RationalPoly([Fraction(6, 4)]) == Fraction(3, 2)
        assert RationalPoly([4]) * Fraction(1, 2) == 2
        assert RationalPoly.zero() == 0

    def test_coeffs_are_reduced_fractions_without_trailing_zeros(self):
        p = RationalPoly([Fraction(2, 4), 6, Fraction(-9, 6), 0, 0])
        assert p.coeffs == (Fraction(1, 2), Fraction(6), Fraction(-3, 2))
        assert all(type(c) is Fraction for c in p.coeffs)
        assert [(c.numerator, c.denominator) for c in p.coeffs] == [(1, 2), (6, 1), (-3, 2)]
        assert p.coeffs is p.coeffs
        _assert_canonical(p)

    def test_float_coefficient_raises_type_error(self):
        with pytest.raises(TypeError):
            RationalPoly([1, 0.5])
        with pytest.raises(TypeError):
            RationalPoly([1.0])
        with pytest.raises(TypeError):
            RationalPoly([1]).evaluate(0.5)


def _chain_by_divmod(p):
    """The Sturm chain spelled out by full division, quotients kept."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-(seq[-2].divmod(seq[-1])[1]))
    seq.pop()
    return seq


root_lists = st.lists(
    st.tuples(
        bounded_fractions(-4, 4, 9),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1, max_size=4,
)
leads = bounded_fractions(-9, 9, 7).filter(
    lambda c: c != 0
)


def _planted(lead, roots):
    """lead * prod (x - r)^m over the (r, m) pairs."""
    p = RationalPoly([lead])
    for root, multiplicity in roots:
        p = p * RationalPoly([-root, 1]) ** multiplicity
    return p


class TestSturmChainAndSigns:
    """The remainder-only chain and the integer signs against the plain
    definitions: quotients kept, values as reduced Fractions."""

    @given(lead=leads, roots=root_lists, extra=polys)
    @settings(max_examples=80, deadline=None)
    def test_chain_equals_the_divmod_chain(self, lead, roots, extra):
        p = _planted(lead, roots)
        if not extra.is_zero():
            p = p * extra
        assert sturm_sequence(p) == _chain_by_divmod(p)

    @given(lead=leads, roots=root_lists,
           lo=bounded_fractions(-5, 5, 11),
           width=widths)
    @settings(max_examples=80, deadline=None)
    def test_count_is_the_distinct_planted_roots_inside(self, lead, roots, lo, width):
        hi = lo + width
        p = _planted(lead, roots)
        distinct = {root for root, _ in roots}
        if lo in distinct or hi in distinct:
            with pytest.raises(EndpointRoot):
                sturm_roots_in_interval(p, lo, hi)
        else:
            assert sturm_roots_in_interval(p, lo, hi) == sum(lo < r < hi for r in distinct)

    @given(a=coefficient_lists, b=coefficient_lists)
    @settings(max_examples=100, deadline=None)
    def test_mod_is_the_divmod_remainder(self, a, b):
        p, q = RationalPoly(a), RationalPoly(b)
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                p % q
            return
        r = p % q
        assert r == p.divmod(q)[1]
        _assert_canonical(r)

    @given(a=coefficient_lists, x=wide_rationals)
    @settings(max_examples=150, deadline=None)
    def test_integer_sign_is_the_sign_of_the_value(self, a, x):
        p = RationalPoly(a)
        if p.is_zero():
            return
        acc, d_power = _horner(p.nums, x.numerator, x.denominator)
        value = p.evaluate(x)
        assert (acc > 0) - (acc < 0) == (value > 0) - (value < 0)
        assert Fraction(acc, p.den * d_power) == value

    def test_integer_sign_examples(self):
        p = RationalPoly([-2, 3])  # 3x - 2, root 2/3
        for x, sign in ((Fraction(2, 3), 0), (Fraction(-5, 7), -1), (Fraction(7, 9), 1),
                        (Fraction(0), -1), (Fraction(-3), -1), (Fraction(1, 2), -1)):
            acc = _horner(p.nums, x.numerator, x.denominator)[0]
            assert (acc > 0) - (acc < 0) == sign
        # even degree: (x - 2/3)^2 (x + 1/2) is zero at both roots
        q = _planted(Fraction(5, 4), [(Fraction(2, 3), 2), (Fraction(-1, 2), 1)])
        assert _horner(q.nums, 2, 3)[0] == 0 and _horner(q.nums, -1, 2)[0] == 0
        assert _horner(q.nums, -2, 3)[0] < 0 < _horner(q.nums, 1, 7)[0]

    def test_endpoint_root_at_a_fraction(self):
        p = _planted(3, [(Fraction(2, 3), 1), (Fraction(5, 2), 1), (Fraction(-7, 3), 1)])
        with pytest.raises(EndpointRoot):
            sturm_roots_in_interval(p, Fraction(2, 3), 1)
        with pytest.raises(EndpointRoot):
            sturm_roots_in_interval(p, Fraction(-1, 5), Fraction(2, 3))
        assert sturm_roots_in_interval(p, Fraction(-3), Fraction(2, 3) + Fraction(1, 10**9)) == 2

    def test_count_builds_no_quotient_and_no_fraction_value(self, monkeypatch):
        """A Sturm count on a degree-6 polynomial runs one remainder-only
        division per chain step and reads every sign from `_horner`: it
        calls neither `divmod` nor `evaluate`. Kept quotients or Fraction
        values coming back fail here without a timing test."""
        counts = {"divmod": 0, "evaluate": 0, "with_quotient": 0, "remainder_only": 0}
        divmod_, evaluate, divide = RationalPoly.divmod, RationalPoly.evaluate, RationalPoly._divide

        def counted_divmod(self, divisor):
            counts["divmod"] += 1
            return divmod_(self, divisor)

        def counted_evaluate(self, x):
            counts["evaluate"] += 1
            return evaluate(self, x)

        def counted_divide(self, divisor, with_quotient):
            counts["with_quotient" if with_quotient else "remainder_only"] += 1
            return divide(self, divisor, with_quotient)

        monkeypatch.setattr(RationalPoly, "divmod", counted_divmod)
        monkeypatch.setattr(RationalPoly, "evaluate", counted_evaluate)
        monkeypatch.setattr(RationalPoly, "_divide", counted_divide)
        roots = [Fraction(n, d) for n, d in ((-41, 2), (-47, 3), (43, 5), (50, 7), (53, 3), (59, 2))]
        p = _planted(Fraction(-7), [(r, 1) for r in roots])
        assert p.degree == 6
        assert sturm_roots_in_interval(p, Fraction(-16), Fraction(18)) == 4
        # six distinct roots: a chain of 7, and a 6th remainder that is zero
        assert counts == {"divmod": 0, "evaluate": 0, "with_quotient": 0, "remainder_only": 6}


class TestBoolIsNoInt:
    """True == 1 in Python, but no entry point takes a bool for a number."""

    def test_constructor(self):
        with pytest.raises(TypeError, match="bool"):
            RationalPoly([True, 2])

    def test_power(self):
        with pytest.raises(ValueError, match="True"):
            RationalPoly([1, 1]) ** True
        with pytest.raises(ValueError, match="False"):
            RationalPoly([1, 1]) ** False

    def test_evaluate(self):
        with pytest.raises(TypeError, match="bool"):
            RationalPoly([1, 1]).evaluate(True)

    def test_sturm_endpoints(self):
        p = RationalPoly([-2, 0, 1])
        with pytest.raises(TypeError, match="bool"):
            sturm_roots_in_interval(p, False, 2)
        with pytest.raises(TypeError, match="bool"):
            sturm_roots_in_interval(p, -2, True)

    def test_sign_proof_endpoints(self):
        with pytest.raises(TypeError, match="bool"):
            verify_sign_on_interval(RationalPoly([1]), False, 1, "positive")

    def test_arithmetic_and_comparison(self):
        p = RationalPoly([1, 1])
        for operation in (lambda: p + True, lambda: True + p, lambda: p - False,
                          lambda: True - p, lambda: p * True, lambda: False * p):
            with pytest.raises(TypeError):
                operation()
        assert RationalPoly.one() != True  # noqa: E712 - the comparison under test
        assert RationalPoly.one() == 1
