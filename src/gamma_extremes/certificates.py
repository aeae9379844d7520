"""Exact verification of the sign certificates behind the band-probability
monotonicity proof.

Every certificate is rebuilt from its defining formulas (the Taylor-
truncated log terms, the w-parametrized shape variable, the clearing
factors and the final rational substitution in q), never transcribed from
the printed expansions. The printed values enter only as spot-check
expectations: constant term, q^2 term, and top term by default, the full
coefficient lists behind the full_compare flag. Whatever differs between
the plus and minus chains G -> I -> V sits in one per-side table, `_SIDES`,
and one loop builds and checks the three steps of either side. Every
report, case 2's included, is built by `_make_report`, which raises on a
missed spot check or sign verdict, so a report that exists has passed all
of its checks and records only the indices it compared. The checks read
the polynomial's integer numerators, with no Fraction formed unless a check
fails, and since every certificate is integral a report carries its
coefficients as ints. Reports carry no clock readings; a caller that wants
them measures the `verify_*` call.

Every sign proof is one integer interval map, `exact_poly._interval_image`;
none reads a Sturm chain or a float. w = 1/(s(1+q^2)) is that map on
[0, 1/s] in y = q^2, and cases 2 and 1 call it on their rational intervals
through `verify_sign_on_interval`. The Taylor sum of e^(1-w) is the integer
polynomial sum_k (N!/k!) x^k shifted by one (`_taylor_shift`), at x = -w.

The one transcendental step, case 1 of the sharp lower bound, is proved on
the same ring: a Taylor sum bounds the exponential from below, which turns
it into a polynomial sign certificate, and the square roots at its ends
enter as rational enclosures from `math.isqrt`.
"""

import math
from fractions import Fraction

from .exact_poly import (
    RationalPoly, _interval_image, _scale, _taylor_shift, verify_sign_on_interval,
)
from .reference_data import V_MINUS_EVEN_COEFFS, V_PLUS_EVEN_COEFFS
from .specfun import _Record

__all__ = [
    "CertificateReport",
    "Case1Report",
    "CertificateMismatch",
    "SignViolation",
    "NumericMismatch",
    "build_P_Q",
    "verify_chain_plus",
    "verify_chain_minus",
    "verify_small_alpha_certificate",
    "verify_case2_J",
    "verify_case1_transcendental",
    "verify_all",
    "format_records",
]

_W = RationalPoly([0, 1])
_ONE_MINUS_W2 = RationalPoly([1, 0, -1])


class _Step(_Record):
    """One certificate of a chain: outer (1+q^2)^power scale N / w^w_power at
    w = 1/(sub_den (1+q^2)), N the side's cleared P, Q or R numerator, checked
    against printed (index, coefficient) spots and, under full_compare, the
    printed even coefficients in reference."""

    _fields = __slots__ = (
        "name", "scale", "w_power", "power", "outer", "sign", "spots", "detail", "reference"
    )
    _defaults = (None,)


class _Side(_Record):
    """Everything that differs between the plus and minus chains: quad, the
    1 +- 2w - w^2 in tau's denominator; the log and exp truncation orders;
    linear, the 1 +- 4w of R; sub_den, with w = 1/(sub_den (1+q^2)); and
    steps, G, I, V over the P, Q and R numerators."""

    _fields = __slots__ = ("quad", "log_order", "exp_order", "linear", "sub_den", "steps")


_G_PLUS_DETAIL = "all coefficients negative, so the order-5 log truncation exponent is negative"
_G_MINUS_DETAIL = "all coefficients positive, so the order-4 log truncation exponent is positive"

# G = outer (1+q^2)^power F/(2w) with F = 15 D P (plus) or 3 D P (minus);
# I = outer (1+q^2)^power H/w with H = 30 D Q or 6 D Q; V = outer
# (1+q^2)^power L with L = scale R numerator / w^3, because the clearing
# factor (1-w^2)^a quad^b of L equals D^exp_order exactly
_SIDES = {
    "plus": _Side(
        RationalPoly([1, 2, -1]), 5, 4, RationalPoly([1, 4]), 2, (
            _Step("G+", Fraction(15, 2), 1, 14, 16384, "all_negative",
                  ((0, -1140603), (2, -17129046), (28, -245760)), _G_PLUS_DETAIL),
            _Step("I+", 30, 1, 14, 8192, "all_negative",
                  ((0, -1083048), (2, -16069911), (28, -245760)), _G_PLUS_DETAIL),
            _Step("V+", 9720000, 3, 62, -(2 ** 54), "all_positive", (
                (0, 23565171557938261664962395),
                (2, 1985238765536369188253388462),
                (124, 116733302341443256320000),
            ), (
                "V+ all_positive forces R+ < 0 on 0 < w < 1/2: "
                "V+ = -(2^54) (1+q^2)^62 L+ with (1+q^2)^62 > 0, so L+ < 0; "
                "L+ = 9720000 (1-w^2)^12 (1+2w-w^2)^20 w^-3 R+ with a strictly "
                "positive scale there, so R+ < 0."
            ), V_PLUS_EVEN_COEFFS),
        ),
    ),
    "minus": _Side(
        RationalPoly([1, -2, -1]), 4, 3, RationalPoly([1, -4]), 4, (
            _Step("G-", Fraction(3, 2), 1, 10, 1048576, "all_positive",
                  ((0, 128409), (2, 2102668), (20, 3145728)), _G_MINUS_DETAIL),
            _Step("I-", 6, 1, 10, 524288, "all_positive",
                  ((0, 175743), (2, 2666962), (20, 3145728)), _G_MINUS_DETAIL),
            _Step("V-", -648, 3, 34, -(2 ** 63), "all_positive", (
                (0, 1058023271132626023),
                (2, 51541890229923566472),
                (68, 3984496719921263149056),
            ), (
                "V- all_positive forces R- > 0 on 0 < w <= 1/4: "
                "V- = -(2^63) (1+q^2)^34 L- with (1+q^2)^34 > 0, so L- < 0; "
                "L- = -648 (1-w^2)^6 (1-2w-w^2)^12 w^-3 R- with a strictly "
                "negative total scale there, so R- > 0. "
                "Assumes the tau^3 term of the minus-side exponent is in tau_minus."
            ), V_MINUS_EVEN_COEFFS),
        ),
    ),
}


class CertificateMismatch(Exception):
    """A recomputed coefficient disagrees with its printed expectation."""

    def __init__(self, name, index, expected, actual):
        self.name = name
        self.index = index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"{name}: coefficient of q^{index} is {actual}, expected {expected}"
        )


class SignViolation(Exception):
    """A certificate's coefficients do not all share the claimed sign."""


class NumericMismatch(Exception):
    """A high-precision numeric check missed its published value."""


class CertificateReport(_Record):
    # spot_checks holds the compared coefficient indices
    _fields = __slots__ = (
        "name", "degree", "coefficients", "sign_verdict", "spot_checks", "detail"
    )


class Case1Report(_Record):
    _fields = __slots__ = ("derivative_bound", "value_at_endpoint", "samples_checked")


def build_P_Q(side):
    """The two truncated log-exponents P and Q as polynomial numerators
    (N_P, N_Q) over one polynomial denominator D, all in w.

    P = -1 + alpha * [tau - tau^2/2 + ...], Q = -1/2 + alpha * [same in
    tau/2]; truncation order 5 on the plus side and 4 on the minus side.
    With alpha = (1-w^2)^2/(4w^2) and tau = 4w^2/((1-w^2)*quad), each term
    alpha * tau^k / k collapses to 4^(k-1) w^(2k-2) (1-w^2)^(2-k) / (k quad^k),
    so D = (1-w^2)^(order-2) quad^order clears the whole truncated log sum
    and the entire chain stays inside the polynomial ring. Term k of the
    cleared sum is w^(2k-2) base^(order-k), base = (1-w^2) quad, from one
    running product of base, and D is base^(order-2) quad^2.
    The minus-side tau^3 term is taken in tau_minus (the tau_plus appearing
    at that spot in one displayed equation is treated as a typo,
    consistently with the explicit minus-side definitions).
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    quad, order = _SIDES[side].quad, _SIDES[side].log_order
    base = _ONE_MINUS_W2 * quad
    powers = [RationalPoly.one(), base]  # powers[j] = base^j, j = 0..order-1
    while len(powers) < order:
        powers.append(powers[-1] * base)
    d = powers[order - 2] * quad * quad
    n_p = -d
    n_q = d * Fraction(-1, 2)
    for k in range(1, order + 1):
        # w^(2k-2) base^(order-k), the w power as a shift of the numerators
        power = powers[order - k]
        shared = RationalPoly._from_parts((0,) * (2 * k - 2) + power.nums, power.den)
        coeff = Fraction((-1) ** (k + 1) * 4 ** (k - 1), k)
        n_p = n_p + shared * coeff
        n_q = n_q + shared * (coeff / 2 ** k)
    return n_p, n_q, d


def _exp_taylor_cleared(numer, denom_powers):
    """Numerator of 1 + x + ... + x^order/order! over denom^order, x=numer/denom,
    from denom_powers[k] = denom^k, k = 0..order.

    Horner form: acc_k = acc_(k+1) numer + denom^(order-k) / k!, from
    acc_order = 1/order! down to acc_0.
    """
    order = len(denom_powers) - 1
    acc = RationalPoly([Fraction(1, math.factorial(order))])
    for k in range(order - 1, -1, -1):
        acc = acc * numer + denom_powers[order - k] * Fraction(1, math.factorial(k))
    return acc


def _r_numerator(spec, n_p, n_q, d):
    """Numerator of the exp-truncated combination over D^exp_order.

    R = (1 +- 4w) expT(P) + 2 expT(Q) - 3 with exp truncation order 4 on
    the plus side and 3 on the minus side; R vanishes to third order at
    w = 0, so the numerator is divisible by w^3. spec is the side's
    `_SIDES` entry and (n_p, n_q, d) its `build_P_Q`. D^1..D^exp_order
    are built once, for both Taylor sums and the last term.
    """
    d_powers = [RationalPoly.one(), d]
    while len(d_powers) <= spec.exp_order:
        d_powers.append(d_powers[-1] * d)
    return (
        spec.linear * _exp_taylor_cleared(n_p, d_powers)
        + 2 * _exp_taylor_cleared(n_q, d_powers)
        - 3 * d_powers[-1]
    )


def _q_expansion(poly_w, factor_power, outer_constant, den_constant):
    """outer_constant (1+q^2)^factor_power * poly_w at w = 1/(den_constant (1+q^2)).

    Requires factor_power >= deg(poly_w) = n, so the substituted denominator
    (den_constant (1+q^2))^n cancels into the prefactor exactly. It is
    outer_constant / s^n times the interval image of poly_w on [0, 1/s] in
    y = q^2, s = den_constant; zeros between its terms make it a polynomial in q.
    """
    n = max(poly_w.degree, 0)  # the zero polynomial expands to zero
    if factor_power < n:
        raise ValueError(f"(1+q^2) power {factor_power} below degree {n}")
    in_y = _interval_image(poly_w.nums, 0, Fraction(1, den_constant), factor_power)
    in_q = [0] * (2 * len(in_y) - 1)
    in_q[::2] = [c * outer_constant for c in in_y]
    return RationalPoly._from_parts(in_q, poly_w.den * den_constant ** n)


def _sign_verdict(nums):
    signs = {n > 0 for n in nums if n}
    if signs == {True}:
        return "all_positive"
    if signs == {False}:
        return "all_negative"
    return "mixed"


def _make_report(name, poly, expected_verdict, expected_spots, detail,
                 full_compare_coeffs=None):
    """The report of poly, once every check has passed.

    The checks read the integer numerators: a printed value c is compared
    as c * den with the numerator at its index, the sign verdict comes from
    the numerators' signs (den > 0), and Fractions are built only for the
    CertificateMismatch that a miss raises. A report carries its
    coefficients as the integers they are (den == 1, as for every
    certificate here), else as the Fraction view.
    """
    nums, den = poly.nums, poly.den
    verdict = _sign_verdict(nums)
    for index, expected in expected_spots:
        actual = nums[index] if index < len(nums) else 0
        if actual != expected * den:
            raise CertificateMismatch(name, index, expected, Fraction(actual, den))
    if full_compare_coeffs is not None:
        expected_full = [0] * len(nums)
        for i, c in enumerate(full_compare_coeffs):
            expected_full[2 * i] = c
        for index, (got, want) in enumerate(zip(nums, expected_full)):
            if got != want * den:
                raise CertificateMismatch(name, index, Fraction(want), Fraction(got, den))
    if verdict != expected_verdict:
        raise SignViolation(f"{name}: sign verdict {verdict}, expected {expected_verdict}")
    return CertificateReport(
        name, poly.degree, nums if den == 1 else poly.coeffs, verdict,
        tuple(index for index, _ in expected_spots), detail,
    )


def _verify_chain(side, full_compare):
    n_p, n_q, d = build_P_Q(side)
    spec = _SIDES[side]
    numerators = (n_p, n_q, _r_numerator(spec, n_p, n_q, d))
    reports = []
    for step, numerator in zip(spec.steps, numerators):
        core = (numerator * step.scale).shift_down(step.w_power)
        poly = _q_expansion(core, step.power, step.outer, spec.sub_den)
        reports.append(_make_report(
            step.name, poly, step.sign, step.spots, step.detail,
            full_compare_coeffs=step.reference if full_compare else None,
        ))
    return reports


def verify_chain_plus(full_compare=False):
    """Rebuild and check G+, I+ and V+ against their printed expansions."""
    return _verify_chain("plus", full_compare)


def verify_chain_minus(full_compare=False):
    """Rebuild and check G-, I- and V- against their printed expansions."""
    return _verify_chain("minus", full_compare)


# the degree-6 small-shape certificate and its printed q-expansion
SMALL_ALPHA_POLY = RationalPoly([3, 40, -153, 160, 145, 40, 5])
_SMALL_ALPHA_EXPECTED = [240, 416, 152, 8, 92, 58, 3]


def verify_small_alpha_certificate():
    """(1+q^2)^6 * I under w = 1/(1+q^2): all seven even coefficients."""
    poly = _q_expansion(SMALL_ALPHA_POLY, 6, 1, 1)
    spots = [(2 * i, c) for i, c in enumerate(_SMALL_ALPHA_EXPECTED)]
    return _make_report(
        "smallalpha", poly, "all_positive", spots,
        "positivity of the degree-6 band comparison polynomial on 0 < w < 1",
    )


# numerator of the degree-6 comparison quantity J = numerator / (24 w)
CASE2_NUMERATOR = RationalPoly([-1, 1, 9, 38, -31, 9, -1])
_CASE2_VALUE_BOUND = Fraction(1723633, 10 ** 7)

_ENCLOSURE_BITS = 80


def _sqrt_bounds(n):
    """Rationals lo < sqrt(n) < hi, 2^-80 apart, for a non-square integer n."""
    root = math.isqrt(n << (2 * _ENCLOSURE_BITS))
    return Fraction(root, 1 << _ENCLOSURE_BITS), Fraction(root + 1, 1 << _ENCLOSURE_BITS)


def _xi_bounds():
    """Rationals lo < xi < hi around xi = sqrt(3) - sqrt(2) = 1/(sqrt(2) + sqrt(3)),
    where case 2 ends and case 1 begins."""
    sqrt2_lo, sqrt2_hi = _sqrt_bounds(2)
    sqrt3_lo, sqrt3_hi = _sqrt_bounds(3)
    return sqrt3_lo - sqrt2_hi, sqrt3_hi - sqrt2_lo


def verify_case2_J():
    """Positivity of the J numerator on the rational superinterval [1/4, 1/3],
    proved by its interval image, and its exact value at w = 1/4 against the
    published bound."""
    lo, hi = Fraction(1, 4), Fraction(1, 3)
    if not _xi_bounds()[1] < hi:
        raise SignViolation("rational superinterval does not enclose sqrt(3)-sqrt(2)")
    if not verify_sign_on_interval(CASE2_NUMERATOR, lo, hi, "positive"):
        raise SignViolation("J numerator is not positive on [1/4, 1/3]")
    at_quarter = CASE2_NUMERATOR.evaluate(lo)
    if at_quarter < _CASE2_VALUE_BOUND:
        raise NumericMismatch(
            f"J numerator at w=1/4 is {at_quarter}, below {_CASE2_VALUE_BOUND}"
        )
    return _make_report(
        "case2J", CASE2_NUMERATOR, "mixed", [(0, -1)],
        "interval image on [1/4, 1/3], which encloses (1/4, sqrt(3)-sqrt(2)), "
        f"has no sign variation; value at w=1/4 is {at_quarter} >= {_CASE2_VALUE_BOUND}",
    )


_CASE1_DERIVATIVE_BOUND = 1.746594
_CASE1_VALUE_BOUND = 0.003095392
_CASE1_SAMPLES = 1000


def _exp_taylor_one_minus_w(order):
    """sum_(k <= order) (1-w)^k / k!, the order-`order` Taylor sum of e^(1-w),
    as a polynomial in w.

    order! times it is p(1 - w) for the integer polynomial p(x) = sum_k
    (order!/k!) x^k: one Taylor shift gives p(1 + y), and scaling by -1 puts
    y = -w.
    """
    nums = [1] * (order + 1)  # nums[k] = order!/k!
    for k in range(order - 1, -1, -1):
        nums[k] = nums[k + 1] * (k + 1)
    return RationalPoly._from_parts(_scale(_taylor_shift(nums), Fraction(-1)), nums[0])


def _case1_certificate():
    """(1 - w^2) times a lower bound of phi(w) = e^(1-w) + w - 3 + 2w/(1-w^2),
    with the degree-12 Taylor sum in place of e^(1-w): a degree-14
    polynomial. For 0 <= w < 1 every Taylor term (1-w)^k/k! is positive, so
    the sum lies below e^(1-w), by at most 2 (1-w)^13 / 13!; and 1 - w^2 > 0,
    so the polynomial is positive only where phi is."""
    taylor = _exp_taylor_one_minus_w(12)
    return (taylor + _W - 3) * _ONE_MINUS_W2 + 2 * _W


def _case1_endpoint_bounds(xi_lo, xi_hi):
    """Rational enclosures of phi(xi) and phi'(xi) from xi_lo < xi < xi_hi.

    e^(1-xi) lies between the degree-24 Taylor sum at xi_hi and that sum
    plus its tail bound 2/25! at xi_lo. The rational parts, w - 3 +
    2w/(1-w^2) of phi and 1 + 2(1+w^2)/(1-w^2)^2 of phi', increase in w, so
    each bound takes each term at the end that makes it smaller or larger.
    """
    taylor = _exp_taylor_one_minus_w(24)
    exp_lo = taylor.evaluate(xi_hi)
    exp_hi = taylor.evaluate(xi_lo) + Fraction(2, math.factorial(25))

    def rational_parts(w):
        u = 1 - w * w
        return w - 3 + 2 * w / u, 1 + 2 * (1 + w * w) / (u * u)

    value_lo, slope_lo = rational_parts(xi_lo)
    value_hi, slope_hi = rational_parts(xi_hi)
    return (exp_lo + value_lo, exp_hi + value_hi), (slope_lo - exp_hi, slope_hi - exp_lo)


def _check_published(name, bounds, published, tolerance):
    """The midpoint of an enclosure as a float, once the whole enclosure is
    within tolerance of its published value."""
    lo, hi = bounds
    if not published - tolerance <= lo <= hi <= published + tolerance:
        raise NumericMismatch(f"{name} in [{float(lo)}, {float(hi)}], published {published}")
    return float((lo + hi) / 2)


def verify_case1_transcendental():
    """phi(w) = e^(1-w) + w - 3 + 2w/(1-w^2) > 0 on [xi, 1/(1+sqrt(2))], the
    transcendental step of the sharp lower bound for 1 < alpha <= 2.

    The proof is exact: the interval image of `_case1_certificate` on
    [xi_lo, sqrt2_hi - 1], a rational interval that contains the case-1
    interval, has only positive coefficients (`verify_sign_on_interval`).
    phi(xi) and phi'(xi) come from rational enclosures, checked against the
    published 0.003095392 and 1.746594. The certificate is then
    cross-checked against phi in floats at 1000 points, from float
    coefficients formed once: a disagreement raises NumericMismatch, but the
    positivity rests on the proof alone.
    """
    xi_lo, xi_hi = _xi_bounds()
    hi = _sqrt_bounds(2)[1] - 1  # above sqrt(2) - 1 = 1/(1 + sqrt(2))
    certificate = _case1_certificate()
    if not verify_sign_on_interval(certificate, xi_lo, hi, "positive"):
        raise SignViolation("case-1 certificate is not positive on [xi, 1/(1+sqrt(2))]")
    value_bounds, derivative_bounds = _case1_endpoint_bounds(xi_lo, xi_hi)
    derivative = _check_published(
        "derivative bound", derivative_bounds, _CASE1_DERIVATIVE_BOUND, 1e-5
    )
    value = _check_published("value bound", value_bounds, _CASE1_VALUE_BOUND, 1e-8)
    lo_f, hi_f = float(xi_lo), float(hi)
    den = certificate.den
    coefficients = [n / den for n in reversed(certificate.nums)]
    for i in range(_CASE1_SAMPLES):
        w = lo_f + (hi_f - lo_f) * i / _CASE1_SAMPLES
        bound = 0.0
        for c in coefficients:
            bound = bound * w + c
        phi = math.exp(1.0 - w) + w - 3.0 + 2.0 * w / (1.0 - w * w)
        if not 0.0 < bound <= (1.0 - w * w) * phi:
            raise NumericMismatch(f"case-1 certificate and phi disagree in floats at w={w}")
    return Case1Report(derivative, value, _CASE1_SAMPLES)


def verify_all(full_compare=False, only=None):
    """Run every certificate, or those named in `only`; returns (reports,
    case1_report). An empty `only` or an unknown name raises ValueError."""
    runners = {
        "smallalpha": lambda: [verify_small_alpha_certificate()],
        "chain_plus": lambda: verify_chain_plus(full_compare),
        "chain_minus": lambda: verify_chain_minus(full_compare),
        "case2": lambda: [verify_case2_J()],
    }
    if only is not None:
        choices = (*runners, "case1")
        unknown = sorted(set(only).difference(choices))
        if unknown:
            raise ValueError(f"unknown certificate names {unknown}; choose from {choices}")
        if not only:
            raise ValueError(f"no certificate selected; choose from {choices}")
    selected = list(runners) if only is None else [k for k in runners if k in only]
    reports = []
    for key in selected:
        reports.extend(runners[key]())
    case1 = None
    if only is None or "case1" in only:
        case1 = verify_case1_transcendental()
    return reports, case1


def format_records(reports, case1=None):
    lines = []
    for r in reports:
        spot = ",".join(f"q^{index}=ok" for index in r.spot_checks)
        lines.append(f"name={r.name};verdict={r.sign_verdict};detail=degree {r.degree}; {spot}")
    if case1 is not None:
        lines.append(
            "name=case1;verdict=pass;detail="
            f"derivative={case1.derivative_bound:.6f} value={case1.value_at_endpoint:.9f} "
            f"samples={case1.samples_checked}"
        )
    return "\n".join(lines)

