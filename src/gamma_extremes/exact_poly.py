"""Exact univariate polynomial arithmetic over arbitrary-precision
rationals, with one interval sign proof and Sturm-sequence root counting.

A `RationalPoly` stores a tuple of integer numerators, index = degree,
over one positive denominator, in canonical form: no trailing zero
numerator, and gcd(denominator, all numerators) = 1, so equal polynomials
have equal representations. Sums, scalar products, derivatives and shifts
stay in integers, and so do polynomial products: the plain convolution
of the two numerator lists over the product of the denominators (see
`RationalPoly.__mul__` for why not Kronecker substitution). The reduced
`fractions.Fraction` coefficients are a view, built on first use.
Everything here is immutable and exact: no floats, no tolerances, and no
bool is taken for an int. Every sign proof, here and in `certificates`, is
one integer interval map, `_interval_image`; Sturm sequences remain the
exact root counter and the tests' oracle for it.

A Sturm count reads signs from integers only. Its chain is built by
pseudo-division for the remainder alone (`%`; `divmod` runs the same loop
and keeps the quotient too), and the sign of a chain element at x = n/d,
d > 0, is that of the integer Horner numerator sum nums[i] n^i d^(deg-i)
(`_horner`), with no Fraction formed. A count on a degree-4 to 6 polynomial
with rational roots of size 40-60 costs 25-86 us, 36-57 us in the median
(CPython 3.11, in-process, shared host), against 57-221 us, 89-127 us in
the median, when it kept the quotients and read each sign from a reduced
Fraction.
"""

import math
from fractions import Fraction

__all__ = [
    "RationalPoly",
    "EndpointRoot",
    "sturm_sequence",
    "sturm_roots_in_interval",
    "verify_sign_on_interval",
]


class EndpointRoot(Exception):
    """The polynomial vanishes at an interval endpoint."""


def _is_scalar(value):
    """An int or a Fraction, and not a bool: True is no coefficient."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if _is_scalar(value):
        return Fraction(value)
    raise TypeError(f"exact arithmetic needs int or Fraction, got {type(value).__name__}")


def _horner(nums, n, d):
    """(sum nums[i] n^i d^(deg-i), d^deg) for nonempty nums of degree deg:
    p(n/d) is the first over den times the second, so for d > 0 the first,
    an integer, has the sign of p(n/d)."""
    acc = nums[-1]
    d_power = 1
    for c in nums[-2::-1]:
        d_power *= d
        acc = acc * n + c * d_power
    return acc, d_power


class RationalPoly:
    """Dense univariate polynomial with rational coefficients.

    ``nums`` is a tuple of integer numerators (index = degree) over the
    positive integer ``den``; the pair is canonical (see the module
    docstring). ``coeffs`` is the same polynomial as a tuple of reduced
    Fractions.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coefficients):
        values = [_as_fraction(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in values))
        self._set([c.numerator * (den // c.denominator) for c in values], den)

    def _set(self, nums, den):
        """Store nums / den (den > 0) in canonical form."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        if end == 0:
            self.nums, self.den = (), 1
        else:
            common = math.gcd(den, *nums[:end])
            if common == 1:
                self.nums = tuple(nums[:end])
            else:
                self.nums = tuple(n // common for n in nums[:end])
                den //= common
            self.den = den
        self._coeffs = None

    @classmethod
    def _from_parts(cls, nums, den):
        poly = cls.__new__(cls)
        poly._set(nums, den)
        return poly

    @classmethod
    def zero(cls):
        return cls._from_parts((), 1)

    @classmethod
    def one(cls):
        return cls._from_parts((1,), 1)

    @property
    def coeffs(self):
        """The coefficients as a tuple of reduced Fractions, index = degree."""
        if self._coeffs is None:
            den = self.den
            if den == 1:
                self._coeffs = tuple(Fraction(n) for n in self.nums)
            else:
                self._coeffs = tuple(Fraction(n, den) for n in self.nums)
        return self._coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        if _is_scalar(other):
            other = RationalPoly([other])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    def __neg__(self):
        # negation keeps the gcd, so the pair stays canonical with none taken
        poly = RationalPoly.__new__(RationalPoly)
        poly.nums, poly.den, poly._coeffs = tuple(-n for n in self.nums), self.den, None
        return poly

    def __add__(self, other):
        if _is_scalar(other):
            other = RationalPoly([other])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, da, b, db = self.nums, self.den, other.nums, other.den
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        if da == db:
            out = list(a)
            for i, n in enumerate(b):
                out[i] += n
            return RationalPoly._from_parts(out, da)
        common = math.gcd(da, db)
        sa, sb = db // common, da // common
        out = [n * sa for n in a]
        for i, n in enumerate(b):
            out[i] += n * sb
        return RationalPoly._from_parts(out, da * sa)

    __radd__ = __add__

    def __sub__(self, other):
        if _is_scalar(other):
            return self + RationalPoly([-other])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a RationalPoly, an int or a Fraction.

        Two polynomials multiply by the schoolbook convolution of their
        numerators. On small factors the loop beats Kronecker substitution
        (Harvey, J. Symbolic Comput. 2009: pack each list into one big
        integer, multiply once, unpack), 3 us against 9 us at 3 x 3 terms
        (CPython 3.11, in-process). On dense 64-bit numerators Kronecker
        wins from about 17 x 17 terms (39 us against 49 us), by 2.5x at
        33 x 33, 4x at 65 x 65 and 12x at 257 x 257. `verify
        --full-compare` forms 33 products of two polynomials: 13 have a
        factor of 3 terms or fewer, 15 have both factors of 12 terms or
        more, and the largest has 49 x 17 terms of at most 56 bits. Over
        those 33 Kronecker took ~460 us against the loop's ~680 us, and
        Kronecker on the 15 large ones alone ~390 us: a caller with many
        products that large should bring it back.
        """
        if _is_scalar(other):
            scalar = Fraction(other)
            numerator = scalar.numerator
            return RationalPoly._from_parts(
                [n * numerator for n in self.nums], self.den * scalar.denominator
            )
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return RationalPoly._from_parts(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
        if n == 0:
            return RationalPoly.one()
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def evaluate(self, x):
        """Horner evaluation at a Fraction (or int) point, exact."""
        x = _as_fraction(x)
        if not self.nums:
            return Fraction(0)
        acc, d_power = _horner(self.nums, x.numerator, x.denominator)
        return Fraction(acc, self.den * d_power)

    def derivative(self):
        return RationalPoly._from_parts([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def divmod(self, divisor):
        """Exact polynomial long division: self = q*divisor + r, deg r < deg divisor.

        Pseudo-division on the numerators (Knuth, TAOCP vol. 2, 4.6.1): with
        s = lead^steps, where lead is the divisor's leading numerator,
        s * nums = Q * b + R in integers, so q = Q den_b / (s den) and
        r = R / (s den). `_divide` runs the loop; `%` runs it without Q.
        """
        return self._divide(divisor, True)

    def __mod__(self, other):
        """The remainder of `divmod` alone, from the same pseudo-division loop
        run without the quotient, which a Sturm chain never reads."""
        return self._divide(other, False)[1]

    def _divide(self, divisor, with_quotient):
        """(q, r) of `divmod`; q is None unless with_quotient."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = divisor.nums
        dn = len(b)
        steps = len(self.nums) - dn + 1
        if steps <= 0:
            return (RationalPoly.zero() if with_quotient else None), self
        lead = b[-1]
        rem = list(self.nums)
        quotient = [0] * steps if with_quotient else None
        for k in range(steps - 1, -1, -1):
            top = rem.pop()
            if with_quotient:
                # scaled by lead once for each of the k steps still to come
                quotient[k] = top * lead ** k
            rem = [r * lead for r in rem]
            for j in range(dn - 1):
                rem[k + j] -= top * b[j]
        scale = lead ** steps * self.den
        if scale < 0:
            scale = -scale
            rem = [-n for n in rem]
            if with_quotient:
                quotient = [-n for n in quotient]
        remainder = RationalPoly._from_parts(rem, scale)
        if not with_quotient:
            return None, remainder
        return RationalPoly._from_parts([n * divisor.den for n in quotient], scale), remainder

    def shift_down(self, k):
        """Divide by x^k; the k lowest coefficients must vanish."""
        if any(self.nums[:k]):
            raise ValueError(f"polynomial is not divisible by x^{k}")
        return RationalPoly._from_parts(self.nums[k:], self.den)


def sturm_sequence(p):
    """Canonical Sturm chain p0=p, p1=p', p_{k+1} = -rem(p_{k-1}, p_k)."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def _sign_variations(seq, x):
    """Sign changes along the chain at the Fraction x, zeros skipped; each
    sign is that of an integer Horner numerator (`_horner`)."""
    n, d = x.numerator, x.denominator
    values = (_horner(q.nums, n, d)[0] for q in seq)
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_roots_in_interval(p, lo, hi):
    """Exact count of distinct real roots of p in the open interval (lo, hi)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo}, {hi}")
    for x in (lo, hi):
        if not _horner(p.nums, x.numerator, x.denominator)[0]:
            raise EndpointRoot(f"polynomial vanishes at an endpoint of ({lo}, {hi})")
    seq = sturm_sequence(p)
    return _sign_variations(seq, lo) - _sign_variations(seq, hi)


def _taylor_shift(nums):
    """The integer numerators of p(x + 1) from those of p(x), by the classical
    O(n^2) loop of additions (von zur Gathen and Gerhard, ISSAC 1997): pass
    i is one synthetic division by x - 1 of the coefficients from i up."""
    u = list(nums)
    m = len(u) - 1
    for i in range(m):
        for k in range(m - 1, i - 1, -1):
            u[k] += u[k + 1]
    return u


def _scale(nums, factor):
    """Numerators of p(factor x) times den^n > 0, factor = num/den, n = deg p."""
    num, den, n = factor.numerator, factor.denominator, len(nums) - 1
    return [c * num ** k * den ** (n - k) for k, c in enumerate(nums)]


def _interval_image(nums, lo, hi, power):
    """Integer numerators in y of (1+y)^power p(lo + (hi-lo)/(1+y)) times a
    positive constant, for power >= deg p = n and lo < hi: y in [0, inf)
    covers [lo, hi], so the y^0 and y^power terms have the signs of p(hi)
    and p(lo) (Vincent's Moebius map; Collins and Akritas, SYMSAC 1976).
    q(t) = p(lo + (hi-lo) t) is a scaled Taylor shift of p, u^power q(1/u)
    is q reversed over power - n zeros, and a last shift puts y = u - 1."""
    if lo:
        nums = _scale(_taylor_shift(_scale(nums, lo)), (hi - lo) / lo)
    else:
        nums = _scale(nums, hi)
    return _taylor_shift([0] * (power - len(nums) + 1) + nums[::-1])


def verify_sign_on_interval(p, lo, hi, expected):
    """True if every coefficient of p's interval image on [lo, hi] has the
    expected strict sign, which proves p has it on the closed interval, so a
    root at lo or hi gives False. Sufficient, not necessary: without
    subdivision an image with a sign variation gives False where p keeps its sign."""
    if expected not in ("positive", "negative"):
        raise ValueError(f"expected must be 'positive' or 'negative', got {expected!r}")
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if p.is_zero() or not lo < hi:
        raise ValueError(f"need a nonzero polynomial and lo < hi, got {p!r}, {lo}, {hi}")
    want = 1 if expected == "positive" else -1
    return all(c * want > 0 for c in _interval_image(p.nums, lo, hi, p.degree))
