"""Exact univariate polynomial and rational-function arithmetic over
arbitrary-precision rationals, with Sturm-sequence root counting.

Coefficients are `fractions.Fraction` (always reduced, positive
denominator), stored densely with index = degree. Everything here is
immutable and exact: no floats, no tolerances.
"""

from fractions import Fraction

__all__ = [
    "BigRational",
    "RationalPoly",
    "RationalFunction",
    "EndpointRoot",
    "substitute_rational",
    "sturm_sequence",
    "sturm_roots_in_interval",
    "verify_sign_on_interval",
]

BigRational = Fraction


class EndpointRoot(Exception):
    """The polynomial vanishes at an interval endpoint."""


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact arithmetic needs int or Fraction, got {type(value).__name__}")


class RationalPoly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients):
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def monomial(cls, coefficient, degree):
        return cls([0] * degree + [coefficient])

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly([other])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly([other])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RationalPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPoly) else RationalPoly([-_as_fraction(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
        result = RationalPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x):
        """Horner evaluation at a Fraction (or int) point, exact."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_float(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def derivative(self):
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, divisor):
        """Exact polynomial long division: self = q*divisor + r, deg r < deg divisor."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcoeffs = divisor.coeffs
        dlead = dcoeffs[-1]
        dn = len(dcoeffs)
        if len(rem) < dn:
            return RationalPoly.zero(), self
        q = [Fraction(0)] * (len(rem) - dn + 1)
        for k in range(len(rem) - dn, -1, -1):
            factor = rem[k + dn - 1] / dlead
            q[k] = factor
            if factor:
                for j in range(dn):
                    rem[k + j] -= factor * dcoeffs[j]
        return RationalPoly(q), RationalPoly(rem[: dn - 1])

    def __floordiv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = 1 / _as_fraction(other)
            return self * inv
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    def __mod__(self, other):
        return self.divmod(other)[1]

    def shift_down(self, k):
        """Divide by x^k; the k lowest coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"polynomial is not divisible by x^{k}")
        return RationalPoly(self.coeffs[k:])

    def monic(self):
        if self.is_zero():
            return self
        return self * (1 / self.coeffs[-1])

    def gcd(self, other):
        """Monic greatest common divisor by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()


class RationalFunction:
    """Quotient of two RationalPoly, normalized lazily via polynomial gcd.

    Normalization keeps intermediate degrees small through the long
    certificate chains; equality cross-multiplies so it never depends on
    the stored representation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if isinstance(num, (int, Fraction)):
            num = RationalPoly([num])
        if isinstance(den, (int, Fraction)):
            den = RationalPoly([den])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        common = num.gcd(den)
        if common.degree > 0:
            num = num // common
            den = den // common
        # canonical: monic denominator
        lead = den.coeffs[-1]
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        return cls(p, RationalPoly.one())

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        return other / self

    def __pow__(self, n):
        return RationalFunction(self.num ** n, self.den ** n)

    def evaluate(self, x):
        den = self.den.evaluate(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / den

    def as_polynomial(self):
        """The underlying polynomial, if the denominator divides out."""
        q, r = self.num.divmod(self.den)
        if not r.is_zero():
            raise ValueError("rational function is not a polynomial")
        return q


def _as_ratfun(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, RationalPoly):
        return RationalFunction.from_poly(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction(RationalPoly([value]), RationalPoly.one())
    return NotImplemented


def substitute_rational(p, sub_num, sub_den):
    """p(sub_num/sub_den) as an exact rational function.

    Horner in the polynomial ring; the result is returned over the
    uncancelled denominator sub_den^deg(p).
    """
    if sub_den.is_zero():
        raise ZeroDivisionError("substitution with zero denominator")
    if p.is_zero():
        return RationalFunction(RationalPoly.zero(), RationalPoly.one())
    acc = RationalPoly([p.coeffs[-1]])
    den_power = RationalPoly.one()
    for c in reversed(p.coeffs[:-1]):
        den_power = den_power * sub_den
        acc = acc * sub_num + den_power * c
    return RationalFunction(acc, den_power)


def sturm_sequence(p):
    """Canonical Sturm chain p0=p, p1=p', p_{k+1} = -rem(p_{k-1}, p_k)."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def _sign_variations(seq, x):
    signs = []
    for q in seq:
        v = q.evaluate(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_roots_in_interval(p, lo, hi):
    """Exact count of distinct real roots of p in the open interval (lo, hi)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo}, {hi}")
    if p.evaluate(lo) == 0 or p.evaluate(hi) == 0:
        raise EndpointRoot(f"polynomial vanishes at an endpoint of ({lo}, {hi})")
    seq = sturm_sequence(p)
    return _sign_variations(seq, lo) - _sign_variations(seq, hi)


def verify_sign_on_interval(p, lo, hi, expected):
    """True iff p keeps the expected strict sign throughout (lo, hi).

    Certified by a zero Sturm root count plus matching signs at both
    endpoints and the midpoint.
    """
    if expected not in ("positive", "negative"):
        raise ValueError(f"expected must be 'positive' or 'negative', got {expected!r}")
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if sturm_roots_in_interval(p, lo, hi) != 0:
        return False
    want = 1 if expected == "positive" else -1
    for point in (lo, (lo + hi) / 2, hi):
        v = p.evaluate(point)
        if v == 0 or (1 if v > 0 else -1) != want:
            return False
    return True
