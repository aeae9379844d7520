"""Special functions: the regularized incomplete gamma, from scratch, and
log-gamma from math.lgamma. The standard normal CDF, band and log tail come
from libm's erf and erfc, and so does the scaled tail e^(w^2/2) P{Z > w}
that the inverse Gaussian band uses, with Lentz's fraction where erfc
leaves the normal doubles; the log tail takes that scaled tail there.

The incomplete gamma uses four methods, each where it is accurate:

- the lower power series for P(a, x), Kahan-compensated, four terms a pass;
- Lentz's continued fraction for Q(a, x) at x >= a + 1;
- Temme's uniform asymptotic expansion (SIAM J. Math. Anal. 1979; the form
  of Gil, Segura & Temme, SIAM J. Sci. Comput. 2012) for a >= 100, in
  O(1) where the other two cost O(sqrt(a)) terms or more;
- the expansion of P for large a at fixed x/a < 1 (DLMF 8.11.iii), in
  O(1) far below the mean at a >= 100, where the series' terms shrink
  only by x/a per step.

reg_lower_gamma is the one point that chooses among them for P, with
a eta^2 / 2 = -_log_ratio_term(a, x) (see _temme); gamma_prob's h and band
enter it at large shapes with an edge's offset d = x - a in place of x
(_large_shape_lower, _temme_band):

    region                             method        relative error
    a < 100, x < a + 1                 series        3.5e-15 + 3.2e-16 |ln P|
    a < 100, x >= a + 1                1 - fraction  ~1e-15 absolute
    a >= 100, x >= a + 1               Temme P       ~2e-16
    a >= 100, x < a + 1,
      a eta^2 / 2 <= min(40, 0.08 a)   Temme P       5e-15 + 5e-16 a eta^2/2
    a >= 100, further below the mean:
      (a - x)^2 >= 60 a                asymptotic    that (1.5e-15 a eta^2/2
                                       (<= 34 terms) where x < a/2)
      (a - x)^2 < 60 a                 series        that + 2e-15
                                       (<= 68 terms)

The error that grows with a eta^2 / 2, or with |ln P| below shape 100,
is that of the prefactor's exponent, which the methods share; below
x = a/2 its direct form is up to 6.2 ulp off (see _log_ratio_term). The
asymptotic sum adds 2e-16 to it, the series its truncated tail. The series stays at a >= 100 only where
a < 494 and x/a < 0.6515 (see _ASYMPTOTIC_MIN_SPREAD). The public
lower_series and upper_continued_fraction each keep their own side's
methods: P from the series (Temme above x = a + 1 at a >= 100), Q from
the fraction above x = a + 1 and below it from Temme's Q form at a >= 100,
or at smaller shapes from the fraction at a shape lowered by whole steps
to where it converges, plus the exact recurrence Q(b + 1, x) = Q(b, x) +
x^b e^-x / Gamma(b + 1). So P and Q never come from one another:
P + Q - 1 checks two methods against each other everywhere. The log-prefactor
a*ln(x) - x - ln_gamma(a) is evaluated in a cancellation-free form: from
a = 10 up, its a ln(x/a) - (x - a) is the deviance -d v + 2 a v^3 S(v^2)
in d = x - a and v = d / (2a + d), whose leading -d v is formed from exact
remainders recovered in plain doubles by TwoSum and Dekker's TwoProduct
(see _deviance, which takes d itself); it is within 2e-16 relative.
Without it, probabilities near a ~ 1e6 carry ~1e-13 noise, too coarse to
resolve strict monotonicity of the one-sigma band probability; so does
the rounding of the band's edges to doubles, which their offsets avoid.
Results below the normal double range carry their natural log
(LogProbability), so they stay ordered after underflow.
"""

import math
import operator
import sys
from bisect import bisect, bisect_left

__all__ = [
    "Probability",
    "LogProbability",
    "ConvergenceError",
    "ln_gamma",
    "reg_lower_gamma",
    "lower_series",
    "upper_continued_fraction",
    "std_normal_band",
    "std_normal_cdf",
    "log_std_normal_sf",
]

# Supported shape range for reg_lower_gamma.
MIN_SHAPE = 1e-6
MAX_SHAPE = 1e7

# Iteration cap and convergence tolerance for series / continued fraction.
MAX_ITERATIONS = 10 ** 6
REL_TOL = 1e-15
TINY = 1e-300

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_HALF_INV_SQRT_PI = 0.5 / math.sqrt(math.pi)
# below this y^2, erfc(y) is a normal double (it leaves them near y^2 = 705)
# and e^(y^2) finite
_ERFC_MAX_EXPONENT = 700.0
# Veltkamp's splitter: c u - (c u - u) is u rounded to its top 26 bits
_SPLITTER = 2.0 ** 27 + 1.0

# S(w) = sum_k w^k / (2k + 3) = 1/3 + w S_1(w), the series of
# (atanh(v) - v) / v^3 in w = v^2 <= 1/9 (see _log_ratio_term). n terms of
# S suffice once w^n / (2n + 3), which bounds their tail to within 9/8, is
# below 2^-58 of S(0) = 1/3: while w <= _DEVIANCE_MAX_W[n - 1]; 18 cover
# w = 1/9. _DEVIANCE_TERMS[n - 1] holds the first n - 1 coefficients of
# S_1, 1 / (2k + 5), highest first.
_DEVIANCE_MAX_W = tuple((2.0 ** -58 * (2 * n + 3) / 3.0) ** (1.0 / n) for n in range(1, 18))
_DEVIANCE_TERMS = tuple(tuple(1.0 / (2 * k + 5) for k in reversed(range(n))) for n in range(18))

_PROBABILITY_SLACK = 1e-12
_MIN_NORMAL = sys.float_info.min
_MAX_DOUBLE = sys.float_info.max

# Temme's expansion runs from this shape up. Where a eta^2 / 2 exceeds the
# cutoff, its remainder R_a(eta) is below e^-40 / sqrt(2 pi a) < 1e-19 and
# is dropped; inside it |eta| <= sqrt(80 / 100), where the table below
# gives R_a to ~1e-16 relative.
TEMME_MIN_SHAPE = 100.0
_TEMME_EXPONENT_CUTOFF = 40.0

# Below this x (and below the Temme shapes) Lentz's fraction takes ~1/x
# steps and its rounding errors grow past 1e-13 relative; Q is refused.
UPPER_MIN_X = 0.1

# Taylor coefficients d[k][n] of Temme's C_k(eta) = sum_n d[k][n] eta^n,
# k = 0..5, n = 0..13: the exact rationals of the recursion
# C_0 = 1/(lambda - 1) - 1/eta, C_k = C_{k-1}'(eta) / eta + c_k / (lambda - 1)
# with c_k cancelling the pole at eta = 0 (DLMF 8.12.9-8.12.11), each
# rounded once to double.
_TEMME_COEFFS = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14,
    ),
)


def _temme_tables():
    """Temme's sum cut term by term to what a and eta need: (shapes, etas, terms).

    The bins in a and |eta| are those where a whole row or column of
    _TEMME_COEFFS can reach 2^-62 of |C_0(0)| = 1/3, about 1/800 of an ulp
    of the sum: row k while a^-k max|C_k| can, with max|C_k| the sum of
    |d[k][n]| |eta|^n at the largest |eta| the expansion meets, eta_max =
    sqrt(2 _TEMME_EXPONENT_CUTOFF / TEMME_MIN_SHAPE); column n while
    |eta|^n max_k |d[k][n]| can. In bin i = bisect_left(shapes, a),
    j = bisect(etas, |eta|), a exceeds the bin's least shape a_lo and |eta|
    stays below its edge eta_hi (eta_max in the last), and term (k, n) is
    kept while its bound there, |d[k][n]| eta_hi^n a_lo^-k, exceeds the
    same tolerance: while eta_hi > (tol a_lo^k / |d[k][n]|)^(1/n). Horner's
    scheme sums a row from its last kept term down, so the row's width in
    bin j is the number of those thresholds' suffix minima below eta_hi,
    one bisect. terms[i][j] holds the rows - i rows the bin's shapes keep,
    last first, each highest first. The shape bins stop at the last that
    starts at or below MAX_SHAPE (a_lo = 273520; the whole-row tests would
    start two more, at 3.2e8 and 1.1e17). Against the full table R moves by
    at most 2 ulp, on ~2 in 10^4 points with a in [100, 1e7] and
    |x - a| <= 9 sqrt(a).
    """
    tol = 2.0 ** -62 / 3.0
    eta_max = math.sqrt(2.0 * _TEMME_EXPONENT_CUTOFF / TEMME_MIN_SHAPE)
    rows, cols = len(_TEMME_COEFFS), len(_TEMME_COEFFS[0])
    row_shapes = [
        (sum(abs(d) * eta_max ** n for n, d in enumerate(_TEMME_COEFFS[k])) / tol) ** (1.0 / k)
        for k in range(1, rows)
    ]
    column_etas = [
        (tol / max(abs(row[n]) for row in _TEMME_COEFFS)) ** (1.0 / n) for n in range(1, cols)
    ]
    # a kept row or column keeps all below it: more than m rows are kept
    # while a <= max(row_shapes[m - 1:]), more than m columns while
    # |eta| >= min(column_etas[m - 1:]); a shape bin that would start
    # above MAX_SHAPE serves no supported shape
    shapes = sorted(max(row_shapes[m - 1:]) for m in range(1, rows))
    shapes = tuple(shapes[:bisect(shapes, MAX_SHAPE)])
    etas = tuple(min(column_etas[m - 1:]) for m in range(1, cols))
    eta_his = etas + (eta_max,)
    magnitudes = [[abs(d) for d in row] for row in _TEMME_COEFFS]
    # cuts[k][w]: the first w terms of row k, highest first, for Horner
    cuts = [[row[cols - w:] for w in range(cols + 1)] for row in (r[::-1] for r in _TEMME_COEFFS)]

    def cut_row(k, floor):
        # row k in each eta bin, cut after its last term n with eta_hi >
        # (floor / |d[k][n]|)^(1/n), floor = tol a_lo^k: its width is the
        # number of those thresholds' suffix minima below eta_hi
        row = magnitudes[k]
        least, minima = math.inf, [0.0] * cols
        for n in range(cols - 1, 0, -1):
            threshold = (floor / row[n]) ** (1.0 / n)
            if threshold < least:
                least = threshold
            minima[n] = least
        if row[0] <= floor:
            minima[0] = least
        return [cuts[k][bisect_left(minima, eta_hi)] for eta_hi in eta_his]

    first = cut_row(0, tol)
    terms = []
    for i, a_lo in enumerate((TEMME_MIN_SHAPE,) + shapes):
        # the rows - i rows of bin i are those its whole-row test keeps;
        # every term of a row it drops is below the tolerance too
        cut = [cut_row(k, tol * a_lo ** k) for k in range(rows - i - 1, 0, -1)]
        terms.append(tuple(zip(*cut, first)))
    return shapes, etas, tuple(terms)


_TEMME_SHAPES, _TEMME_ETAS, _TEMME_TERMS = _temme_tables()

# Below Temme's band at a >= TEMME_MIN_SHAPE, the asymptotic sum of
# _lower_asymptotic runs where (a - x)^2 >= _ASYMPTOTIC_MIN_SPREAD a, so
# t = a / (a - x)^2 <= 1/60. That covers every such point from a ~ 494 up,
# where the band's edge lies at (a - x)^2 / a >= 60.7 (79.8 at a = 1e7);
# below a ~ 494 the band ends at lambda = x/a = 0.6515, and the series
# keeps lambda < 0.6515 with (a - x)^2 < 60 a, where it takes at most 68
# terms (17 passes of four). The sum stops once a term is below
# _ASYMPTOTIC_TOL; it takes at most 34 terms over its path (at
# (a - x)^2 = 60 a, lambda = 0.649) and 33 along the band's edge at larger
# shapes. _ASYMPTOTIC_TERMS holds 40 rows; a sum that reads them all
# raises ConvergenceError.
_ASYMPTOTIC_MIN_SPREAD = 60.0
_ASYMPTOTIC_TOL = 2.0 ** -56


def _asymptotic_table(rows):
    """The polynomials b_k(lambda) / lambda of _lower_asymptotic, k = 1..rows,
    each highest coefficient first, for Horner's scheme.

    b_0 = 1 and b_k = lambda (1 - lambda) b_(k-1)' + (2k - 1) lambda
    b_(k-1) (DLMF 8.11.iii) have positive integer coefficients (the
    second-order Eulerian numbers, shifted by one power of lambda): with
    b_(k-1) = sum_j c_j lambda^j, b_k has j c_j + (2k - j) c_(j-1) at
    lambda^j. The recursion runs on exact ints, and each coefficient is
    rounded once to double.
    """
    b = [1]
    table = []
    for k in range(1, rows + 1):
        b = [j * c + (2 * k - j) * p for j, (p, c) in enumerate(zip([0] + b, b + [0]))]
        table.append(tuple(map(float, reversed(b[1:]))))
    return tuple(table)


_ASYMPTOTIC_TERMS = _asymptotic_table(40)


class ConvergenceError(ArithmeticError):
    """Raised when an iterative expansion fails to converge within the cap,
    or is asked for a point where it cannot reach its stated accuracy."""


class Probability(float):
    """A float constrained to [0, 1].

    Values outside the interval by more than 1e-12 are rejected; values
    inside the slack are clamped onto the interval, and -0.0 becomes 0.0.
    The package's bands and incomplete gamma build their results with
    _probability, which gives the same result without the class call's
    Python-level __new__.
    """

    __slots__ = ()

    def __new__(cls, value):
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"not a probability: {_describe(value)}") from None
        if not (-_PROBABILITY_SLACK <= value <= 1.0 + _PROBABILITY_SLACK):
            raise ValueError(f"not a probability: {value!r}")
        return float.__new__(cls, min(1.0, max(0.0, value)))


def _probability(value):
    """Probability(value), the package's one fast path: a float in (0, 1],
    which needs neither conversion nor clamp, skips the type call into a
    Python __new__, ~0.1 us (CPython 3.11), once per band or incomplete
    gamma result. A value whose type is exactly Probability, already
    checked and clamped, is returned as it is: 0.05 us, where the
    constructor took 1.0. Any other value goes to the checked constructor,
    so the class, the bits and the errors are those of Probability(value):
    a LogProbability comes back a plain Probability."""
    if type(value) is float and 0.0 < value <= 1.0:
        return float.__new__(Probability, value)
    if type(value) is Probability:
        return value
    return Probability(value)


def _describe(value):
    """repr(value) for a message, except that an int too long for the
    interpreter's int-to-str limit (sys.get_int_max_str_digits), whose repr
    raises ValueError, is told by its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _check_positive(name, value):
    """value as a float, once it is a float or an int, not a bool, that is
    finite and positive. (A float, the usual case, costs one isinstance.)"""
    if isinstance(value, float):
        if math.isfinite(value) and value > 0:
            return float(value)
    # an int is finite where a double holds it; math.isfinite would raise
    # OverflowError beyond that
    elif isinstance(value, int) and not isinstance(value, bool) and 0 < value <= _MAX_DOUBLE:
        return float(value)
    raise ValueError(f"{name} must be finite and positive, got {_describe(value)}")


def _finite_variance(variance, record, formula):
    """variance, once no double exceeds it: computed by products, a variance
    past the doubles is inf (or, of int fields, an int no double holds),
    where ** would raise OverflowError."""
    if variance <= _MAX_DOUBLE:
        return variance
    raise ValueError(f"variance {formula} is not a finite double at {record!r}")


class _Record:
    """Base of the immutable records: fields named once in ``_fields``, which
    is also ``__slots__``, trailing defaults in ``_defaults``, checks in
    ``_validate``. A record takes its fields positionally or by keyword and
    stores them as passed; records of one class with equal fields are equal
    and hash alike; pickle and copy rebuild from the fields, and assignment
    and deletion raise AttributeError."""

    __slots__ = _fields = _defaults = ()

    def __init_subclass__(cls):
        # a straight-line __init__ per class: Python binds the arguments and
        # raises its own TypeErrors, and a call costs what a hand-written one
        # does (a loop over the fields measured ~1.5x that on CPython 3.11)
        fields, defaults = cls._fields, cls._defaults
        first = len(fields) - len(defaults)
        params = ["self", *fields[:first], *(f"{f}=_d[{i}]" for i, f in enumerate(fields[first:]))]
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        namespace = {"_set": object.__setattr__, "_d": defaults}
        exec(f"def __init__({', '.join(params)}):\n{body}    self._validate()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _validate(self):
        """Raises ValueError for a field value the record refuses."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _by_log(op):
    """A comparison of a LogProbability with another number through logs."""

    def compare(self, other):
        if isinstance(other, LogProbability):
            return op(self.log, other.log)
        if not isinstance(other, (int, float)):
            return NotImplemented
        other = float(other)
        if other > 0.0:
            return op(self.log, math.log(other))
        return op(self.log, -math.inf if other <= 0.0 else other)  # other is nan

    return compare


class LogProbability(Probability):
    """A probability below the normal double range that carries its log.

    The float value is the double-precision product as computed, subnormal
    or 0.0; ``log`` is the natural log of the probability, computed without
    underflow. Comparisons and hashing use ``log``, so two such values keep
    their true order after their floats have underflowed to the same double.
    Arithmetic gives plain floats.
    """

    __slots__ = ("log",)

    def __new__(cls, value, log):
        self = super().__new__(cls, value)
        self.log = float(log)
        return self

    def __reduce__(self):
        # every pickle protocol and copy rebuild through __new__; protocols 0
        # and 1 cannot pickle a slotted class by its state
        return type(self), (float(self), self.log)

    def __hash__(self):
        return hash(self.log)

    __lt__ = _by_log(operator.lt)
    __le__ = _by_log(operator.le)
    __gt__ = _by_log(operator.gt)
    __ge__ = _by_log(operator.ge)
    __eq__ = _by_log(operator.eq)
    __ne__ = _by_log(operator.ne)


def _from_log_parts(total, log_prefactor):
    """total * e^log_prefactor; a LogProbability below the normal range."""
    value = total * math.exp(log_prefactor)
    if value >= _MIN_NORMAL:
        return _probability(value)
    return LogProbability(value, log_prefactor + math.log(total))


# stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi) / 2 for k = 1..9, the
# 40-digit values each rounded once; Stirling's series from 10 up (_stirlerr).
_STIRLERR = (
    0.0810614667953272582196702635943823601386,
    0.04134069595540929409382208140711750802537,
    0.0276779256849983391487892927462446665954,
    0.02079067210376509311152277176784865633308,
    0.01664469118982119216319486537359339114739,
    0.01387612882307074799874572702376290856166,
    0.01189670994589177009505572411765943862002,
    0.01041126526197209649747856713253462919951,
    0.009255462182712732917728636633100136117325,
)


def _stirlerr(x):
    """Loader's stirlerr, ln Gamma(x + 1) - (x + 1/2) ln x + x - ln(2 pi)/2,
    for an integer x in 1..9 (correctly rounded) or any x >= 10 (Stirling's
    series to x^-15, within 3e-16 relative). The series' eight terms
    B_2n / (2n (2n - 1)) x^(1 - 2n), n = 1..8, are written out and summed
    lowest power first, each coefficient a constant the compiler folds."""
    if x < 10:
        return _STIRLERR[x - 1]
    term = 1.0 / x
    inv2 = term * term
    total = (1.0 / 12.0) * term
    term *= inv2
    total += (-1.0 / 360.0) * term
    term *= inv2
    total += (1.0 / 1260.0) * term
    term *= inv2
    total += (-1.0 / 1680.0) * term
    term *= inv2
    total += (1.0 / 1188.0) * term
    term *= inv2
    total += (-691.0 / 360360.0) * term
    term *= inv2
    total += (1.0 / 156.0) * term
    term *= inv2
    return total + (-3617.0 / 122400.0) * term


def _bd0(x, m):
    """Loader's deviance term x ln(x/m) + m - x = -_log_ratio_term(x, m)
    for x, m > 0: the direct form outside [m/2, 2m]; inside, the kernel's
    series d v + (u + 3 u w S_1(w)) / 3 in d = x - m, v = d / (x + m),
    w = v^2 and u = 2 x v w, with d v left as rounded. Within 6e-16
    relative of mpmath and of the kernel (3.6e-16 inside, 5.4e-16 on the
    direct form). The Poisson and negative binomial anchors call it on
    their hot path, where the kernel's exact remainders of d v made the
    conjecture scan ~4% slower."""
    if not (0.5 * m <= x <= 2.0 * m):
        return x * math.log(x / m) + m - x
    d = x - m
    v = d / (x + m)
    w = v * v
    series = 0.0
    for c in _DEVIANCE_TERMS[bisect_left(_DEVIANCE_MAX_W, w)]:
        series = series * w + c
    u = 2.0 * x * v * w
    return d * v + (u + 3.0 * u * w * series) / 3.0  # 1/3 is not a double


def ln_gamma(a):
    """Natural log of the Gamma function for a > 0, from math.lgamma, which
    CPython computes itself (not through libm) as a Lanczos sum (Lanczos,
    SIAM J. Numer. Anal. B 1, 1964). Against 40-digit mpmath its error is
    at most 1.2e-15 max(1, |ln Gamma(a)|) across [1e-6, 1e8], the worst
    near a = 2, and under 4e-16 of that from a = 10 up.
    """
    return math.lgamma(_check_positive("ln_gamma argument", a))


def _two_product_error(u, v, p):
    """u v - p exactly, for p = fl(u v): Dekker's TwoProduct with Veltkamp's
    split of each factor into halves whose products are exact doubles.
    Exact while no partial product underflows or overflows."""
    t = _SPLITTER * u
    u_hi = t - (t - u)
    u_lo = u - u_hi
    t = _SPLITTER * v
    v_hi = t - (t - v)
    v_lo = v - v_hi
    return u_lo * v_lo - (((p - u_hi * v_hi) - u_lo * v_hi) - u_hi * v_lo)


def _log_ratio_term(a, x):
    """a ln(x/a) - (x - a) = -a eta^2 / 2, to full relative accuracy near x = a.

    Outside [a/2, 2a], the direct form; inside, _deviance at d = x - a,
    which is exact there (Sterbenz).
    """
    if not (0.5 * a <= x <= 2.0 * a):
        ratio = x / a
        if ratio == 0.0:  # x subnormal: x/a underflows, split the logarithm
            return a * (math.log(x) - math.log(a)) - (x - a)
        return a * math.log(ratio) - (x - a)
    return _deviance(a, x - a)


def _deviance(a, d):
    """a ln(1 + d/a) - d = -a eta^2 / 2 at x = a + d, from the offset d, for
    -a/2 <= d <= a: the deviance in the atanh series of ln(x/a) =
    2 atanh(v), v = d / (2a + d) (Loader's bd0, 2000, with the roles of x
    and a swapped):

        a ln(x/a) - d = -d v + 2 a v^3 S(v^2),   S(w) = sum_k w^k / (2k + 3).

    The leading -d v holds all but ~|v| / 3 <= 1/9 of the result, so it is
    formed from exact parts: the rounding error of s = fl(2a + d) by
    Knuth's TwoSum, the division remainder d - v s of v = fl(d / s)
    (d - fl(v s) by Sterbenz, v s - fl(v s) by Dekker's TwoProduct), and
    d v - fl(d v) by TwoProduct. To first order the quotient d / (2a + d)
    is v + (remainder - v (2a + d - s)) / s. The series term is
    (u + 3 u w S_1(w)) / 3 with u = 2 a v w and S(w) = 1/3 + w S_1(w), S_1
    a Horner sum over as many coefficients as w needs. Against mpmath the
    result is within 2e-16 relative (1.96e-16 on 100,000 seeded points),
    less than an ulp off where |v| < 1/10 (0.66 ulp; up to 1.2 near
    |v| = 1/3, where the series term is ~1/8 of the result), and exactly
    0.0 at d = 0. TwoProduct stays exact: for a >= MIN_SHAPE and d != 0,
    |d v| > 2^-130, so the lowest bits of its partial products sit far
    above the subnormals, near 2^-240. Where d = x - a for a double x, s
    and its error are those of fl(x + a), the same real sum rounded once,
    so the result is _log_ratio_term(a, x) to the bit. Where x is not a
    double, as at a band's edge a +- kappa sqrt(a), the result carries no
    rounding of x: half an ulp of x moves P by ~ulp(a) / sqrt(a) relative.
    """
    two_a = 2.0 * a
    s = two_a + d
    t = s - two_a
    s_err = (d - t) + (two_a - (s - t))
    v = d / s
    q = v * s
    r = (d - q) - _two_product_error(v, s, q)
    p = d * v
    w = v * v
    series = 0.0
    for c in _DEVIANCE_TERMS[bisect_left(_DEVIANCE_MAX_W, w)]:
        series = series * w + c
    u = two_a * v * w
    tail = (u + 3.0 * u * w * series) / 3.0  # 1/3 is not a double
    return (tail - (_two_product_error(d, v, p) + d * ((r - v * s_err) / s))) - p


def _log_prefactor(a, x):
    """a ln x - x - ln Gamma(a), accurate to ~1e-15 absolute near x ~ a."""
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    return _log_ratio_term(a, x) - _stirling_shift(a)


def _stirling_shift(a):
    """ln Gamma(a) - (a ln a - a) for a >= 10, from Stirling's series: the
    part of the log-prefactor a ln x - x - ln Gamma(a) = _log_ratio_term(a, x)
    - _stirling_shift(a) that depends on a alone."""
    return -0.5 * math.log(a) + _HALF_LOG_TWO_PI + _stirlerr(a)


def _temme(a, d, half_a_eta2):
    """Temme's uniform expansion for a >= TEMME_MIN_SHAPE: (y, R) with

        Q(a, x) = erfc(y) / 2 + R,    P(a, x) = erfc(-y) / 2 - R,

    y = eta sqrt(a/2), eta^2 / 2 = lambda - 1 - ln lambda, lambda = x/a,
    sign(eta) = sign(d), d = x - a (any double of that sign),
    R = e^(-y^2) / sqrt(2 pi a) sum_k C_k(eta) a^-k, and half_a_eta2 =
    a eta^2 / 2 = -_log_ratio_term(a, x). Q is then accurate to ~2e-16
    relative for x <= a and P for x >= a. P below the mean is accurate
    while a eta^2 / 2 <= min(_TEMME_EXPONENT_CUTOFF, 0.08 a), where
    eta^2 <= 0.16 and the table gives C_k(eta) to full precision, to 5e-15
    plus 5e-16 per unit of a eta^2 / 2, the error of the exponent
    (measured: 6.5e-15, and 3.8e-16 per unit). The sum keeps only the rows
    and columns of the table that a and eta need (see _temme_tables).
    """
    y = math.copysign(math.sqrt(half_a_eta2), d)
    if half_a_eta2 > _TEMME_EXPONENT_CUTOFF:
        return y, 0.0
    eta = y * math.sqrt(2.0 / a)
    series = 0.0
    for row in _TEMME_TERMS[bisect_left(_TEMME_SHAPES, a)][bisect(_TEMME_ETAS, abs(eta))]:
        coeff = 0.0
        for c in row:
            coeff = coeff * eta + c
        series = series / a + coeff
    return y, math.exp(-half_a_eta2) / math.sqrt(2.0 * math.pi * a) * series


def _temme_band(a, w):
    """P(a, a + w) - P(a, a - w) for TEMME_MIN_SHAPE <= a <= MAX_SHAPE and
    0 < w <= a/2, by Temme's P form at both edges (see _temme), whose
    exponents come from the offsets +-w themselves (_deviance): the edges
    a +- w are never rounded to doubles. None where the lower edge lies
    below Temme's band, a eta^2 / 2 > min(_TEMME_EXPONENT_CUTOFF, 0.08 a)
    (_large_shape_lower's test), where gamma_prob takes the rounded edges
    instead.

    The edges share sqrt(2 pi a), sqrt(2/a), the table's shape bin and one
    pass of Horner's scheme, which sums both edges' C_k(eta) a^-k over the
    cell of the lower edge's |eta|. That is the larger (the lower edge's
    a eta^2 / 2 exceeds the upper's, as 2 atanh(u) > 2u), so the cell
    keeps every term the upper edge's would, and the upper's sum is within
    the cutoff too. The erfc(-y) / 2 terms combine to
    (erf(y_high) - erf(y_low)) / 2, a sum of two positive terms, where a
    difference of the two P would cancel their roundings into the band.
    Within 3e-16 relative of 40-digit mpmath at the exact edges (measured
    2.9e-16 on 6,400 seeded points at kappa = 0.5 to 4; the rounded edges
    cost up to 5.7e-13 at a ~ 9e6).
    """
    low = -_deviance(a, -w)
    if low > min(_TEMME_EXPONENT_CUTOFF, 0.08 * a):
        return None
    high = -_deviance(a, w)
    scale = math.sqrt(2.0 / a)
    y_low, y_high = -math.sqrt(low), math.sqrt(high)
    eta_low, eta_high = y_low * scale, y_high * scale
    sum_low = sum_high = 0.0
    for row in _TEMME_TERMS[bisect_left(_TEMME_SHAPES, a)][bisect(_TEMME_ETAS, -eta_low)]:
        c_low = c_high = 0.0
        for c in row:
            c_low = c_low * eta_low + c
            c_high = c_high * eta_high + c
        sum_low = sum_low / a + c_low
        sum_high = sum_high / a + c_high
    root = math.sqrt(2.0 * math.pi * a)
    r_low = math.exp(-low) / root * sum_low
    r_high = math.exp(-high) / root * sum_high
    return _probability(0.5 * (math.erf(y_high) - math.erf(y_low)) - (r_high - r_low))


def _check_domain(a, x):
    """(float(a), float(x)), once a is a shape in [MIN_SHAPE, MAX_SHAPE]
    and x finite and nonnegative, each a float or an int, not a bool."""
    # an int a needs no finiteness test: the range test bounds it, where
    # math.isfinite would raise OverflowError beyond the double range
    if not (isinstance(a, float) and math.isfinite(a)
            or isinstance(a, int) and not isinstance(a, bool)):
        raise ValueError(f"shape parameter must be finite, got {_describe(a)}")
    if not (MIN_SHAPE <= a <= MAX_SHAPE):
        raise ValueError(
            f"shape parameter {_describe(a)} outside supported range [{MIN_SHAPE}, {MAX_SHAPE}]"
        )
    if not (isinstance(x, float) and math.isfinite(x)
            or isinstance(x, int) and not isinstance(x, bool) and x <= _MAX_DOUBLE) or x < 0.0:
        raise ValueError(f"argument must be finite and nonnegative, got {_describe(x)}")
    return float(a), float(x)


# Each public incomplete gamma opens with one guard: plain floats, the
# usual case, skip _check_domain when type(a) is float and type(x) is float
# and MIN_SHAPE <= a <= MAX_SHAPE and 0.0 <= x <= _MAX_DOUBLE. _check_domain
# accepts every such pair (the range tests exclude NaN and +-inf) and
# returns it unchanged, float(a) and float(x) being a and x themselves,
# -0.0 included; anything else goes through it, the one place that tells
# what is wrong, and the body then runs on what it returns. The guard saves
# ~0.15 us of the call's ~2.6 us at (2.0, 0.5) (CPython 3.11).


def lower_series(a, x):
    """P(a, x) from the lower side, never from Q.

    - x < a + 1, or a < TEMME_MIN_SHAPE: the lower power series,
      Kahan-compensated. Below x = a + 1 at a < TEMME_MIN_SHAPE it is
      within 3.5e-15 + 3.2e-16 |ln P| relative (~1e-14 while |ln P| <= 20,
      1e-13 at |ln P| ~ 600), the rounding of the prefactor's exponent;
      the sum itself is within 4.2e-16. Near x = a its stopping test ignores
      the slowly decaying tail, which leaves ~1.35e-16 sqrt(a) relative
      there (4.3e-13 at a = 1e7, 1.3e-13 at 1e6). Far above the mean it
      grows to ~1e-16 x, the rounding of the prefactor's exponent of size
      ~x: 4.6e-14 at (1, 709.5), 2.1e-14 at (1, 600), 1.4e-14 at (50, 400)
      against 40-digit mpmath (the sum's own ~x roundings reach 4e-14 at
      (5.5, 596), where P rounds to 1). It costs
      O(sqrt(a)) terms near x = a and O(x) terms above it. A result below
      the normal double range is a LogProbability whose ``log`` is the
      log-prefactor plus the log of the series sum. Far above the mean at
      a < TEMME_MIN_SHAPE the sum overflows (from x ~ 710 at a = 1) and it
      raises ConvergenceError.
    - x >= a + 1 and a >= TEMME_MIN_SHAPE: Temme's P form
      erfc(-eta sqrt(a/2)) / 2 - R_a(eta) in O(1), to ~2e-16 relative.
    """
    if not (type(a) is float and type(x) is float
            and MIN_SHAPE <= a <= MAX_SHAPE and 0.0 <= x <= _MAX_DOUBLE):
        a, x = _check_domain(a, x)
    if x == 0.0:
        return Probability(0.0)
    if a >= TEMME_MIN_SHAPE and x >= a + 1.0:
        return _large_shape_lower(a, x - a, x, -_log_ratio_term(a, x))
    return _from_log_parts(_series_sum(a, x), _log_prefactor(a, x))


def _series_sum(a, x):
    """The lower series' sum sum_n x^n / (a (a + 1) ... (a + n)) for x > 0:
    P(a, x) e^-(a ln x - x - ln Gamma(a)). Raises ConvergenceError where
    the sum overflows.

    Each pass forms four terms t1..t4 by the ratio recursion and adds
    (t1 + t2) + (t3 + t4) to the total in one Kahan-compensated step; it
    stops once t4 is below REL_TOL of the total, at the pass that holds the
    first term under REL_TOL, so it reads that term and at most three more,
    and truncates no more than a stop there. A call takes 4.0 us at
    (50, 45), against 6.5 us adding and testing term by term (CPython
    3.11); MAX_ITERATIONS still counts terms."""
    term = 1.0 / a
    total = term
    comp = 0.0
    ap = a
    tol = REL_TOL
    for _ in range(MAX_ITERATIONS // 4):
        ap += 1.0
        t1 = term * (x / ap)
        ap += 1.0
        t2 = t1 * (x / ap)
        ap += 1.0
        t3 = t2 * (x / ap)
        ap += 1.0
        term = t3 * (x / ap)
        y = ((t1 + t2) + (t3 + term)) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # t4 < total * tol while both are finite; an overflowed sum stops
        # here too, at once (t4 finite, total inf) or one pass after both
        # overflow (total nan)
        if not term >= total * tol:
            if not total < math.inf:
                raise ConvergenceError(
                    f"lower series overflowed for a={a}, x={x}; "
                    "reg_lower_gamma takes Q there"
                )
            return total
    raise ConvergenceError(f"lower series did not converge for a={a}, x={x}")


def _lower_asymptotic(a, d, x, half_a_eta2):
    """P(a, x) far below the mean at large shapes, from the expansion for
    large a at fixed lambda = x/a < 1 (DLMF 8.11.iii):

        gamma(a, x) ~ x^a e^-x / (a - x) sum_k (-t)^k b_k(lambda),

    t = a / (a - x)^2, b_0 = 1 and b_k(lambda) = lambda q_k(lambda) with
    q_k the rows of _ASYMPTOTIC_TERMS. For the offset d = x - a, whose
    negation it takes for a - x, half_a_eta2 = a eta^2 / 2 =
    -_log_ratio_term(a, x), 0 < x < a and t <= 1 / _ASYMPTOTIC_MIN_SPREAD,
    where reg_lower_gamma takes it. The sum lies in (1 - t lambda, 1), so
    the first term below _ASYMPTOTIC_TOL = 2^-56 in magnitude, where it
    stops, is below 2^-56 of the sum to within 2%; that comes before the
    terms of the divergent expansion begin to grow, after at most 34
    terms. The terms after b_0 = 1 are added apart, so their roundings
    stay ~t below an ulp of the sum. The sum divided by a - x is then
    within 2e-16 relative of 40-digit mpmath (measured 1.6e-16 on 1,600
    seeded points), and P carries the error of its exponent alone, the
    prefactor's -half_a_eta2 - _stirling_shift(a). O(1): up to 34 * 35 / 2
    Horner steps, ~20 us on CPython 3.11 at the band's edge.
    """
    lam = x / a
    gap = -d  # a - x
    ratio = -a / (gap * gap)
    power = lam
    tail = 0.0
    tol = _ASYMPTOTIC_TOL
    for row in _ASYMPTOTIC_TERMS:
        power *= ratio
        b = 0.0
        for c in row:
            b = b * lam + c
        term = power * b
        tail += term
        if -tol < term < tol:
            return _from_log_parts((1.0 + tail) / gap, -half_a_eta2 - _stirling_shift(a))
    raise ConvergenceError(f"asymptotic sum for P did not converge for a={a}, x={x}")


def _lentz(a, x):
    """The Legendre continued fraction of Q(a, x) e^x x^-a Gamma(a), by
    Lentz's method, for x >= 0 and b_0 = x + 1 - a > 0. Below that its first
    denominators change sign and the loop can stop on a false convergence.

    The loop needs no zero guards. With b_i = b_0 + 2i and a_i = -i (i - a),
    the denominators D_i = b_i + a_i / D_(i-1) and C_i = b_i + a_i / C_(i-1)
    stay >= b_0 + i, by induction: D_0 = b_0 and C_1 = b_1 + a_1 TINY; where
    i <= a, a_i >= 0; where i > a, D_i >= b_0 + 2i - i (i - a) / (b_0 + i - 1)
    >= b_0 + i, as b_0 + i - 1 >= i - a is x >= 0 (C_i alike). In doubles a
    step scales the last relative shortfall below b_0 + i by at most
    i / (b_0 + i) < 1, as |a_i| / (b_0 + i - 1) <= i, and its roundings add
    a few eps, so D_i and C_i stay above (b_0 + i)(1 - 6 i eps), within
    1.3e-9 of the bound up to MAX_ITERATIONS: no denominator comes near 0,
    where Lentz's guards would put TINY in its place. Each caller
    has b_0 > 0: x >= a + 1 in reg_lower_gamma and upper_continued_fraction,
    a0 <= x or a0 <= 1 with x >= UPPER_MIN_X on the latter's shape-lowered
    path, and (1/2, y^2 >= 700) in _scaled_normal_sf.

    Each pass takes two steps and tests only the second one's delta, so
    the loop may run one step past the first delta within tol. The index i
    runs as a float, so a_i is float arithmetic only, and the stopping test
    |delta - 1| < tol is written -tol < delta - 1 < tol, which has the same
    truth value for every double, +-0 and NaN included. Without zero guards
    and with half the tests, a call at (1e3, 1011) takes 12.6 us, against
    15.3 us testing every step and ~20 us with the guards (CPython 3.11);
    MAX_ITERATIONS still counts steps."""
    # one rounding of x + 1 - a: x + 1.0 is exact for x >= 1, 1.0 - a for
    # a >= 1/2 (below that b > 1/2, so a second rounding does no harm)
    b = x + 1.0 - a if x >= 1.0 else (1.0 - a) + x
    c = 1.0 / TINY
    d = 1.0 / b
    h = d
    i = 0.0
    tol = REL_TOL
    for _ in range(MAX_ITERATIONS // 2):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if -tol < delta - 1.0 < tol:
            return h
    raise ConvergenceError(f"continued fraction did not converge for a={a}, x={x}")


def _scaled_normal_sf(w):
    """e^(w^2/2) P{Z > w} = erfc(y) e^(y^2) / 2 for w >= 0, y = w / sqrt 2,
    without overflow or underflow; within 8e-16 relative of 40-digit mpmath.

    - y^2 < 700, where erfc(y) is a normal double: libm's erfc and exp, with
      e^(y^2) corrected by y^2's exact rounding error. Uncorrected, that
      error (up to y^2 eps / 2) costs 1.4e-13 relative near y^2 = 700. The
      rounding of y itself moves the result by only ~eps, as the log of
      erfc(y) e^(y^2) has slope ~-1/y.
    - beyond: Lentz's fraction for Q(1/2, y^2) = erfc(y), as
      y / (2 sqrt pi) times _lentz(1/2, y^2);
    - where y^2 overflows (y > 1.3e154): the asymptote 1 / (2 sqrt(pi) y),
      whose relative error 1 / (2 y^2) is far below eps there.
    """
    y = w / _SQRT2
    x = y * y
    if x < _ERFC_MAX_EXPONENT:
        return 0.5 * math.exp(x) * math.erfc(y) * (1.0 + _two_product_error(y, y, x))
    if x < math.inf:
        return y * _HALF_INV_SQRT_PI * _lentz(0.5, x)
    return _HALF_INV_SQRT_PI / y


def upper_continued_fraction(a, x):
    """Q(a, x) = 1 - P(a, x) from the upper side, never from P.

    - x >= a + 1: Lentz's continued fraction, to ~1e-14 relative over the
      supported shapes (the error grows with the log-prefactor); a result
      below the normal double range is a LogProbability.
    - x < a + 1 and a >= TEMME_MIN_SHAPE: Temme's Q form
      erfc(eta sqrt(a/2)) / 2 + R_a(eta) in O(1), to ~2e-16 relative.
    - x < a + 1 and a < TEMME_MIN_SHAPE: the fraction at a0 = a - n, the
      shape lowered by n < a whole steps to a0 <= x or a0 <= 1, where it
      converges, then Q(a, x) = Q(a0, x) + sum_{j<n} x^(a0+j) e^-x /
      Gamma(a0+j+1), summed exactly rounded; ~1e-13 relative, the worst
      near x = UPPER_MIN_X, below which it raises ConvergenceError
      (except Q(a, 0) = 1).
    """
    if not (type(a) is float and type(x) is float
            and MIN_SHAPE <= a <= MAX_SHAPE and 0.0 <= x <= _MAX_DOUBLE):
        a, x = _check_domain(a, x)
    if x >= a + 1.0:
        return _from_log_parts(_lentz(a, x), _log_prefactor(a, x))
    if x == 0.0:
        return Probability(1.0)
    if a >= TEMME_MIN_SHAPE:
        y, remainder = _temme(a, x - a, -_log_ratio_term(a, x))
        return _probability(0.5 * math.erfc(y) + remainder)
    if x < UPPER_MIN_X:
        raise ConvergenceError(
            f"continued fraction for Q is not accurate below x={UPPER_MIN_X} "
            f"at shapes below {TEMME_MIN_SHAPE}: a={a}, x={x}"
        )
    steps = max(0, min(math.ceil(a - x), math.ceil(a) - 1))
    a0 = a - steps
    terms = [_lentz(a0, x)]
    weight = 1.0  # x^j Gamma(a0) / Gamma(a0 + j)
    for j in range(steps):
        terms.append(weight / (a0 + j))
        weight *= x / (a0 + j)
    return _from_log_parts(math.fsum(terms), _log_prefactor(a0, x))


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    The one dispatch point among the methods, with a eta^2 / 2 =
    -_log_ratio_term(a, x):

    - a < TEMME_MIN_SHAPE, x < a + 1: the lower series, within
      3.5e-15 + 3.2e-16 |ln P| relative;
    - a < TEMME_MIN_SHAPE, x >= a + 1: 1 - Lentz's fraction, ~1e-15
      absolute;
    - a >= TEMME_MIN_SHAPE, x >= a + 1, or 0 < x < a + 1 with
      a eta^2 / 2 <= min(_TEMME_EXPONENT_CUTOFF, 0.08 a) (eta^2 <= 0.16):
      Temme's P form erfc(-y) / 2 - R in O(1), ~2e-16 relative above the
      mean and 5e-15 + 5e-16 a eta^2 / 2 below it, smooth enough for the
      strict monotonicity of the band probability at a ~ 1e6;
    - a >= TEMME_MIN_SHAPE, further below the mean, with
      (a - x)^2 >= _ASYMPTOTIC_MIN_SPREAD a (= 60 a): the asymptotic sum
      of _lower_asymptotic, at most 34 terms, ~20 us at the band's edge
      and ~5 us at x/a <= 0.8 (CPython 3.11); the same error as Temme's
      below the mean, the prefactor's, plus 2e-16 (up to 1.5e-15 per unit
      of a eta^2 / 2 below x = a/2, where the exponent takes its direct
      form);
    - a >= TEMME_MIN_SHAPE, short of that: the lower series, only at
      a < 494 and x/a < 0.6515, at most 68 terms; the same error plus its
      truncated tail, up to 2e-15 relative.

    Every path at a >= TEMME_MIN_SHAPE takes its exponent from the
    a eta^2 / 2 computed here. Results below the normal double range come
    from the series or the asymptotic sum and are LogProbability values.
    The dispatch is this function, and from a >= TEMME_MIN_SHAPE up
    _large_shape_lower, which takes the edge's offset d = x - a with the
    exponent: there gamma_prob's h passes d = (kappa - 1) alpha and
    _deviance's exponent from it, so that the rounding of x = kappa alpha
    reaches only the sums. gamma_prob's band takes both edges from their
    offsets +-kappa sqrt(alpha) in one frame (_temme_band) where both lie in
    Temme's band, and elsewhere calls this function at both rounded edges.
    """
    if not (type(a) is float and type(x) is float
            and MIN_SHAPE <= a <= MAX_SHAPE and 0.0 <= x <= _MAX_DOUBLE):
        a, x = _check_domain(a, x)
    if x == 0.0:
        return Probability(0.0)
    if a < TEMME_MIN_SHAPE:
        if x < a + 1.0:
            return _from_log_parts(_series_sum(a, x), _log_prefactor(a, x))
        return _probability(1.0 - _from_log_parts(_lentz(a, x), _log_prefactor(a, x)))
    return _large_shape_lower(a, x - a, x, -_log_ratio_term(a, x))


def _large_shape_lower(a, d, x, half_a_eta2):
    """reg_lower_gamma at TEMME_MIN_SHAPE <= a <= MAX_SHAPE and 0 < x,
    x = a + d, given half_a_eta2 = a eta^2 / 2 there. Temme's P form
    erfc(-y) / 2 - R (see _temme) reads only d's sign and the asymptotic
    sum reads d for a - x, so the result carries the roundings of d and of
    the exponent, and of x only where the sums take x/a or x^n:
    reg_lower_gamma and lower_series pass d = fl(x - a), and gamma_prob.h
    its edge's offset (kappa - 1) alpha with the exponent _deviance gives
    from it. Every point above the mean takes Temme's P form: below
    x = a + 1 it lies in Temme's band, a eta^2 / 2 < 1/200."""
    if d > 0.0 or half_a_eta2 <= min(_TEMME_EXPONENT_CUTOFF, 0.08 * a):
        y, remainder = _temme(a, d, half_a_eta2)
        return _probability(0.5 * math.erfc(-y) - remainder)
    if d * d >= _ASYMPTOTIC_MIN_SPREAD * a:
        return _lower_asymptotic(a, d, x, half_a_eta2)
    return _from_log_parts(_series_sum(a, x), -half_a_eta2 - _stirling_shift(a))


def std_normal_band(kappa):
    """P{|Z| <= kappa} = erf(kappa / sqrt 2) for a standard normal Z."""
    return Probability(math.erf(_check_positive("kappa", kappa) / _SQRT2))


def std_normal_cdf(z):
    """Standard normal CDF, erfc(-z / sqrt 2) / 2: within ~z^2 1e-16 relative
    (2e-13 at z = -37, below which it is subnormal)."""
    return Probability(0.5 * math.erfc(-float(z) / _SQRT2))


def log_std_normal_sf(z):
    """log P{Z > z}, usable far into the upper tail.

    - Where erfc(z / sqrt 2) / 2 is a normal double (z <= ~37.5): its log,
      within 1e-15 absolute up to z = 2 and 2.5e-16 z^2 beyond (2.2e-13
      at z = 37), the rounding of z / sqrt 2 times the slope ~z of the log.
    - Further out: ln _scaled_normal_sf(z) - z^2 / 2, within 1.1e-16 z^2
      absolute; -inf once z^2 overflows (z > 1.3e154) and at z = +inf.
    - z = -inf gives 0.0 and NaN gives NaN.
    """
    z = float(z)
    value = 0.5 * math.erfc(z / _SQRT2)
    if value >= _MIN_NORMAL:
        return math.log(value)
    if z == math.inf:
        return -math.inf
    return math.log(_scaled_normal_sf(z)) - 0.5 * z * z
