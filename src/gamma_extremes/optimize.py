"""One-dimensional minimization of h(kappa, .) over the shape parameter.

Optimization runs in log-alpha on one evenly spaced grid over [1e-4, 1e6],
which covers the full feature range (argmins from ~0.14 to ~33.5, infima at
the 0 and infinity boundaries). For kappa <= 1 the infimum is the
alpha -> infinity limit (a lemma in closed form, see min_h), so min_h
reports it at the upper grid end after one call of h. For kappa > 1 the
bracket search starts at the grid point nearest a two-term estimate of the
argmin (_argmin_seed: the Edgeworth estimate plus a term that gives it the
argmin's limits at kappa -> 1 and kappa -> inf) and walks downhill on that
grid; at every table kappa it starts on the triple's middle, in 3 calls of
h. Where it reaches a grid end, one more call, at the other end, gives
the scan's diagnosis; it falls back to the left-to-right scan of
bracket_minimum at any other tie. h(kappa, .) is unimodal for kappa > 1,
so both find the same grid triple or grid end, whatever the seed. Both
read grid points by index (_lin_point) and never build the grid. brent_min is a
classic golden-section / parabolic-interpolation minimizer (Numerical
Recipes style) with an evaluation budget, which also stops at the rounding
floor of the objective: a minimum is located only to about sqrt(eps) of
its scale (Brent, Algorithms for Minimization without Derivatives, 1973,
ch. 5). min_h hands it the values the walk has found at the bracket's
ends, so its first step is a parabola rather than a golden section: 5-6
evaluations at each table kappa, 39 over the seven (51 from a cold
start), and 6-7 calls of h in all. min_h resolves the argmin to ~1e-7
relative, about 7 of the 12 digits `minimize` prints, and the minimum
itself to ~1e-15.
"""

import math

from .gamma_prob import h
from .specfun import _Record, _check_positive, _describe, _probability

__all__ = [
    "OptimizationResult",
    "NoInteriorMinimum",
    "MaxEvaluations",
    "bracket_minimum",
    "brent_min",
    "min_h",
    "edgeworth_argmin",
    "scan",
    "DEFAULT_LOG_LO",
    "DEFAULT_LOG_HI",
]

DEFAULT_LOG_LO = math.log(1e-4)
DEFAULT_LOG_HI = math.log(1e6)
DEFAULT_TOL = 1e-8

_GOLDEN = 0.3819660112501051
_TWO_EPS = 2.0 * 2.0 ** -52
_FIT_SPAN = 1e4  # brent_min's stop needs w and v within this many floors of x
# u* - 1/3 and 1 - 45 (u* - 1/3) / 7, with u* the root of E_1(u) = e^-u
# (see _argmin_seed)
_SEED_SCALE = 0.43481820438490376 - 1.0 / 3.0
_SEED_SHIFT = 1.0 - 45.0 * _SEED_SCALE / 7.0


class NoInteriorMinimum(Exception):
    """The sampled minimum sits on a boundary of the search interval.

    For kappa <= 1 this is the expected diagnosis: the infimum of
    h(kappa, .) is a limit, not an attained minimum. For kappa > 1, where
    h(kappa, .) tends to 1 at both ends, it means the minimum lies outside
    the search interval. abscissa is the boundary point in the caller's
    coordinate: bracket_minimum reports its own x, min_h the shape alpha.
    """

    def __init__(self, boundary, abscissa, value):
        self.boundary = boundary  # "lower" or "upper"
        self.abscissa = abscissa
        self.value = value
        super().__init__(
            f"no interior minimum: grid minimum at {boundary} boundary "
            f"(x={abscissa:.6g}, f={value:.6g})"
        )


class MaxEvaluations(Exception):
    """The minimizer exceeded its evaluation budget."""


def _log_grid(lo, hi, n):
    """n log-spaced points from lo to hi, the last one exactly hi."""
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (n - 1)
    return [math.exp(log_lo + i * step) if i < n - 1 else hi for i in range(n)]


def _lin_point(lo, hi, n, i):
    """Point i of n evenly spaced points from lo to hi, the last one exactly hi."""
    return lo + i * ((hi - lo) / (n - 1)) if i < n - 1 else hi


def _lin_grid(lo, hi, n):
    """The n points _lin_point reads one at a time, as a list."""
    return [_lin_point(lo, hi, n, i) for i in range(n)]


class OptimizationResult(_Record):
    _fields = __slots__ = ("argmin", "min_value", "bracket", "evaluations", "converged")


def _check_count(name, value, least):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"need an int {name} >= {least}, got {_describe(value)}")


def bracket_minimum(f, lo, hi, grid_n):
    """Bracket a minimum of f on [lo, hi] from a uniform grid.

    Returns the first triple (x[i-1], x[i], x[i+1]) scanning left to right
    with f strictly smaller at the middle point. The grid is evaluated
    lazily, left to right, and the scan stops at that triple, so f is
    called i + 2 times; only when no triple exists are all grid_n points
    evaluated, and NoInteriorMinimum is raised for the sampled minimum at
    a boundary.

    min_h calls it only for kappa > 1, when its downhill walk from
    _argmin_seed meets a tie away from the grid's ends.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo}, {hi}")
    _check_count("grid_n", grid_n, 3)
    first = below = f(lo)
    here = f(_lin_point(lo, hi, grid_n, 1))
    for i in range(1, grid_n - 1):
        above = f(_lin_point(lo, hi, grid_n, i + 1))
        if here < below and here < above:
            return tuple(_lin_point(lo, hi, grid_n, j) for j in (i - 1, i, i + 1))
        below, here = here, above
    if first <= above:
        raise NoInteriorMinimum("lower", lo, first)
    raise NoInteriorMinimum("upper", hi, above)


def brent_min(f, bracket, tol, max_evaluations=200, ends=None):
    """Locate the bracketed minimum to abscissa tolerance tol.

    With ends = (f(lo), f(hi)), values the caller already has, the search
    starts warm: Brent's two other points w and v are the bracket's ends,
    the lower value first, and the last two steps count as the bracket's
    width, so the first step is the vertex of the parabola through the
    three known points rather than a golden section. The ends cost no
    evaluation. Without ends the search starts cold, at the middle point
    alone (on (x - 2)^2 from the bracket (0, 1.5, 5): 5 evaluations warm,
    7 cold).

    The search also ends, converged, at the objective's rounding floor:
    when an accepted parabolic step is shorter than
    delta = sqrt(2 eps |f(x)| / f''), eps = 2^-52, with f'' the curvature
    of the parabola through (x, w, v). A step that short changes f by less
    than eps |f(x)|, one rounding of f, so no evaluation can resolve it and
    the argmin is known to about delta, whatever tol asks.

    The rule fires only while w and v lie within 1e4 delta of x, where the
    fit can be trusted: the parabola's vertex is off the true minimum by
    about |f'''/f''| |x - w| |x - v| / 6, which that span keeps within
    delta while |f'''/f''| delta <= 6e-8. For h(kappa, e^y) the product
    is 6e-10 to 6.3e-8 over the table kappa (1.01 to 4) and 1.1e-7 at
    kappa = 9, a bound of 2 delta. Without the guard a fit over points
    0.01-0.04 apart (3e5 delta) stopped 2e-5 off the argmin at
    kappa = 5.32. The guard can also keep the rule from firing: a fit that
    lands on the vertex while w and v are far leaves the next points where
    f is flat to the last bit, with no curvature to fit, and the search
    ends on tol (1 + 1e-3 (x - 2)^2 from the bracket (0, 1.5, 5) takes 37
    evaluations, as without the rule). An objective without rounding noise
    at its minimum, such as (x - 2)^2, has delta -> 0 there and stops on
    tol alone.
    """
    lo, mid, hi = bracket
    if not (lo < mid < hi):
        raise ValueError(f"invalid bracket {bracket}")
    tol = _check_positive("tol", tol)

    evaluations = 0

    def eval_f(xx):
        nonlocal evaluations
        evaluations += 1
        if evaluations > max_evaluations:
            raise MaxEvaluations(f"exceeded {max_evaluations} objective evaluations")
        return f(xx)

    a, b = lo, hi
    x = w = v = mid
    fx = fw = fv = eval_f(x)
    d = e = 0.0
    if ends is not None:
        # warm start: w and v are the bracket's ends, the lower value first,
        # and e = hi - lo admits the parabola through them and x at once
        f_lo, f_hi = ends
        w, fw, v, fv = (hi, f_hi, lo, f_lo) if f_hi < f_lo else (lo, f_lo, hi, f_hi)
        d = e = hi - lo
    converged = False
    while evaluations < max_evaluations:
        m = 0.5 * (a + b)
        tol1 = tol * abs(x) + 1e-15
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            converged = True
            break
        use_golden = True
        if abs(e) > tol1:
            # parabolic fit through (x, w, v)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            fit = 2.0 * (q - r)
            if fit > 0.0:
                p = -p
            q = abs(fit)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                # the rounding floor, squared: delta^2 curvature = 2 eps |f(x)|
                curvature = fit / ((x - w) * (x - v) * (w - v))
                floor = _TWO_EPS * abs(fx)
                span = max(abs(x - w), abs(x - v)) / _FIT_SPAN
                if curvature > 0.0 and d * d * curvature < floor and span * span * curvature <= floor:
                    converged = True
                    break
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = eval_f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    min_value = eval_f(x)  # re-evaluated, never a stale cache
    return OptimizationResult(x, min_value, (lo, mid, hi), evaluations, converged)


def _descend_to_triple(f, lo, hi, n, x0):
    """Walk downhill on the grid _lin_grid(lo, hi, n) from the point nearest x0.

    Returns the first triple (xs[i-1], xs[i], xs[i+1]) with f strictly
    smaller at the middle point that the walk meets; the index of the grid
    end it reaches, 0 or n - 1, where it steps onto one strictly downhill
    or, with x0 at or below lo, starts beside the lower end on values that
    do not fall away from it (ties allowed); or None where it meets any
    other tie (or a NaN). f is called three times plus once per step; the
    grid points are read by index, never listed.
    """
    def point(j):
        return _lin_point(lo, hi, n, j)

    last = n - 1
    i = min(max(round((x0 - lo) / (point(1) - lo)), 1), last - 1)
    below, here, above = f(point(i - 1)), f(point(i)), f(point(i + 1))
    if here < below and here < above:
        return (point(i - 1), point(i), point(i + 1))
    if above < here < below:
        step, ahead = 1, above
    elif below < here < above:
        step, ahead = -1, below
    elif x0 <= lo and below <= here <= above:
        return 0
    else:
        return None
    while ahead < here:
        i += step
        if not 0 < i < last:
            return i
        here, ahead = ahead, f(point(i + step))
    if ahead > here:
        return (point(i - 1), point(i), point(i + 1))
    return None


def edgeworth_argmin(kappa):
    """The Edgeworth estimate 1 / (3 (kappa - 1)) of the argmin of h(kappa, .).

    Gamma(alpha)'s skewness 2 / sqrt(alpha) puts the minimum there for
    kappa > 1: the argmin is 1.0005 times the estimate at kappa = 1.001
    and 1.25 times it at kappa = 4. From kappa ~ 6e307 up, where
    3 (kappa - 1) overflows, the estimate is the subnormal (1/3) / (kappa - 1).
    """
    kappa = _check_positive("kappa", kappa)
    if not kappa > 1.0:
        raise ValueError(f"need kappa > 1, got {kappa}")
    return _edgeworth(kappa)


def _edgeworth(kappa):
    """edgeworth_argmin for a float kappa > 1."""
    spread = 3.0 * (kappa - 1.0)
    if spread < math.inf:
        return 1.0 / spread
    return (1.0 / 3.0) / (kappa - 1.0)


def _argmin_seed(kappa):
    """The start of min_h's walk for a float kappa > 1: the two-term estimate
    1 / (3 (kappa - 1)) + _SEED_SCALE / (kappa - _SEED_SHIFT) of the argmin
    of h(kappa, .), which has the argmin's limits at both ends.

    - As kappa -> 1 the argmin is 1 / (3 (kappa - 1)) + 7/45 + O(kappa - 1).
      With s = sqrt(alpha) and e = kappa - 1, the Edgeworth series of
      Gamma(alpha) (cumulants (r - 1)! / s^(r - 2) of the standardized
      variable) gives, near z = e s = 0, (h - 1/2) / phi(0) = e s + 1/(3 s)
      + 1/(540 s^3) - e / (12 s) - e^2 s / 2 - e^3 s^3 / 6 + ..., the
      1/(540 s^3) being the third order at z = 0; setting its derivative in
      s to 0 puts s^2 at 1 / (3 e) + 7/45.
    - As kappa -> inf the argmin tends to 0 and h(kappa, alpha) = 1 -
      alpha E_1(kappa alpha) + O(alpha^2) at a fixed u = kappa alpha, whose
      largest u E_1(u) sits at the root u* of E_1(u) = e^-u: the argmin is
      u* / kappa + O(kappa^-2).

    _SEED_SCALE = u* - 1/3 and _SEED_SHIFT = 1 - 45 _SEED_SCALE / 7 meet
    both. The walk then starts on the grid triple's middle at every table
    kappa and at 397 of the 404 kappa of the tests' dense sweep (1.0001 to
    3000); the other 7 take one step. The estimate is positive and finite
    up to the largest double.
    """
    return _edgeworth(kappa) + _SEED_SCALE / (kappa - _SEED_SHIFT)


def min_h(kappa, tol=DEFAULT_TOL, grid_n=200):
    """Minimize h(kappa, .) over alpha in [1e-4, 1e6], in log coordinates.

    For kappa <= 1 a lemma (the Gamma median lies below the mean; Chen &
    Rubin, Statist. Probab. Lett. 4, 1986; Choi, Proc. AMS 121, 1994) gives
    h(kappa, alpha + 1) - h(kappa, alpha) = x^alpha e^-x / Gamma(alpha + 1)
    (I - 1), x = kappa alpha, I = integral_0^1 kappa (1 + w/alpha)^alpha
    e^(-kappa w) dw < kappa (e^(1-kappa) - 1) / (1 - kappa) <= 1, as
    (1 + w/alpha)^alpha < e^w (the bound is 1 at kappa = 1). So h(kappa,
    alpha) > h(kappa, alpha + n), which tends to 1/2 at kappa = 1 (central
    limit) and to 0 below: inf h(1, .) = 1/2, not attained, and the
    infimum is 0 for kappa < 1. The lemma proves unit steps only; the
    decrease over real alpha is checked on grids, not proved.
    NoInteriorMinimum is raised at the upper grid end after one call of h;
    the full scan of bracket_minimum would reach the same boundary,
    abscissa and value. For kappa > 1 the
    bracket is found by walking downhill on the grid of bracket_minimum
    from the point nearest ln _argmin_seed(kappa); the walk meets the same
    first triple as the full scan because h(kappa, .) is unimodal there,
    in 3 calls of h at every table kappa (3-5 from ln edgeworth_argmin)
    rather than up to ~110. Where the walk reaches a grid end, unimodality
    leaves the grid no strict interior triple, so the scan would report
    the end where h is lower (the lower end on a tie); one call of h at the
    other end gives that verdict, in 4 calls of h where the scan took 200
    (from kappa ~ 4103 up, and from 1 to 1 + 3.5e-7, where the grid's
    first or last triple holds no minimum). Where h is 1.0 on the whole
    grid (from kappa ~ 2.5e5 up; from ~1.8e302 kappa alpha overflows too)
    the seed lies below 1e-4, and the walk, starting beside the lower end
    on a tie, reports that end, as the scan does. Where the walk meets
    another tie, bracket_minimum scans the grid instead. Both read the grid's points by index; no list of grid_n
    points is built.

    brent_min starts from h at the bracket's ends, which the walk or the
    scan has already computed, and stops at h's rounding floor, or on tol
    where that comes first: 5-6 evaluations at each table kappa, 39 over
    the seven, where a cold start took 7-8 and 51 and the search on tol
    alone 11-24 and 117. The argmin is resolved to ~1e-7 relative (the
    floor delta in ln alpha is 0.8e-7 to 1.5e-7 over the table, 2.5e-7 at
    kappa = 1.001), about 7 of the 12 digits `minimize` prints; the
    minimum to ~1e-15. A tol below ~1e-7 buys no further digits.

    Within one call h is evaluated once per point: the objective keeps the
    value at each log-abscissa, so the bracket's ends, brent_min's first
    point (the bracket's middle) and its closing re-evaluation of the
    argmin cost no call of h. evaluations still counts brent_min's
    objective calls, the last two among them. A table kappa takes 6-7
    calls of h in all, 46 over the seven (6-9 from the Edgeworth estimate,
    8-11 from a cold start). Nothing is kept between calls.

    tol and grid_n are checked first, for every kappa. NoInteriorMinimum
    carries the boundary, its alpha and h there; for kappa > 1 it means the
    minimum lies outside the search range.
    """
    kappa = _check_positive("kappa", kappa)
    tol = _check_positive("tol", tol)
    _check_count("grid_n", grid_n, 3)

    values = {}  # h at each log-abscissa this call has evaluated

    def objective(x):
        value = values.get(x)
        if value is None:
            value = values[x] = h(kappa, math.exp(x))
        return value

    if kappa <= 1.0:
        # the lemma: h(kappa, alpha + 1) < h(kappa, alpha) for all alpha > 0;
        # the decrease over real alpha is checked on grids only
        raise NoInteriorMinimum("upper", math.exp(DEFAULT_LOG_HI), objective(DEFAULT_LOG_HI))
    log_bracket = _descend_to_triple(objective, DEFAULT_LOG_LO, DEFAULT_LOG_HI, grid_n,
                                     math.log(_argmin_seed(kappa)))
    if type(log_bracket) is int:
        # the walk reached a grid end: unimodal values on the grid give no
        # strict interior triple, and the scan reports the lower of the two
        # ends' values, the lower grid end on a tie
        f_lo, f_hi = objective(DEFAULT_LOG_LO), objective(DEFAULT_LOG_HI)
        if f_lo <= f_hi:
            raise NoInteriorMinimum("lower", math.exp(DEFAULT_LOG_LO), f_lo)
        raise NoInteriorMinimum("upper", math.exp(DEFAULT_LOG_HI), f_hi)
    if log_bracket is None:
        try:
            log_bracket = bracket_minimum(objective, DEFAULT_LOG_LO, DEFAULT_LOG_HI, grid_n)
        except NoInteriorMinimum as diag:
            raise NoInteriorMinimum(diag.boundary, math.exp(diag.abscissa), diag.value) from None
    lo, _, hi = log_bracket
    result = brent_min(objective, log_bracket, tol, ends=(values[lo], values[hi]))
    bracket = tuple(math.exp(x) for x in result.bracket)
    return OptimizationResult(math.exp(result.argmin), _probability(result.min_value), bracket,
                              result.evaluations, result.converged)


def scan(kappa, alpha_lo, alpha_hi, n):
    """Log-spaced table of n >= 2 rows (alpha, h(kappa, alpha)), alpha_lo to alpha_hi."""
    kappa = _check_positive("kappa", kappa)
    alpha_lo = _check_positive("alpha_lo", alpha_lo)
    alpha_hi = _check_positive("alpha_hi", alpha_hi)
    if not alpha_lo < alpha_hi:
        raise ValueError(f"need alpha_lo < alpha_hi, got {alpha_lo}, {alpha_hi}")
    _check_count("n", n, 2)
    return [(alpha, h(kappa, alpha)) for alpha in _log_grid(alpha_lo, alpha_hi, n)]
