"""One-dimensional minimization of h(kappa, .) over the shape parameter.

Optimization runs in log-alpha on one evenly spaced grid over [1e-4, 1e6],
which covers the full feature range (argmins from ~0.14 to ~33.5, infima at
the 0 and infinity boundaries). For kappa <= 1 the infimum is the
alpha -> infinity limit (a lemma in closed form, see min_h), so min_h
reports it at the upper grid end after one call of h. For kappa > 1 the
bracket search starts at the grid point nearest the Edgeworth estimate of
the argmin and walks downhill on that grid; it falls back to the
left-to-right scan of bracket_minimum at a tie or a grid end. h(kappa, .)
is unimodal for kappa > 1, so both find the same grid triple. Both read
grid points by index (_lin_point) and never build the grid. brent_min is a
classic golden-section / parabolic-interpolation minimizer (Numerical
Recipes style) with an evaluation budget, which also stops at the rounding
floor of the objective: a minimum is located only to about sqrt(eps) of
its scale (Brent, Algorithms for Minimization without Derivatives, 1973,
ch. 5). So min_h resolves the argmin to ~1e-7 relative, about 7 of the 12
digits `minimize` prints, and the minimum itself to ~1e-15.
"""

import math

from .gamma_prob import h
from .specfun import Probability, _Record, _check_positive, _describe

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

    min_h calls it only for kappa > 1, when its downhill walk from the
    Edgeworth seed meets a tie or a grid end.
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


def brent_min(f, bracket, tol, max_evaluations=200):
    """Locate the bracketed minimum to abscissa tolerance tol.

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
    smaller at the middle point that the walk meets, or None where it meets
    a tie (or a NaN) or reaches a grid end. f is called three times plus
    once per step; the grid points are read by index, never listed.
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
    else:
        return None
    while ahead < here:
        i += step
        if not 0 < i < last:
            return None
        here, ahead = ahead, f(point(i + step))
    if ahead > here:
        return (point(i - 1), point(i), point(i + 1))
    return None


def edgeworth_argmin(kappa):
    """The Edgeworth estimate 1 / (3 (kappa - 1)) of the argmin of h(kappa, .).

    Gamma(alpha)'s skewness 2 / sqrt(alpha) puts the minimum there for
    kappa > 1: the argmin is 1.0005 times the estimate at kappa = 1.001
    and 1.25 times it at kappa = 4.
    """
    kappa = _check_positive("kappa", kappa)
    if not kappa > 1.0:
        raise ValueError(f"need kappa > 1, got {kappa}")
    return 1.0 / (3.0 * (kappa - 1.0))


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
    from the point nearest ln edgeworth_argmin(kappa); the walk meets the
    same first triple as the full scan because h(kappa, .) is unimodal
    there, in 3-5 calls of h rather than up to ~110. Where the walk meets
    a tie or a grid end, bracket_minimum scans the grid instead. Both read
    the grid's points by index; no list of grid_n points is built.

    brent_min then stops at h's rounding floor, or on tol where that comes
    first: 7-8 evaluations at each table kappa, 51 over the seven, where
    the search on tol alone took 11-24 and 117. The argmin is resolved to
    ~1e-7 relative (the floor delta in ln alpha is 0.8e-7 to 1.5e-7 over
    the table, 2.5e-7 at kappa = 1.001), about 7 of the 12 digits
    `minimize` prints; the minimum to ~1e-15. A tol below ~1e-7 buys no
    further digits.

    Within one call h is evaluated once per point: the objective keeps the
    value at each log-abscissa, so brent_min's first point (the bracket's
    middle) and its closing re-evaluation of the argmin cost no call of h.
    evaluations still counts brent_min's objective calls, those two among
    them. Nothing is kept between calls.

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
                                     math.log(edgeworth_argmin(kappa)))
    if log_bracket is None:
        try:
            log_bracket = bracket_minimum(objective, DEFAULT_LOG_LO, DEFAULT_LOG_HI, grid_n)
        except NoInteriorMinimum as diag:
            raise NoInteriorMinimum(diag.boundary, math.exp(diag.abscissa), diag.value) from None
    result = brent_min(objective, log_bracket, tol)
    bracket = tuple(math.exp(x) for x in result.bracket)
    return OptimizationResult(math.exp(result.argmin), Probability(result.min_value), bracket,
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
