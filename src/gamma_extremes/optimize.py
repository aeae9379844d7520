"""One-dimensional minimization of h(kappa, .) over the shape parameter.

Optimization runs in log-alpha on one evenly spaced grid over [1e-4, 1e6],
which covers the full feature range (argmins from ~0.14 to ~33.5, infima at
the 0 and infinity boundaries). For kappa <= 1 the infimum is the
alpha -> infinity limit (a lemma in closed form, see min_h), so min_h
reports it at the upper grid end after one call of h. For kappa > 1 the
bracket search starts at the grid point nearest the Edgeworth estimate of
the argmin and walks downhill on that grid; it falls back to the
left-to-right scan of bracket_minimum at a tie or a grid end. h(kappa, .)
is unimodal for kappa > 1, so both find the same grid triple. brent_min is
a classic golden-section / parabolic-interpolation minimizer (Numerical
Recipes style) with an evaluation budget.
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


def _lin_grid(lo, hi, n):
    """n evenly spaced points from lo to hi, the last one exactly hi."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step if i < n - 1 else hi for i in range(n)]


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
    xs = _lin_grid(lo, hi, grid_n)
    fs = [f(xs[0]), f(xs[1])]
    for i in range(1, grid_n - 1):
        fs.append(f(xs[i + 1]))
        if fs[i] < fs[i - 1] and fs[i] < fs[i + 1]:
            return (xs[i - 1], xs[i], xs[i + 1])
    if fs[0] <= fs[-1]:
        raise NoInteriorMinimum("lower", xs[0], fs[0])
    raise NoInteriorMinimum("upper", xs[-1], fs[-1])


def brent_min(f, bracket, tol, max_evaluations=200):
    """Locate the bracketed minimum to abscissa tolerance tol."""
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
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
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


def _descend_to_triple(f, xs, x0):
    """Walk downhill on the grid xs from the point nearest x0.

    Returns the first triple (xs[i-1], xs[i], xs[i+1]) with f strictly
    smaller at the middle point that the walk meets, or None where it meets
    a tie (or a NaN) or reaches a grid end. f is called three times plus
    once per step.
    """
    last = len(xs) - 1
    i = min(max(round((x0 - xs[0]) / (xs[1] - xs[0])), 1), last - 1)
    below, here, above = f(xs[i - 1]), f(xs[i]), f(xs[i + 1])
    if here < below and here < above:
        return (xs[i - 1], xs[i], xs[i + 1])
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
        here, ahead = ahead, f(xs[i + step])
    if ahead > here:
        return (xs[i - 1], xs[i], xs[i + 1])
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
    a tie or a grid end, bracket_minimum scans the grid instead.

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
    xs = _lin_grid(DEFAULT_LOG_LO, DEFAULT_LOG_HI, grid_n)
    log_bracket = _descend_to_triple(objective, xs, math.log(edgeworth_argmin(kappa)))
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
