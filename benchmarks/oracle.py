"""Independent high-precision oracle for the benchmark ops.

Every expected value is computed with mpmath at 30 significant digits from
the exact op inputs, never through the package under test, which this
module does not import. Run as a script it writes the expected values of
one (workload, seed) to a JSON cache file:

    python3 benchmarks/oracle.py --workload grid_sweep --seed 1 --out FILE

Values are stored as decimal strings, so magnitudes far below the double
range (deep lower tails of h) survive the round trip. Exact-ring ops have
no stored value: their checks are exact identities (see checks.py).
"""

import argparse
import json
import os
import sys

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

DPS = 30
mpmath.mp.dps = DPS

mpf = mpmath.mpf


def reg_lower(a, x):
    """P(a, x) for exact mpf a > 0, x >= 0.

    Lower side (x <= a): the Kummer series x^a e^-x / Gamma(a+1) 1F1(1; a+1; x),
    whose terms only shrink there. Upper side: 1 - Q(a, x).
    """
    if x == 0:
        return mpf(0)
    if x <= a:
        log_pref = a * mpmath.log(x) - x - mpmath.loggamma(a + 1)
        return mpmath.exp(log_pref) * mpmath.hyp1f1(1, a + 1, x, maxterms=10 ** 7)
    return 1 - reg_upper(a, x)


def reg_upper(a, x):
    """Q(a, x) for x > a.

    The Legendre continued fraction converges in few steps once x is well
    above a, which is where mpmath's upper incomplete gamma is slowest or
    gives up (NoConvergence); near the transition it is the other way round.
    """
    if x - a > 5 * mpmath.sqrt(a) + 2:
        q = _upper_fraction(a, x, max_steps=3000)
        if q is not None:
            return q
    try:
        return mpmath.gammainc(a, x, mpmath.inf, regularized=True)
    except mpmath.libmp.NoConvergence:
        return _upper_fraction(a, x, max_steps=10 ** 7)


def _upper_fraction(a, x, max_steps):
    """Q(a, x) by the modified Lentz continued fraction; None if it has not
    converged after max_steps steps."""
    tiny = mpf(10) ** -(4 * DPS)
    eps = mpf(10) ** -(DPS + 5)
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, max_steps + 1):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < eps:
            return h * mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a))
    return None


def gamma_band(alpha, kappa):
    """P{|X - alpha| <= kappa sqrt(alpha)} for X ~ Gamma(alpha, 1)."""
    half = kappa * mpmath.sqrt(alpha)
    upper = reg_lower(alpha, alpha + half)
    if alpha <= half:
        return upper
    return upper - reg_lower(alpha, alpha - half)


def poisson_band(lam):
    sd = mpmath.sqrt(lam)
    return _discrete_window(
        lam - sd, lam + sd,
        log_pmf=lambda k: k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1),
        ratio=lambda k: lam / (k + 1),
    )


def negbinomial_band(r, p):
    q = 1 - p
    mean = r * q / p
    sd = mpmath.sqrt(r * q) / p
    return _discrete_window(
        mean - sd, mean + sd,
        log_pmf=lambda k: (
            mpmath.loggamma(k + r) - mpmath.loggamma(r) - mpmath.loggamma(k + 1)
            + r * mpmath.log(p) + k * mpmath.log(q)
        ),
        ratio=lambda k: (k + r) * q / (k + 1),
    )


def _discrete_window(lo, hi, log_pmf, ratio):
    """Sum of the pmf over the integers k >= 0 in [lo, hi]."""
    first = max(0, int(mpmath.ceil(lo)))
    last = int(mpmath.floor(hi))
    if last < first:
        return mpf(0)
    pmf = mpmath.exp(log_pmf(first))
    total = mpf(0)
    for k in range(first, last + 1):
        total += pmf
        pmf *= ratio(k)
    return total


def invgaussian_band(mu, shape):
    sd = mpmath.sqrt(mu ** 3 / shape)

    def cdf(x):
        if x <= 0:
            return mpf(0)
        root = mpmath.sqrt(shape / x)
        return (mpmath.ncdf(root * (x / mu - 1))
                + mpmath.exp(2 * shape / mu) * mpmath.ncdf(-root * (x / mu + 1)))

    return cdf(mu + sd) - cdf(mu - sd)


def compound_poisson_exp_band(rate, scale):
    """Band mass of S = sum of Poisson(rate) many Exponential(scale) jumps.

    With x in units of the scale, P{S <= x} = sum_k Pois_x(k) F_rate(k),
    where F_rate is the Poisson(rate) CDF: S <= x exactly when fewer than
    N + 1 points of a unit-rate Poisson process fall in [0, x]. This uses
    no incomplete gamma at all. The atom at 0 sits in the band when
    mean - sd <= 0.
    """
    mean = rate * scale
    sd = mpmath.sqrt(2 * rate) * scale
    upper = _compound_cdf(rate, (mean + sd) / scale)
    if mean - sd <= 0:
        return upper
    return upper - _compound_cdf(rate, (mean - sd) / scale)


def _compound_cdf(rate, x):
    cutoff = mpf(10) ** -(DPS + 5)
    pois_x = mpmath.exp(-x)
    pois_rate = mpmath.exp(-rate)
    cdf_rate = mpf(0)
    total = mpf(0)
    k = 0
    while True:
        cdf_rate += pois_rate
        total += pois_x * cdf_rate
        k += 1
        pois_x *= x / k
        pois_rate *= rate / k
        if k > x and pois_x < cutoff:
            return total


FAMILY_BANDS = {
    "gamma": lambda alpha, beta: gamma_band(alpha, mpf(1)),
    "poisson": poisson_band,
    "negbinomial": negbinomial_band,
    "invgaussian": invgaussian_band,
    "compound_poisson_exp": compound_poisson_exp_band,
    "normal": lambda: mpmath.erf(1 / mpmath.sqrt(2)),
}


def _exact(values):
    return [mpf(v) for v in values]


def expected_value(op):
    """The oracle's value for one op as a decimal string (a list of them for
    h_step, None for exact-ring ops)."""
    kind = op[0]
    if kind == "h":
        kappa, alpha = _exact(op[1:])
        value = reg_lower(alpha, kappa * alpha)
    elif kind == "t":
        value = gamma_band(mpf(op[1]), mpf(1))
    elif kind == "band":
        alpha, _beta, kappa = _exact(op[1:])
        value = gamma_band(alpha, kappa)
    elif kind == "upper_continued_fraction":
        a, x = _exact(op[1:])
        value = reg_upper(a, x) if x > a else 1 - reg_lower(a, x)
    elif kind == "min_h":
        kappa = op[1]
        if kappa in workloads.MINIMUM_TABLE:
            return None  # checked against the paper's table
        # kappa <= 1: the infimum sits at the upper end of the search grid
        alpha = mpf(workloads.MIN_H_ALPHA_HI)
        value = reg_lower(alpha, mpf(kappa) * alpha)
    elif kind == "h_step":
        kappa, alpha = _exact(op[1:])
        return [mpmath.nstr(reg_lower(a, kappa * a), DPS) for a in (alpha, alpha + 1)]
    elif kind == "band_prob":
        value = FAMILY_BANDS[op[1]](*_exact(op[2]))
    else:
        return None
    return mpmath.nstr(value, DPS)


def compute(workload, seed):
    ops = workloads.make_ops(workload, seed)
    probes = workloads.make_probes(workload, seed)
    return {
        "ops": [expected_value(op) for op in ops],
        "probes": [expected_value(op) for op in probes],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = compute(args.workload, args.seed)
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
