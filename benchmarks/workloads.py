"""Seeded op lists for the three benchmark workloads.

An op is a tuple ``(kind, *args)`` of plain numbers, strings and tuples, so
op lists survive a JSON round trip to the oracle process and its cache.
Nothing here imports the package under test: the oracle builds the same
inputs without it.

Inputs are drawn as randomly shifted grids: a range cut into n equal cells
gets one point per cell, all at one seeded offset within their cells. Every
seed then covers the whole range evenly, and the number of inputs falling
in any region (a branch of the numerics, a costly corner) changes by at
most one per sweep between seeds, so the cost of a pass and its latency
percentiles hardly depend on the seed while the inputs do.
"""

import math
import random
from fractions import Fraction

WORKLOADS = ("grid_sweep", "conjecture", "certify")

MIN_SHAPE = 1e-6
MAX_SHAPE = 1e7

# kappa below, at and just above 1, and far above it
GRID_KAPPAS = (0.2, 0.5, 0.8, 1.0, 1.01, 1.1, 1.5, 2.0, 3.0, 4.0)

# the paper's minimum table: kappa -> (argmin alpha, min h)
MINIMUM_TABLE = {
    1.01: (33.4871, 0.545885),
    1.1: (3.47146, 0.64021),
    1.2: (1.78959, 0.691283),
    1.5: (0.757559, 0.774739),
    2.0: (0.396184, 0.841243),
    3.0: (0.205464, 0.899108),
    4.0: (0.13917, 0.925864),
}

# min_h searches alpha in [1e-4, 1e6]; for kappa <= 1 its diagnosis carries
# h at the upper end
MIN_H_ALPHA_HI = 1e6

# known-bad probes: upper_continued_fraction below its documented domain
# x >= a + 1, and the strict decrease of h(kappa < 1, .) near double
# underflow (tests/test_acceptance.py criterion 4)
CROSSOVER_PROBES = 100
UNDERFLOW_PROBES = 100


def _rng(workload, seed, part=""):
    return random.Random(f"{workload}:{part}:{seed}")


def stratified(rng, lo, hi, n, log=False):
    """n seeded points, one in each of n equal cells of [lo, hi], all at the
    same seeded offset within their cell."""
    if log:
        return [math.exp(v) for v in stratified(rng, math.log(lo), math.log(hi), n)]
    width = (hi - lo) / n
    offset = rng.random()
    return [lo + (i + offset) * width for i in range(n)]


def grid_sweep_ops(seed):
    """h, t and band over the full shape domain, min_h, and Q near a + 1.

    Near-mean evaluations at large shape cost O(sqrt(a)) per call in the
    series and set the latency tail; every kappa gets its own stratified
    shape sweep so each seed has the same mix of cheap and costly calls.
    """
    rng = _rng("grid_sweep", seed)
    ops = []
    for kappa in GRID_KAPPAS:
        for alpha in stratified(rng, MIN_SHAPE, MAX_SHAPE, 40, log=True):
            ops.append(("h", kappa, alpha))
        for alpha in stratified(rng, MIN_SHAPE, MAX_SHAPE, 20, log=True):
            beta = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            ops.append(("band", alpha, beta, kappa))
    for alpha in stratified(rng, MIN_SHAPE, MAX_SHAPE, 300, log=True):
        ops.append(("t", alpha))
    for a in stratified(rng, MIN_SHAPE, MAX_SHAPE, 60, log=True):
        ops.append(("upper_continued_fraction", a, 1.01 * (a + 1.0)))
    for kappa in MINIMUM_TABLE:
        ops.extend([("min_h", kappa)] * 4)
    for kappa in stratified(rng, 0.05, 1.0, 12):
        ops.append(("min_h", kappa))
    rng.shuffle(ops)
    return ops


def grid_sweep_probes(seed):
    """Known-bad regions of the seed numerics, checked but not timed."""
    rng = _rng("grid_sweep", seed, "probes")
    probes = [
        ("upper_continued_fraction", a, 0.99 * (a + 1.0))
        for a in stratified(rng, MIN_SHAPE, MAX_SHAPE, CROSSOVER_PROBES, log=True)
    ]
    per_kappa = UNDERFLOW_PROBES // 4
    for kappa in (0.2, 0.5, 0.8, 0.95):
        edge = 745.0 / (kappa - 1.0 - math.log(kappa))  # where h drops below 1e-323
        for alpha in stratified(rng, 0.25 * edge, min(4.0 * edge, MAX_SHAPE), per_kappa, log=True):
            probes.append(("h_step", kappa, alpha))
    return probes


def conjecture_ops(seed):
    """band_prob for every family over grids with default_grid's ranges and sizes."""
    rng = _rng("conjecture", seed)
    ops = [("band_prob", "gamma", (a, 1.0)) for a in stratified(rng, 1e-3, 1e5, 200, log=True)]
    ops += [("band_prob", "poisson", (lam,)) for lam in stratified(rng, 0.01, 1e3, 200, log=True)]
    rs = stratified(rng, 0.1, 100.0, 50, log=True)
    ps = stratified(rng, 0.05, 0.95, 50)
    ops += [("band_prob", "negbinomial", (r, p)) for r in rs for p in ps]
    mus = stratified(rng, 0.01, 100.0, 50, log=True)
    shapes = stratified(rng, 0.01, 100.0, 50, log=True)
    ops += [("band_prob", "invgaussian", (mu, shape)) for mu in mus for shape in shapes]
    ops += [
        ("band_prob", "compound_poisson_exp", (rate, 1.0))
        for rate in stratified(rng, 0.01, 1e3, 200, log=True)
    ]
    ops.append(("band_prob", "normal", ()))
    rng.shuffle(ops)
    return ops


# (degree of p, degree of q) for the products, (degree, exponent) for the
# powers and the degree for the Sturm counts: fixed, so only roots vary
# The 20 powers are the costliest exact ops, the 30 products the next, the
# 20 Sturm counts the cheapest; powers and products each have one shape, so
# that the tail percentile (rank 11 of 71 ops) falls inside the powers and
# the median (rank 36) inside the products rather than between unlike ops.
MUL_DEGREES = ((16, 16),) * 30
POW_SHAPES = ((4, 5),) * 20
STURM_DEGREES = ((4, 5, 6) * 7)[:20]


# root k of a polynomial has denominator ROOT_DENOMINATORS[k % 4] and a
# seeded numerator of 40..60 in size that it does not divide: the sizes of
# the exact coefficients, and so the cost of an op, then hardly depend on
# the seed
ROOT_DENOMINATORS = (2, 3, 5, 7)


def _distinct_roots(rng, degree):
    roots = set()
    while len(roots) < degree:
        den = ROOT_DENOMINATORS[len(roots) % len(ROOT_DENOMINATORS)]
        num = rng.choice((-1, 1)) * rng.randint(40, 60)
        if num % den:
            roots.add(Fraction(num, den))
    return tuple((r.numerator, r.denominator) for r in sorted(roots))


def _poly_spec(rng, degree):
    """(leading coefficient, roots), each rational as (num, den)."""
    return (rng.choice((-1, 1)) * rng.randint(1, 9), 1), _distinct_roots(rng, degree)


def certify_ops(seed):
    """The full verify command plus seeded exact-ring ops.

    Products and powers are multiply-heavy like the certificate chains;
    Sturm root counts are divmod-heavy.
    """
    rng = _rng("certify", seed)
    ops = [("verify",)]
    for dp, dq in MUL_DEGREES:
        ops.append(("mul", _poly_spec(rng, dp), _poly_spec(rng, dq)))
    for degree, exponent in POW_SHAPES:
        ops.append(("pow", _poly_spec(rng, degree), exponent))
    for degree in STURM_DEGREES:
        spec = _poly_spec(rng, degree)
        # endpoints in two gaps between the sorted roots: the roots inside
        # are known by construction
        i = rng.randint(0, degree - 1)
        j = rng.randint(i + 1, degree)
        ops.append(("sturm", spec, _gap_point(spec[1], i), _gap_point(spec[1], j)))
    rng.shuffle(ops)
    return ops


def _gap_point(roots, gap):
    """A rational (num, den) in gap `gap` of the sorted roots: gap 0 lies
    below them all, gap len(roots) above, gap k between roots k-1 and k."""
    values = [Fraction(*r) for r in roots]
    if gap == 0:
        point = values[0] - 1
    elif gap == len(values):
        point = values[-1] + 1
    else:
        point = (values[gap - 1] + values[gap]) / 2
    return point.numerator, point.denominator


def make_ops(workload, seed):
    if workload == "grid_sweep":
        return grid_sweep_ops(seed)
    if workload == "conjecture":
        return conjecture_ops(seed)
    if workload == "certify":
        return certify_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def make_probes(workload, seed):
    return grid_sweep_probes(seed) if workload == "grid_sweep" else []
