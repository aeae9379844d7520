"""Executes op lists against the package under test.

Each op becomes a call into a public function, made through the module
attribute at call time, so a tracer installed later sees every call. Pass
inputs (polynomials, parameter objects) are built here, outside any timed
region. A pass is a closed loop: each op starts when the previous returns.
"""

import io
import operator
import time
from fractions import Fraction

import speed
from gamma_extremes import cli, exact_poly, gamma_prob, iddist, optimize, specfun

# how often the reference kernel (speed.py) runs between ops
REFERENCE_GAP_S = 0.005

FAMILIES = {
    "gamma": iddist.GammaDist,
    "poisson": iddist.Poisson,
    "negbinomial": iddist.NegativeBinomial,
    "invgaussian": iddist.InverseGaussian,
    "compound_poisson_exp": iddist.CompoundPoissonExp,
    "normal": iddist.NormalBaseline,
}


def poly_from_spec(spec):
    """lead * prod(x - root) as a RationalPoly, expanded here in Fractions."""
    (lead_num, lead_den), roots = spec
    coeffs = [Fraction(lead_num, lead_den)]
    for root in roots:
        r = Fraction(*root)
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return exact_poly.RationalPoly(coeffs)


def _verify():
    out = io.StringIO()
    code = cli.run(["verify", "--full-compare"], out=out)
    return code, out.getvalue()


def bind(op):
    """(function, arguments) for one op."""
    kind = op[0]
    if kind == "h":
        return (lambda kappa, alpha: gamma_prob.h(kappa, alpha)), op[1:]
    if kind == "h_step":
        return (lambda kappa, alpha: (gamma_prob.h(kappa, alpha), gamma_prob.h(kappa, alpha + 1.0))), op[1:]
    if kind == "t":
        return (lambda alpha: gamma_prob.t(alpha)), op[1:]
    if kind == "band":
        alpha, beta, kappa = op[1:]
        return (lambda p, k: gamma_prob.band(p, k)), (gamma_prob.GammaParams(alpha, beta), kappa)
    if kind == "upper_continued_fraction":
        return (lambda a, x: specfun.upper_continued_fraction(a, x)), op[1:]
    if kind == "min_h":
        return (lambda kappa: optimize.min_h(kappa)), op[1:]
    if kind == "band_prob":
        return (lambda spec: iddist.band_prob(spec)), (FAMILIES[op[1]](*op[2]),)
    if kind == "verify":
        return _verify, ()
    if kind == "mul":
        return operator.mul, (poly_from_spec(op[1]), poly_from_spec(op[2]))
    if kind == "pow":
        return operator.pow, (poly_from_spec(op[1]), op[2])
    if kind == "sturm":
        return (
            (lambda p, lo, hi: exact_poly.sturm_roots_in_interval(p, lo, hi)),
            (poly_from_spec(op[1]), Fraction(*op[2]), Fraction(*op[3])),
        )
    raise ValueError(f"unknown op kind {kind!r}")


def run_pass(calls, tracer=None):
    """Run every call once, in order.

    Returns (op seconds at reference speed, outputs, raw seconds spent in
    the ops). The reference kernel runs between ops, at least every
    REFERENCE_GAP_S, and each op's time is rescaled by the reference times
    around it (speed.scale). An exception an op raises is its output; the
    checks judge it.
    """
    clock = time.perf_counter
    latencies = []
    outputs = []
    chunk_of = []
    references = [speed.reference_seconds()]
    last_reference = clock()
    for index, (fn, args) in enumerate(calls):
        if tracer is not None:
            tracer.op_id = index
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - recorded as the op's outcome
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        chunk_of.append(len(references) - 1)
        if t1 - last_reference >= REFERENCE_GAP_S:
            references.append(speed.reference_seconds())
            last_reference = clock()
    references.append(speed.reference_seconds())
    scales = [speed.scale(references[max(0, c - 1):c + 3]) for c in range(len(references) - 1)]
    return [t * scales[c] for t, c in zip(latencies, chunk_of)], outputs, sum(latencies)


def fingerprint(out):
    """A comparable image of an output that tells apart any two differing bits."""
    if isinstance(out, BaseException):
        state = tuple(sorted((k, fingerprint(v)) for k, v in vars(out).items()))
        return ("raised", type(out).__name__, str(out), state)
    if isinstance(out, float):
        return ("float", type(out).__name__, out.hex())
    if isinstance(out, optimize.OptimizationResult):
        return ("optimum", tuple(fingerprint(v) for v in (out.argmin, out.min_value)),
                tuple(fingerprint(v) for v in out.bracket), out.evaluations, out.converged)
    if isinstance(out, exact_poly.RationalPoly):
        return ("poly", out.coeffs)
    if isinstance(out, tuple):
        return tuple(fingerprint(v) for v in out)
    return (type(out).__name__, out)

