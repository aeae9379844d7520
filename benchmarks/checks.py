"""Pass/fail judgement of each op's output against the oracle.

The tolerances are those the repository's own tests assert for the same
quantities, never looser:

- h, t, band, band_prob of the gamma family: |value - oracle| <= 1e-12
  (tests/test_iddist.py gamma band; tests/test_specfun.py closed forms);
- upper_continued_fraction: |Q - oracle| <= 1e-11 (the complementarity
  test near the series / continued-fraction crossover);
- band_prob of poisson, negbinomial, invgaussian, compound_poisson_exp:
  1e-9 (tests/test_iddist.py reference comparisons); normal: 1e-13
  (tests/test_specfun.py against math.erf);
- min_h for a kappa of the paper's table: argmin within 1e-3 relative and
  minimum within 1e-4 absolute (tests/test_acceptance.py criterion 1);
  for kappa <= 1 the NoInteriorMinimum diagnosis at the upper boundary is
  the correct answer, with its boundary value within 1e-12 of the oracle;
- exact-ring ops: exact identities, no tolerance.

Known-bad probes: upper_continued_fraction below a + 1 within 1e-11
absolute; h(kappa, alpha) and h(kappa, alpha + 1) near double underflow
each within 1e-12 relative (or the subnormal spacing 2^-1074), and strictly
decreasing as the theorem says (tests/test_acceptance.py criterion 4).

Any exception other than the kappa <= 1 diagnosis is a failed op.
"""

import os
from decimal import Decimal
from fractions import Fraction

import workloads

GOLDEN_VERIFY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "verify_full_compare.txt")

ABS_TOL = {
    "h": 1e-12,
    "t": 1e-12,
    "band": 1e-12,
    "upper_continued_fraction": 1e-11,
}
BAND_PROB_TOL = {
    "gamma": 1e-12,
    "normal": 1e-13,
    "poisson": 1e-9,
    "negbinomial": 1e-9,
    "invgaussian": 1e-9,
    "compound_poisson_exp": 1e-9,
}
MIN_H_ARGMIN_RTOL = 1e-3
MIN_H_VALUE_ATOL = 1e-4
MIN_H_BOUNDARY_ATOL = 1e-12
UNDERFLOW_RTOL = Decimal("1e-12")
SUBNORMAL_SPACING = Decimal(5e-324)


def _close(value, expected, tol):
    return isinstance(value, float) and abs(value - float(expected)) <= tol


def check(op, out, expected):
    """True iff `out` is a correct output of `op` (`expected` is the oracle's)."""
    kind = op[0]
    if kind in ABS_TOL:
        return _close(out, expected, ABS_TOL[kind])
    if kind == "band_prob":
        return _close(out, expected, BAND_PROB_TOL[op[1]])
    if kind == "min_h":
        return _check_min_h(op[1], out, expected)
    if kind == "verify":
        return out == (0, golden_verify_records())
    if kind == "mul":
        p, q = op[1], op[2]
        return _check_poly(out, len(p[1]) + len(q[1]), lambda r: _eval_spec(p, r) * _eval_spec(q, r))
    if kind == "pow":
        p, n = op[1], op[2]
        return _check_poly(out, n * len(p[1]), lambda r: _eval_spec(p, r) ** n)
    if kind == "sturm":
        roots = [Fraction(*r) for r in op[1][1]]
        lo, hi = Fraction(*op[2]), Fraction(*op[3])
        return out == sum(1 for r in roots if lo < r < hi)
    raise ValueError(f"no check for op kind {kind!r}")


def check_probe(op, out, expected):
    """Known-bad probes: Q below a + 1 absolutely; h one step apart near
    underflow, relatively and strictly decreasing."""
    if op[0] == "h_step":
        return (
            isinstance(out, tuple)
            and all(_relatively_close(v, e) for v, e in zip(out, expected))
            and out[1] < out[0]
        )
    return check(op, out, expected)


def _relatively_close(value, expected):
    """Within UNDERFLOW_RTOL of the truth, or of its nearest double when that
    is subnormal: the best a double can do."""
    if not isinstance(value, float):
        return False
    truth = Decimal(expected)
    return abs(Decimal(value) - truth) <= UNDERFLOW_RTOL * truth + SUBNORMAL_SPACING


def golden_verify_records():
    """The record lines of `gamma-extremes verify --full-compare`: every
    certificate's sign verdict, degree and spot checks as the paper prints
    them, and the case-1 bounds."""
    with open(GOLDEN_VERIFY, encoding="utf-8") as fh:
        return fh.read()


def _check_min_h(kappa, out, expected):
    if kappa in workloads.MINIMUM_TABLE:
        argmin_ref, value_ref = workloads.MINIMUM_TABLE[kappa]
        return (
            not isinstance(out, BaseException)
            and abs(out.argmin - argmin_ref) <= MIN_H_ARGMIN_RTOL * argmin_ref
            and abs(float(out.min_value) - value_ref) <= MIN_H_VALUE_ATOL
        )
    # kappa <= 1: no attained minimum; the infimum is approached as alpha grows
    return (
        type(out).__name__ == "NoInteriorMinimum"
        and out.boundary == "upper"
        and abs(out.value - float(expected)) <= MIN_H_BOUNDARY_ATOL
    )


def _eval_spec(spec, r):
    """Value at r of lead * prod(x - root), from the roots themselves."""
    (lead_num, lead_den), roots = spec
    value = Fraction(lead_num, lead_den)
    for root in roots:
        value *= r - Fraction(*root)
    return value


def _check_poly(out, degree, value_at):
    """A polynomial of the given degree agreeing with value_at at degree + 1
    points is the expected polynomial exactly."""
    coeffs = getattr(out, "coeffs", None)
    if coeffs is None or len(coeffs) != degree + 1:
        return False
    for point in range(degree + 1):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * point + c
        if acc != value_at(point):
            return False
    return True
