"""Acceptance suite: six end-to-end criteria, each printing one pass/fail
line with its runtime. Tolerances and budgets are part of the criteria and
are asserted, never loosened."""

import math
import random
import time

from gamma_extremes import certificates
from gamma_extremes.cli import counterexample_table
from gamma_extremes.gamma_prob import h, t
from gamma_extremes.iddist import conjecture_scan
from gamma_extremes.optimize import min_h
from gamma_extremes.specfun import (
    MAX_SHAPE,
    MIN_SHAPE,
    ln_gamma,
    lower_series,
    reg_lower_gamma,
    upper_continued_fraction,
)

MINIMUM_TABLE = {
    1.01: (33.4871, 0.545885),
    1.1: (3.47146, 0.64021),
    1.2: (1.78959, 0.691283),
    1.5: (0.757559, 0.774739),
    2.0: (0.396184, 0.841243),
    3.0: (0.205464, 0.899108),
    4.0: (0.13917, 0.925864),
}

NORMAL_BAND = 0.6826895


def _report(number, name, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    detail = "" if not failures else " — " + "; ".join(failures[:3])
    if elapsed >= budget:
        detail += f" — runtime {elapsed:.1f}s exceeds {budget:.0f}s budget"
    print(f"\nACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s]{detail}", flush=True)
    assert ok, f"criterion {number} ({name}): {failures} elapsed={elapsed:.2f}s"


def _log_grid(lo, hi, n):
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (n - 1)
    return [math.exp(log_lo + i * step) for i in range(n)]


def test_criterion_1_minimum_table():
    start = time.perf_counter()
    failures = []
    for kappa, (argmin_ref, value_ref) in MINIMUM_TABLE.items():
        result = min_h(kappa)
        if abs(result.argmin - argmin_ref) > 1e-3 * argmin_ref:
            failures.append(f"kappa={kappa}: argmin {result.argmin:.6g} != {argmin_ref}")
        if abs(float(result.min_value) - value_ref) > 1e-4:
            failures.append(f"kappa={kappa}: value {float(result.min_value):.6g} != {value_ref}")
    _report(1, "minimum table reproduction", failures, time.perf_counter() - start, 5.0)


def test_criterion_2_counterexamples():
    start = time.perf_counter()
    failures = []
    for label, kappa, value, reference in counterexample_table():
        if abs(value - reference) > 1e-6:
            failures.append(f"{label} kappa={kappa}: {value:.7f} != {reference}")
    _report(2, "counterexample reproduction", failures, time.perf_counter() - start, 1.0)


def test_criterion_3_certificates():
    start = time.perf_counter()
    failures = []
    try:
        reports, case1 = certificates.verify_all(full_compare=True)
        by_name = {r.name: r for r in reports}
        expectations = {
            "G+": ("all_negative", 0, -1140603),
            "I+": ("all_negative", 0, -1083048),
            "V+": ("all_positive", 0, 23565171557938261664962395),
            "G-": ("all_positive", 0, 128409),
            "I-": ("all_positive", 0, 175743),
            "V-": ("all_positive", 0, 1058023271132626023),
            "smallalpha": ("all_positive", 0, 240),
        }
        for name, (verdict, index, constant) in expectations.items():
            report = by_name[name]
            if report.sign_verdict != verdict:
                failures.append(f"{name}: verdict {report.sign_verdict} != {verdict}")
            if report.coefficients[index] != constant:
                failures.append(f"{name}: constant {report.coefficients[index]} != {constant}")
        if "case2J" not in by_name:
            failures.append("case2J missing")
        if case1 is None or case1.samples_checked != 1000:
            failures.append("case1 transcendental checks incomplete")
    except (certificates.CertificateMismatch, certificates.SignViolation,
            certificates.NumericMismatch) as exc:
        failures.append(str(exc))
    _report(3, "certificate suite", failures, time.perf_counter() - start, 60.0)


def test_criterion_4_theorem_properties():
    start = time.perf_counter()
    failures = []
    grid = _log_grid(1e-4, 1e6, 1000)
    if not all(h(1.0, a) > 0.5 for a in grid):
        failures.append("h(1, alpha) > 1/2 violated on grid")
    t_values = [t(a) for a in grid]
    if not all(v > NORMAL_BAND for v in t_values):
        failures.append("t(alpha) > 0.6826895 violated on grid")
    if not all(t(a + 1.0) < v for a, v in zip(grid, t_values)):
        failures.append("t(alpha+1) < t(alpha) violated on grid")
    for kappa in (0.2, 0.5, 0.8, 1.0):
        if not all(h(kappa, a + 1.0) < h(kappa, a) for a in grid):
            failures.append(f"h({kappa}, alpha+1) < h({kappa}, alpha) violated")
    for kappa in (0.5, 1.0, 2.0):
        if not h(kappa, 1e-6) > 0.9999:
            failures.append(f"h({kappa}, 1e-6) <= 0.9999")
    tail = h(1.0, 1e7)
    if not (0.5 < tail < 0.501):
        failures.append(f"h(1, 1e7) = {tail} outside (0.5, 0.501)")
    if abs(t(1e6) - NORMAL_BAND) >= 5e-4:
        failures.append(f"t(1e6) = {t(1e6)} not within 5e-4 of {NORMAL_BAND}")
    _report(4, "theorem-level property suites", failures, time.perf_counter() - start, 20.0)


def test_criterion_5_specfun_oracles():
    start = time.perf_counter()
    failures = []

    rng = random.Random(20240821)
    worst_closed = 0.0
    for _ in range(1000):
        n = rng.randint(1, 10)
        x = rng.uniform(0.0, 30.0)
        expected = 1.0 - math.exp(-x) * sum(x ** k / math.factorial(k) for k in range(n))
        worst_closed = max(worst_closed, abs(reg_lower_gamma(n, x) - expected))
    if worst_closed > 1e-12:
        failures.append(f"integer closed forms: worst error {worst_closed:.3g} > 1e-12")

    worst_rec = 0.0
    for _ in range(1000):
        a = math.exp(rng.uniform(math.log(1e-4), math.log(100.0)))
        x = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
        step = math.exp(a * math.log(x) - x - ln_gamma(a + 1.0))
        worst_rec = max(
            worst_rec, abs(reg_lower_gamma(a + 1.0, x) - (reg_lower_gamma(a, x) - step))
        )
    if worst_rec > 1e-11:
        failures.append(f"recurrence: worst error {worst_rec:.3g} > 1e-11")

    worst_comp = 0.0
    worst_at = None
    path_failures = 0
    for _ in range(10_000):
        a = math.exp(rng.uniform(math.log(MIN_SHAPE), math.log(MAX_SHAPE)))
        factor = rng.choice((0.99, 1.01))
        x = factor * (a + 1.0)
        try:
            err = abs(lower_series(a, x) + upper_continued_fraction(a, x) - 1.0)
        except (ValueError, ArithmeticError):
            path_failures += 1
            continue
        if err > worst_comp:
            worst_comp, worst_at = err, (a, factor)
    if path_failures or worst_comp > 1e-11:
        failures.append(
            f"complementarity: worst |P+Q-1| = {worst_comp:.3g} at {worst_at}, "
            f"{path_failures} continued-fraction path failures"
        )
    _report(5, "special-function oracle equivalence", failures, time.perf_counter() - start, 5.0)


def test_criterion_6_conjecture_scans():
    start = time.perf_counter()
    failures = []
    gamma_report = conjecture_scan("gamma")
    if gamma_report.violations or float(gamma_report.min_band) <= NORMAL_BAND:
        failures.append(
            f"gamma scan: min_band {float(gamma_report.min_band):.9f}, "
            f"{len(gamma_report.violations)} violations"
        )
    normal_report = conjecture_scan("normal")
    if abs(float(normal_report.min_band) - normal_report.threshold) > 0.0:
        failures.append("normal baseline is not the equality case")
    summaries = []
    for family in ("poisson", "negbinomial", "invgaussian", "compound_poisson_exp"):
        report = conjecture_scan(family)
        summaries.append(
            f"{family}: min {float(report.min_band):.6f} at {report.argmin_params!r}, "
            f"{len(report.violations)} grid entries below threshold-1e-9"
        )
    print("\n".join("  " + s for s in summaries), flush=True)
    _report(6, "conjecture scans (evidence only)", failures, time.perf_counter() - start, 30.0)
