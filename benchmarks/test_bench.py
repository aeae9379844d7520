"""Tests of the benchmark itself: inputs, oracle checks, tracing, self time."""

import math

import pytest

import gamma_extremes

import checks
import oracle
import run
import runner
import spans
import startup
import workloads
from gamma_extremes import gamma_prob, optimize


def _sample(ops, kinds_per_op=3):
    """A few ops of every kind (and family), keeping the test fast."""
    seen = {}
    sample = []
    for op in ops:
        key = op[:2] if op[0] == "band_prob" else op[0]
        if seen.get(key, 0) < kinds_per_op:
            seen[key] = seen.get(key, 0) + 1
            sample.append(op)
    return sample


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)
    assert workloads.make_probes(workload, 7) == workloads.make_probes(workload, 7)
    assert workloads.make_ops(workload, 7) != workloads.make_ops(workload, 8)


def test_op_lists_cover_their_ranges():
    grid = workloads.make_ops("grid_sweep", 3)
    assert len(grid) == 1000
    alphas = [op[2] for op in grid if op[0] == "h"]
    assert min(alphas) < 1e-5 and max(alphas) > 1e6
    conjecture = workloads.make_ops("conjecture", 3)
    assert len(conjecture) == 200 + 200 + 2500 + 2500 + 200 + 1


def test_tracing_leaves_outputs_bit_identical():
    ops = []
    for workload in workloads.WORKLOADS:
        ops += _sample(workloads.make_ops(workload, 5))
    ops += _sample(workloads.make_probes("grid_sweep", 5))
    ops.append(("upper_continued_fraction", 1e5, 0.99 * (1e5 + 1.0)))  # raises at the seed
    calls = [runner.bind(op) for op in ops]
    _, plain, _ = runner.run_pass(calls)
    tracer = spans.Tracer()
    original_h = gamma_prob.h
    tracer.install(gamma_extremes)
    try:
        assert gamma_prob.h is not original_h
        _, traced, _ = runner.run_pass(calls, tracer)
    finally:
        tracer.uninstall()
    assert gamma_prob.h is original_h
    assert [runner.fingerprint(o) for o in traced] == [runner.fingerprint(o) for o in plain]
    recorded = set(tracer.names)
    for name in ("gamma_prob.h", "specfun.lower_series", "optimize.min_h",
                 "iddist.band_prob.compound_poisson_exp", "exact_poly.mul",
                 "exact_poly.sturm", "certificates.chain_plus", "cli.run.verify"):
        assert name in recorded
    # a call that raises is recorded as a failed span
    assert any(f for n, f in zip(tracer.names, tracer.failed)
               if n == "specfun.upper_continued_fraction")


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert spans.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics_on_synthetic_spans():
    tracer = spans.Tracer()
    rows = [  # name, start, end, parent
        ("optimize.min_h", 0.0, 0.010, -1),
        ("optimize.bracket_minimum", 0.001, 0.006, 0),
        ("gamma_prob.h", 0.002, 0.003, 1),
        ("gamma_prob.h", 0.004, 0.005, 1),
        ("optimize.brent_min", 0.007, 0.009, 0),
        ("gamma_prob.h", 0.0075, 0.008, 4),
        ("gamma_prob.h", 0.011, 0.012, -1),
    ]
    for name, start, end, parent in rows:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.failed.append(False)
        tracer.weights.append(0)
    calls, self_ms, total_ms, fails, derived = spans.layer_metrics(tracer)
    assert total_ms["optimize.min_h"] == pytest.approx(10.0)
    assert calls["gamma_prob.h"] == 4
    assert self_ms["optimize.min_h"] == pytest.approx(3.0)
    assert self_ms["optimize.bracket_minimum"] == pytest.approx(3.0)
    assert derived["optimize.objective_evals"] == 3  # the last h is outside min_h
    assert derived["optimize.bracket_share"] == pytest.approx(2 / 3)


def _expected(op):
    return oracle.expected_value(op)


def test_correct_outputs_pass_and_injected_error_fails():
    ops = [("h", 1.0, 2.0), ("t", 5.0), ("band_prob", "poisson", (4.0,))]
    expected = [_expected(op) for op in ops]
    _, outputs, _ = runner.run_pass([runner.bind(op) for op in ops])
    verdicts, reference = run.judge(runner, ops, expected, outputs)
    assert verdicts == [True, True, True]
    # out of tolerance by 1e-11 (tolerance 1e-12) and a raised exception
    injected = [outputs[0] + 1e-11, ArithmeticError("breakdown"), outputs[2]]
    assert run.judge(runner, ops, expected, injected)[0] == [False, False, True]
    # a timed pass whose output drifts from the checked warm-up pass fails there
    drifting = [(lambda v=v: v, ()) for v in outputs[:2] + [outputs[2] + 1e-15]]
    (timed,) = run.timed_passes(runner, drifting, verdicts, reference, 0.0, 1)
    assert timed.failed == 1


def test_kappa_at_most_one_diagnosis_is_success():
    for kappa in (0.3, 1.0):
        op = ("min_h", kappa)
        with pytest.raises(optimize.NoInteriorMinimum) as info:
            optimize.min_h(kappa)
        assert checks.check(op, info.value, _expected(op))
        wrong_side = optimize.NoInteriorMinimum("lower", info.value.abscissa, info.value.value)
        assert not checks.check(op, wrong_side, _expected(op))
    table_op = ("min_h", 2.0)
    assert checks.check(table_op, optimize.min_h(2.0), None)
    assert not checks.check(table_op, optimize.NoInteriorMinimum("upper", 0.0, 0.5), None)


def test_exact_ring_checks_are_exact():
    spec_p = ((3, 2), ((1, 3), (-2, 1)))
    spec_q = ((-1, 1), ((5, 4),))
    p, q = runner.poly_from_spec(spec_p), runner.poly_from_spec(spec_q)
    assert checks.check(("mul", spec_p, spec_q), p * q, None)
    assert not checks.check(("mul", spec_p, spec_q), p * q + 1, None)
    assert checks.check(("pow", spec_p, 3), p ** 3, None)
    assert checks.check(("sturm", spec_p, (-3, 1), (1, 2)), 2, None)
    assert not checks.check(("sturm", spec_p, (-3, 1), (1, 2)), 1, None)


def test_underflow_probe_needs_accuracy_and_strict_decrease():
    op = ("h_step", 0.2, 900.0)
    truth = oracle.expected_value(op)
    exact = tuple(float(v) for v in truth)
    assert 0.0 < exact[1] < exact[0] < 1e-300  # subnormal, correctly rounded
    assert checks.check_probe(op, exact, truth)
    assert not checks.check_probe(op, (exact[0], exact[0]), truth)
    assert not checks.check_probe(op, (0.0, 0.0), truth)
    # far past the underflow edge both values round to 0.0: exact, yet not decreasing
    far = ("h_step", 0.2, 5000.0)
    assert not checks.check_probe(far, (0.0, 0.0), oracle.expected_value(far))


def test_tail_percentile_leaves_ten_samples_beyond():
    latencies = [i / 1e3 for i in range(1000)]
    slower = [2 * x for x in latencies]
    passes = [run.Pass(order, 0.0, 0, None) for order in (latencies, slower, latencies)]
    _, tail_ms = run.latency_stats(passes)
    assert sum(1 for x in latencies if x * 1e3 > tail_ms) == 10
    assert run.tail_percentile(1000) == 99.0


def test_parse_importtime_attributes_subtrees():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |        150 |   scipy.integrate",
        "import time:        10 |         10 |   fractions",
        "import time:         7 |          7 |     mpmath.libmp",
        "import time:         3 |         10 |   mpmath",
        "import time:        20 |        190 | gamma_extremes",
    ])
    parts = startup.parse_importtime(text)
    assert parts == pytest.approx({"scipy": 0.15, "mpmath": 0.01, "gamma_extremes_self": 0.02})


def test_oracle_agrees_with_closed_forms():
    # P(1, x) = 1 - e^-x and P(2, x) = 1 - e^-x (1 + x), on both sides of a
    for a, x, closed in ((1.0, 0.5, 1 - math.exp(-0.5)), (1.0, 7.0, 1 - math.exp(-7.0)),
                         (2.0, 3.0, 1 - math.exp(-3.0) * 4.0)):
        assert float(oracle.reg_lower(oracle.mpf(a), oracle.mpf(x))) == pytest.approx(closed, abs=1e-15)
    # the continued fraction and mpmath's upper incomplete gamma agree
    a, x = oracle.mpf(2000), oracle.mpf(2300)
    fraction = oracle._upper_fraction(a, x, max_steps=10 ** 5)
    reference = oracle.mpmath.gammainc(a, x, oracle.mpmath.inf, regularized=True)
    assert abs(fraction - reference) <= 1e-25 * reference
