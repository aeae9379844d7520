"""The repository benchmark: one workload, one seed, oracle-checked.

Run from the repository root:

    python3 benchmarks/run.py --workload grid_sweep --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): grid_sweep (h, t, band, min_h and Q over the
full shape domain), conjecture (band_prob of every family over
default_grid-sized grids) and certify (`verify --full-compare` plus seeded
exact-ring ops). A run

1. builds the op list from the seed and loads its oracle values, computing
   them in a child process on the first run of a seed (oracle.py);
2. measures set-up in fresh interpreters: `setup_s` with --trace 0, the
   `-X importtime` breakdown with --trace 1;
3. imports the package from ./src, runs one warm-up pass, then timed passes
   (closed loop, one process, no threads) until --seconds have passed. With
   --trace 1, half the time runs untraced and half traced, and the
   difference of their median pass times is the tracing overhead;
4. checks every output of every pass against the oracle (checks.py), and
   runs the known-bad probes once, untimed;
5. prints a stamp, one line per metric, and as its last line the JSON
   result: end-to-end metrics with --trace 0, per-layer ones with --trace 1.

All times are rescaled to a reference speed of the machine (speed.py).
wall_s is the median time of a timed pass. An op's latency is the least of
its times over the timed passes; op_p50_ms and op_tail_ms are percentiles
of those over the pass's ops, the tail being the highest percentile with at
least ten ops beyond it.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import startup  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
TAIL_BEYOND = 10

SPECFUN_FUNCTIONS = ("lower_series", "upper_continued_fraction", "ln_gamma",
                     "std_normal_cdf", "log_std_normal_sf")
BUCKETS = tuple(f"{size}_{side}" for size in ("small", "mid", "large")
                for side in ("lower", "upper"))
FAMILIES = ("gamma", "poisson", "negbinomial", "invgaussian", "compound_poisson_exp", "normal")
CERTIFICATES = ("smallalpha", "chain_plus", "chain_minus", "case2", "case1")


def per_layer_names():
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    # total_ms includes the series / continued fraction a call dispatches to
    for bucket in BUCKETS:
        names += [(f"specfun.reg_lower_gamma.{bucket}.{stat}", unit)
                  for stat, unit in (("calls", "count"), ("self_ms", "ms"), ("total_ms", "ms"))]
    for fn in SPECFUN_FUNCTIONS:
        names += [(f"specfun.{fn}.calls", "count"), (f"specfun.{fn}.self_ms", "ms"),
                  (f"specfun.{fn}.fails", "count")]
    for fn in ("h", "t", "band"):
        names += [(f"gamma_prob.{fn}.calls", "count"), (f"gamma_prob.{fn}.self_ms", "ms")]
    names += [("optimize.min_h.calls", "count"), ("optimize.min_h.self_ms", "ms"),
              ("optimize.objective_evals", "count"), ("optimize.bracket_share", "ratio")]
    for family in FAMILIES:
        names += [(f"iddist.band_prob.{family}.calls", "count"),
                  (f"iddist.band_prob.{family}.self_ms", "ms")]
    names += [("iddist.compound_poisson.reg_lower_gamma_per_band", "count")]
    for op in ("mul", "pow", "divmod", "sturm"):
        names += [(f"exact_poly.{op}.calls", "count"), (f"exact_poly.{op}.self_ms", "ms")]
    names += [("exact_poly.coeff_mults", "count")]
    names += [(f"certificates.{c}.self_ms", "ms") for c in CERTIFICATES]
    names += [("cli.run.verify.self_ms", "ms")]
    names += [(f"setup.import.{part}_ms", "ms")
              for part in ("scipy", "mpmath", "gamma_extremes_self")]
    names += [("known_bad.crossover_q.failed", "count"), ("known_bad.h_underflow.failed", "count"),
              ("trace.spans", "count"), ("trace.overhead_s", "s")]
    return names


def tail_percentile(n):
    """The highest percentile with TAIL_BEYOND of n samples beyond it."""
    return 100.0 * (n - TAIL_BEYOND) / n


def latency_stats(passes):
    """(p50 ms, tail ms) over the ops of a pass, taking each op's latency as
    the least of its times over the passes: the usual estimate of an op's
    own cost, free of what other tenants of the machine did meanwhile."""
    per_op = sorted(min(times) for times in zip(*(p.latencies for p in passes)))
    return 1e3 * statistics.median(per_op), 1e3 * per_op[len(per_op) - TAIL_BEYOND - 1]


def oracle_values(workload, seed):
    """Expected values for the seed's ops and probes, cached per seed."""
    digest = hashlib.sha256()
    for name in ("oracle.py", "workloads.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            digest.update(fh.read())
    cache_dir = os.path.join(HERE, ".oracle_cache")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{workload}-{seed}-{digest.hexdigest()[:16]}.json")
    if not os.path.exists(path):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "oracle.py"), "--workload", workload,
             "--seed", str(seed), "--out", path],
            check=True,
        )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stamp(args, src_dir):
    """What a result must be compared on: versions, machine, code and seed."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in (src_dir, HERE):
        for root, dirs, files in sorted(os.walk(base)):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
            for name in sorted(files):
                if name.endswith((".py", ".txt")):
                    with open(os.path.join(root, name), "rb") as fh:
                        digest.update(name.encode() + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Pass:
    """One timed pass: per-op seconds at reference speed, raw seconds in the
    ops, failed ops, and the per-layer metrics when traced."""

    def __init__(self, latencies, raw_s, failed, layers):
        self.latencies = latencies
        self.wall_s = sum(latencies)
        self.raw_s = raw_s
        self.failed = failed
        self.layers = layers


def timed_passes(runner, calls, verdicts, reference, seconds, min_passes, tracer=None):
    """Passes until `seconds` have elapsed (at least min_passes).

    An op fails in a pass if the warm-up pass's output failed its check, or
    if its output differs in any bit from the warm-up pass's.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.clear()
        latencies, outputs, raw_s = runner.run_pass(calls, tracer)
        layers = spans.layer_metrics(tracer) if tracer is not None else None
        failed = sum(1 for ok, ref, out in zip(verdicts, reference, outputs)
                     if not ok or runner.fingerprint(out) != ref)
        passes.append(Pass(latencies, raw_s, failed, layers))
    return passes


def judge(runner, ops, expected, outputs):
    """(oracle verdict per op, fingerprint per output) of the warm-up pass."""
    verdicts = [checks.check(op, out, exp) for op, out, exp in zip(ops, outputs, expected)]
    return verdicts, [runner.fingerprint(out) for out in outputs]


def probe_failures(runner, probes, expected):
    """Failed known-bad probes per region: (crossover Q, h underflow)."""
    _, outputs, _ = runner.run_pass([runner.bind(op) for op in probes])
    crossover = underflow = 0
    for op, out, exp in zip(probes, outputs, expected):
        if not checks.check_probe(op, out, exp):
            if op[0] == "h_step":
                underflow += 1
            else:
                crossover += 1
    return crossover, underflow


def layer_report(traced_passes, breakdown, probes_failed, overhead):
    """Every per-layer metric: medians over traced passes (counts repeat)."""
    per_pass = []
    for calls, self_ms, total_ms, fails, derived in (p.layers for p in traced_passes):
        values = dict(derived)
        for name, count in calls.items():
            values[f"{name}.calls"] = count
            values[f"{name}.self_ms"] = self_ms[name]
            values[f"{name}.total_ms"] = total_ms[name]
            values[f"{name}.fails"] = fails[name]
        per_pass.append(values)
    keys = set().union(*per_pass)
    medians = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in keys}
    for part, ms in breakdown.items():
        medians[f"setup.import.{part}_ms"] = ms
    medians["known_bad.crossover_q.failed"], medians["known_bad.h_underflow.failed"] = probes_failed
    medians["trace.overhead_s"] = overhead
    return {name: (medians.get(name, 0), unit) for name, unit in per_layer_names()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gamma-extremes benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src_dir = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src_dir, "gamma_extremes", "__init__.py")):
        print(f"error: no package source at {src_dir}/gamma_extremes; "
              "run from the repository root", file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, args.seed)
    probes = workloads.make_probes(args.workload, args.seed)
    expected = oracle_values(args.workload, args.seed)
    print("stamp " + json.dumps(stamp(args, src_dir)), flush=True)

    startup.import_seconds(src_dir, 1)  # byte-compile ./src before timing
    if args.trace:
        breakdown = startup.import_breakdown_ms(src_dir, IMPORTTIME_REPEATS)
    else:
        setups = startup.import_seconds(src_dir, SETUP_REPEATS)
        setup_s = statistics.median(scaled for _, scaled in setups)
        print(f"raw setup time (not rescaled) {statistics.median(raw for raw, _ in setups):.6g} s")

    sys.path.insert(0, src_dir)
    import gamma_extremes
    import runner

    calls = [runner.bind(op) for op in ops]
    _, warm_up, _ = runner.run_pass(calls)
    # the high-water mark of import plus one full pass; later passes repeat
    # the same work, so reading it later would only add the stored timings
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts, reference = judge(runner, ops, expected["ops"], warm_up)
    del warm_up
    if args.trace:
        untraced = timed_passes(runner, calls, verdicts, reference, args.seconds / 2,
                                MIN_TRACE_PASSES)
        tracer = spans.Tracer()
        tracer.install(gamma_extremes)
        try:
            traced = timed_passes(runner, calls, verdicts, reference, args.seconds / 2,
                                  MIN_TRACE_PASSES, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = timed_passes(runner, calls, verdicts, reference, args.seconds, MIN_PASSES)

    attempted = len(ops) * (len(passes) + 1)
    failed = verdicts.count(False) + sum(p.failed for p in passes)
    probes_failed = probe_failures(runner, probes, expected["probes"])

    if args.trace:
        overhead = (statistics.median(p.wall_s for p in traced)
                    - statistics.median(p.wall_s for p in untraced))
        metrics = layer_report(traced, breakdown, probes_failed, overhead)
    else:
        p50_ms, tail_ms = latency_stats(passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "op_p50_ms": (p50_ms, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"ops/pass {len(ops)}  timed passes {len(passes)}  "
          f"tail = p{tail_percentile(len(ops)):.4g} ({TAIL_BEYOND} ops beyond)  "
          f"raw pass time (not rescaled) {statistics.median(p.raw_s for p in passes):.6g} s")
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")
    print(f"known_bad crossover_q {probes_failed[0]} of {workloads.CROSSOVER_PROBES if probes else 0} "
          f"failed, h_underflow {probes_failed[1]} of {workloads.UNDERFLOW_PROBES if probes else 0} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
