"""Set-up cost of the package, measured in fresh interpreters.

`import_seconds` times a child interpreter from its launch until it reports
that `import gamma_extremes` has returned, which is what every CLI command
and script pays before doing any work. `import_breakdown_ms` runs
`python -X importtime` and attributes the import time to scipy, mpmath and
the package's own modules.
"""

import os
import statistics
import subprocess
import sys
import time

import speed

_REPORT_IMPORTED = (
    "import sys\n"
    "import gamma_extremes\n"
    "sys.stdout.write('imported\\n')\n"
    "sys.stdout.flush()\n"
)


def _env(src_dir):
    return dict(os.environ, PYTHONPATH=src_dir)


def _reference():
    return statistics.median(speed.reference_seconds() for _ in range(5))


def import_seconds(src_dir, repeats):
    """Seconds from interpreter launch to `import gamma_extremes` returning,
    once per fresh interpreter: (raw, at reference speed) pairs (speed.py)."""
    times = []
    for _ in range(repeats):
        before = _reference()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _REPORT_IMPORTED],
            stdout=subprocess.PIPE, env=_env(src_dir),
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait() != 0 or line.strip() != b"imported":
                raise RuntimeError("child interpreter failed to import gamma_extremes")
        times.append((elapsed, elapsed * speed.scale([before, _reference()])))
    return times


def parse_importtime(text):
    """{'scipy': ms, 'mpmath': ms, 'gamma_extremes_self': ms} from -X importtime output.

    scipy and mpmath get the self time of every module first imported while
    importing them (numpy counts under scipy, which pulls it in); the
    package gets the self time of its own modules only.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own_us = int(fields[0])
        except ValueError:
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((own_us, depth, name.strip()))
    totals = {"scipy": 0.0, "mpmath": 0.0, "gamma_extremes_self": 0.0}
    # children precede their parent in the output, so walk it backwards,
    # keeping the chain of enclosing imports on a stack
    stack = []
    for own_us, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, name))
        roots = {n.split(".")[0] for _, n in stack}
        if name.split(".")[0] == "gamma_extremes":
            totals["gamma_extremes_self"] += own_us / 1e3
        elif "scipy" in roots:
            totals["scipy"] += own_us / 1e3
        elif "mpmath" in roots:
            totals["mpmath"] += own_us / 1e3
    return totals


def import_breakdown_ms(src_dir, repeats):
    """Median over fresh interpreters of parse_importtime's attribution."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gamma_extremes"],
            capture_output=True, text=True, env=_env(src_dir), check=True,
        )
        runs.append(parse_importtime(done.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
