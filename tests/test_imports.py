"""Import hygiene: every exported name resolves; importing the package and
its CLI, and running the case-1 proof, loads no heavy numeric library; the
full certificate suite runs where mpmath cannot be imported at all."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import gamma_extremes

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gamma_extremes.__file__)))
GOLDEN_VERIFY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "golden", "verify_full_compare.txt",
)

HEAVY = ("scipy", "numpy", "mpmath")

_PROBE = f"""
import json, sys

def loaded():
    return sorted({{m.split('.')[0] for m in sys.modules}} & set({HEAVY!r}))

import gamma_extremes, gamma_extremes.cli
after_import = loaded()
report = gamma_extremes.verify_case1_transcendental()
print(json.dumps({{
    "after_import": after_import,
    "after_case1": loaded(),
    "case1_samples": report.samples_checked,
}}))
"""


# a None entry in sys.modules makes every later `import mpmath` fail
_BLOCKED_PROBE = """
import sys
sys.modules["mpmath"] = None
from gamma_extremes import cli
sys.exit(cli.run(["verify", "--full-compare"]))
"""


def _run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)


@pytest.fixture(scope="module")
def probe():
    """What a fresh interpreter has loaded after importing the package and
    after running the case-1 proof."""
    result = _run_fresh(_PROBE)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_package_and_cli_import_load_no_heavy_library(probe):
    assert probe["after_import"] == []


def test_case1_loads_no_heavy_library_and_passes(probe):
    assert probe["after_case1"] == []
    assert probe["case1_samples"] == 1000


def test_full_compare_verify_runs_with_mpmath_blocked():
    result = _run_fresh(_BLOCKED_PROBE)
    assert result.returncode == 0, result.stderr
    with open(GOLDEN_VERIFY, "rb") as fh:
        assert result.stdout == fh.read()


def test_every_exported_name_resolves():
    modules = [gamma_extremes] + [
        importlib.import_module(f"gamma_extremes.{info.name}")
        for info in pkgutil.iter_modules(gamma_extremes.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert "certificates" in {m.__name__.rsplit(".", 1)[-1] for m in modules}
