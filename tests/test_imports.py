"""Import hygiene: importing the package and its CLI loads no heavy numeric
library; mpmath is loaded on first use by the case-1 check alone."""

import json
import os
import subprocess
import sys

import pytest

import gamma_extremes

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gamma_extremes.__file__)))

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
    "case1_passed": report.all_samples_positive,
}}))
"""


@pytest.fixture(scope="module")
def probe():
    """What a fresh interpreter has loaded after importing the package and
    after running the case-1 check."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


def test_package_and_cli_import_load_no_heavy_library(probe):
    assert probe["after_import"] == []


def test_case1_loads_mpmath_and_passes(probe):
    assert probe["after_case1"] == ["mpmath"]
    assert probe["case1_passed"] is True
