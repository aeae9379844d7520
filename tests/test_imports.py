"""Import hygiene: every exported name resolves and the package exports
exactly its modules' names; no module of the package imports a name it does
not use or defines a private name nothing reads; no float-path module
imports exact arithmetic; importing the package and
its CLI, and running the case-1 proof, loads no heavy numeric library;
importing them loads none of the slow-to-import introspection modules that
dataclasses brings in, and not the exact stack, which loads on first
access to one of its names with the same objects, dir() and star-import a
plain import gave; importing the CLI builds no argument parser, and its
first run builds the one parser every later run reuses; the CLI's golden
outputs come out of a fresh interpreter unchanged; the full certificate
suite runs where mpmath cannot be imported at all."""

import ast
import glob
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import gamma_extremes
from gamma_extremes import certificates, exact_poly, gamma_prob, iddist, optimize, specfun

PACKAGE_DIR = os.path.dirname(os.path.abspath(gamma_extremes.__file__))
SRC_DIR = os.path.dirname(PACKAGE_DIR)
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_VERIFY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "golden", "verify_full_compare.txt",
)

HEAVY = ("scipy", "numpy", "mpmath")
# dataclasses and what it alone imports: ~27 ms of a cold start under -S
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis")
# the exact stack: every command but verify runs without it
EXACT_STACK = ("fractions", "decimal", "gamma_extremes.exact_poly", "gamma_extremes.certificates")
LAZY_MODULES = ("exact_poly", "certificates", "iddist")

_PROBE = f"""
import json, sys

preloaded = set(sys.modules)  # by site hooks, not by the package

def loaded():
    return sorted({{m.split('.')[0] for m in sys.modules}} & set({HEAVY!r}))

import gamma_extremes, gamma_extremes.cli
after_import = loaded()
introspection = [m for m in {INTROSPECTION!r} if m in set(sys.modules) - preloaded]
exact_stack = [m for m in {EXACT_STACK!r} if m in set(sys.modules) - preloaded]
report = gamma_extremes.verify_case1_transcendental()
print(json.dumps({{
    "after_import": after_import,
    "introspection": introspection,
    "exact_stack": exact_stack,
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


# counts every ArgumentParser made, subcommand parsers included
_PARSER_PROBE = """
import argparse, io, json

made = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    made.append(None)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
from gamma_extremes import cli
counts = [len(made)]
for argv in (["eval", "--function", "t", "--alpha", "7"], ["verify", "--only", "case2"]):
    cli.run(argv, out=io.StringIO())
    counts.append(len(made))
print(json.dumps(counts))
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


def test_package_and_cli_import_load_no_introspection_module(probe):
    assert probe["introspection"] == []


def test_package_and_cli_import_load_no_exact_stack(probe):
    assert probe["exact_stack"] == []


def test_case1_loads_no_heavy_library_and_passes(probe):
    assert probe["after_case1"] == []
    assert probe["case1_samples"] == 1000


def test_cli_builds_its_parser_on_first_run_not_at_import():
    result = _run_fresh(_PARSER_PROBE)
    assert result.returncode == 0, result.stderr
    # none at import; the first run makes the parser and its six subcommands'
    assert json.loads(result.stdout) == [0, 7, 7]


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
    package_all = ["__version__"] + [
        name
        for module in (specfun, gamma_prob, optimize, exact_poly, certificates, iddist)
        for name in module.__all__
    ]
    assert gamma_extremes.__all__ == package_all
    assert len(set(package_all)) == len(package_all)


def test_lazy_exports_are_their_modules_names():
    assert list(gamma_extremes._LAZY_EXPORTS) == list(LAZY_MODULES)
    for name, names in gamma_extremes._LAZY_EXPORTS.items():
        assert names == tuple(importlib.import_module(f"gamma_extremes.{name}").__all__), name


def test_exported_names_are_their_modules_objects():
    assert gamma_extremes.__version__ == "0.1.0"
    for module in (specfun, gamma_prob, optimize, exact_poly, certificates, iddist):
        assert getattr(gamma_extremes, module.__name__.rsplit(".", 1)[-1]) is module
        for name in module.__all__:
            assert getattr(gamma_extremes, name) is getattr(module, name), name
    assert set(dir(gamma_extremes)) >= {*gamma_extremes.__all__, *LAZY_MODULES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        gamma_extremes.x
    assert str(info.value) == "module 'gamma_extremes' has no attribute 'x'"


def test_star_import_binds_every_export_in_a_fresh_interpreter():
    result = _run_fresh(
        "import json\n"
        "from gamma_extremes import *\n"
        "import gamma_extremes\n"
        "print(json.dumps([n for n in gamma_extremes.__all__\n"
        "                  if globals().get(n, n) is not getattr(gamma_extremes, n)]))\n"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def _golden_lines(path, prefix=b""):
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if line.startswith(prefix))


@pytest.mark.parametrize("argv, golden, prefix, code", [
    (("verify",), GOLDEN_VERIFY, b"", 0),
    (("verify", "--full-compare"), GOLDEN_VERIFY, b"", 0),
    (("verify", "--only", "case2"), GOLDEN_VERIFY, b"name=case2J;", 0),
    (("conjecture", "--family", "gamma"), "conjecture_gamma.txt", b"", 0),
    (("conjecture", "--family", "poisson"), "conjecture_poisson.txt", b"", 1),
    (("scan", "--kappa", "0.999", "--range", "50:1e7", "--n", "400"),
     "scan_kappa_0.999.txt", b"", 0),
], ids=("verify", "verify-full", "verify-only", "conjecture-gamma", "conjecture-poisson",
        "scan"))
def test_cli_goldens_from_a_fresh_interpreter(argv, golden, prefix, code):
    """Each command, with whatever it loads on first use, prints its golden
    lines and exits with its golden code (the spot-check verify records
    equal the full-compare ones)."""
    result = _run_fresh(f"import sys; from gamma_extremes import cli; sys.exit(cli.run({list(argv)!r}))")
    assert result.returncode == code, result.stderr
    assert result.stdout == _golden_lines(os.path.join(GOLDEN_DIR, golden), prefix)


def _module_trees():
    trees = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    return trees


def _read_names(tree):
    """Names the module reads: loaded identifiers and its __all__ strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)
            )
    return names


def _imported_bindings(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _imported_modules(tree):
    """Top-level names of every module the tree imports, at any nesting."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_float_modules_import_no_exact_arithmetic():
    """Exact rationals stay in exact_poly and certificates, off the float
    hot path that runs from specfun up to the CLI."""
    trees = _module_trees()
    exact = {"fractions", "decimal"}
    assert exact & set(_imported_modules(trees["exact_poly.py"]))
    for filename in ("specfun.py", "gamma_prob.py", "optimize.py", "iddist.py", "cli.py"):
        assert not exact & set(_imported_modules(trees[filename])), filename


def _top_level_imports(tree):
    """Modules imported in the module body, relative ones by their own name."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_lazy_modules_are_not_imported_at_top_level():
    """The package body imports only the float stack, and the CLI body not
    certificates (it needs iddist there for the --family choices)."""
    trees = _module_trees()
    init_imports = set(_top_level_imports(trees["__init__.py"]))
    assert init_imports >= {"specfun", "gamma_prob", "optimize"}
    assert not init_imports & {*LAZY_MODULES, "fractions", "decimal"}
    cli_imports = set(_top_level_imports(trees["cli.py"]))
    assert "iddist" in cli_imports
    assert not cli_imports & {"exact_poly", "certificates", "fractions", "decimal"}


def test_no_unused_import_or_private_name():
    trees = _module_trees()
    assert "certificates.py" in trees
    # a private name is used where some module reads it, imports it by
    # name or reaches it as an attribute
    used_anywhere = set()
    for tree in trees.values():
        used_anywhere |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used_anywhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used_anywhere.update(alias.name for alias in node.names)
    unused = []
    for filename, tree in trees.items():
        read = _read_names(tree)
        unused += [(filename, "import", n) for n in _imported_bindings(tree) if n not in read]
        unused += [
            (filename, "private", n) for n in _private_definitions(tree) if n not in used_anywhere
        ]
    assert not unused
