"""Tests for the command-line interface: output formats, determinism, exit
codes, and the one parser that every run in a process shares."""

import io
import math
import os

import pytest

from gamma_extremes import certificates, cli, iddist, optimize
from gamma_extremes.cli import counterexample_table, run
from gamma_extremes.exact_poly import RationalPoly
from gamma_extremes.iddist import FAMILIES
from gamma_extremes.specfun import ConvergenceError

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_VERIFY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "golden", "verify_full_compare.txt",
)

# the golden verify records each --only choice prints
ONLY_RECORDS = {
    "smallalpha": ["smallalpha"],
    "chain_plus": ["G+", "I+", "V+"],
    "chain_minus": ["G-", "I-", "V-"],
    "case2": ["case2J"],
    "case1": ["case1"],
}


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestEval:
    def test_h(self):
        code, text = invoke("eval", "--function", "h", "--kappa", "1", "--alpha", "1")
        assert code == 0
        assert float(text) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_t(self):
        code, text = invoke("eval", "--function", "t", "--alpha", "1")
        assert code == 0
        assert float(text) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-10)

    def test_band_scale_free(self):
        _, a = invoke("eval", "--function", "band", "--kappa", "2", "--alpha", "10")
        _, b = invoke("eval", "--function", "band", "--kappa", "2", "--alpha", "10",
                      "--beta", "55")
        assert a == b
        assert float(a) == pytest.approx(0.9585112, abs=1e-6)

    def test_missing_kappa_is_usage_error(self):
        code, _ = invoke("eval", "--function", "h", "--alpha", "2")
        assert code == 2

    def test_invalid_alpha_is_usage_error(self):
        code, _ = invoke("eval", "--function", "t", "--alpha", "-3")
        assert code == 2


class TestMinimize:
    def test_interior_minimum(self):
        code, text = invoke("minimize", "--kappa", "1.01")
        assert code == 0
        lines = dict(line.split("=", 1) for line in text.splitlines())
        assert float(lines["argmin"]) == pytest.approx(33.4871, rel=1e-3)
        assert float(lines["min_value"]) == pytest.approx(0.545885, abs=1e-4)

    def test_kappa_one_boundary_diagnosis(self):
        code, text = invoke("minimize", "--kappa", "1")
        assert code == 0
        assert "no interior minimum" in text
        assert "alpha->infinity" in text
        assert "argmin=" not in text
        # the reported infimum is ~0.5
        value = float(text.split("infimum ~ ")[1].split(" ")[0])
        assert value == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize(
        "kappa",
        ["1.01", "1.1", "1.2", "1.5", "2", "3", "4", "1.001", "1", "0.8", "0.5",
         "0.2", "0.95", "0.999", "0.9999999"],
    )
    def test_output_matches_golden_transcript(self, kappa):
        code, text = invoke("minimize", "--kappa", kappa)
        assert code == 0
        path = os.path.join(GOLDEN_DIR, f"minimize_kappa_{kappa}.txt")
        with open(path, encoding="utf-8", newline="") as fh:
            assert text == fh.read()

    @pytest.mark.parametrize(
        "kappa, edge, value, alpha_star",
        [
            ("5000", "0.0001", "0.999944019707", "6.66800026672e-05"),
            ("1.0000001", "1e+06", "0.500172874984", "3333333.33139"),
        ],
    )
    def test_minimum_outside_the_search_range(self, kappa, edge, value, alpha_star):
        # h(kappa, .) -> 1 at both ends for kappa > 1: no infimum at a boundary
        code, text = invoke("minimize", "--kappa", kappa)
        assert code == 0
        assert text == (
            f"no interior minimum for kappa={kappa} in the search range [0.0001, 1e+06]: "
            f"the minimum lies outside it, beyond the grid edge alpha={edge} where h={value}; "
            f"Edgeworth estimate alpha*={alpha_star}\n"
        )
        assert "infimum" not in text

    @pytest.mark.parametrize("kappa, tol", [("0.5", "-1"), ("1.5", "nan")])
    def test_invalid_tol_is_usage_error(self, kappa, tol, capsys):
        code, text = invoke("minimize", "--kappa", kappa, "--tol", tol)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: tol must be finite and positive")


class TestScan:
    def test_csv_format_and_byte_stability(self, tmp_path):
        args = ("scan", "--kappa", "1.5", "--range", "0.1:10", "--n", "7")
        first = invoke(*args)
        second = invoke(*args)
        assert first == second
        code, text = first
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "alpha,value"
        assert len(lines) == 8
        assert text.endswith("\n")
        for line in lines[1:]:
            alpha, value = line.split(",")
            float(alpha), float(value)

    def test_out_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        code, text = invoke("scan", "--kappa", "1", "--range", "1:100", "--n", "5",
                            "--out", str(path))
        assert code == 0
        content = path.read_text()
        assert content.startswith("alpha,value\n")
        assert len(content.splitlines()) == 6

    def test_output_matches_golden_transcript(self):
        code, text = invoke("scan", "--kappa", "0.999", "--range", "50:1e7", "--n", "400")
        assert code == 0
        path = os.path.join(GOLDEN_DIR, "scan_kappa_0.999.txt")
        with open(path, encoding="utf-8", newline="") as fh:
            assert text == fh.read()

    def test_bad_range_is_usage_error(self):
        code, _ = invoke("scan", "--kappa", "1", "--range", "10:1", "--n", "5")
        assert code == 2
        code, _ = invoke("scan", "--kappa", "1", "--range", "nonsense", "--n", "5")
        assert code == 2

    @pytest.mark.parametrize("alpha_range", ("1:inf", "1:1e400"))
    def test_non_finite_range_is_usage_error(self, alpha_range, capsys):
        code, text = invoke("scan", "--kappa", "1.5", "--range", alpha_range, "--n", "3")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: alpha_hi must be finite and positive, got inf\n"


class TestVerify:
    def test_full_suite_passes(self):
        code, text = invoke("verify")
        assert code == 0
        lines = text.strip().splitlines()
        names = [line.split(";")[0] for line in lines]
        assert names == [
            "name=smallalpha", "name=G+", "name=I+", "name=V+",
            "name=G-", "name=I-", "name=V-", "name=case2J", "name=case1",
        ]
        for line in lines:
            assert ";verdict=" in line and ";detail=" in line

    def test_subset(self):
        code, text = invoke("verify", "--only", "smallalpha")
        assert code == 0
        assert text.startswith("name=smallalpha;verdict=all_positive")
        assert "case1" not in text

    def test_full_compare(self):
        code, text = invoke("verify", "--full-compare")
        assert code == 0
        with open(GOLDEN_VERIFY, encoding="utf-8", newline="") as fh:
            assert text == fh.read()

    @pytest.mark.parametrize("flags", [[], ["--full-compare"]], ids=["spot", "full"])
    @pytest.mark.parametrize("only", ONLY_RECORDS)
    def test_only_matches_golden_lines(self, only, flags):
        with open(GOLDEN_VERIFY, encoding="utf-8", newline="") as fh:
            golden = fh.read().splitlines(keepends=True)
        expected = "".join(
            line for name in ONLY_RECORDS[only] for line in golden
            if line.startswith(f"name={name};")
        )
        code, text = invoke("verify", *flags, "--only", only)
        assert code == 0
        assert text == expected

    def test_only_without_names_is_usage_error(self, capsys):
        code, text = invoke("verify", "--only")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.endswith(
            "gamma-extremes verify: error: argument --only: expected at least one argument\n"
        )

    def test_failed_check_exits_one(self, monkeypatch):
        # constant term -2 in place of the printed -1
        patched = certificates.CASE2_NUMERATOR + RationalPoly([-1, 4])
        monkeypatch.setattr(certificates, "CASE2_NUMERATOR", patched)
        code, text = invoke("verify", "--only", "case2")
        assert code == 1
        assert text == (
            "name=verify;verdict=fail;detail=case2J: coefficient of q^0 is -2, expected -1\n"
        )


class TestCounterexamples:
    def test_table_matches_references(self):
        for _, _, value, reference in counterexample_table():
            assert value == pytest.approx(reference, abs=1e-6)

    def test_command_output(self):
        code, text = invoke("counterexamples")
        assert code == 0
        for reference in ("0.3834005", "0.3829249", "0.3819693",
                          "0.9502129", "0.9544997", "0.9585112"):
            assert reference in text


class TestConjecture:
    def test_gamma_clean_exit_zero(self):
        code, text = invoke("conjecture", "--family", "gamma")
        assert code == 0
        assert text.startswith("name=conjecture_gamma;verdict=no_violation")
        assert "evidence only" in text

    def test_normal_equality(self):
        code, text = invoke("conjecture", "--family", "normal")
        assert code == 0
        assert "violations=0" in text

    def test_poisson_violations_reported_and_exit_one(self):
        code, text = invoke("conjecture", "--family", "poisson")
        assert code == 1
        head = text.splitlines()[0]
        assert head.startswith("name=conjecture_poisson;verdict=violations_found")
        assert "name=violation;verdict=below_threshold" in text

    def test_unknown_family_usage_error(self):
        code, _ = invoke("conjecture", "--family", "zeta")
        assert code == 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_output_matches_golden_transcript(self, family):
        code, text = invoke("conjecture", "--family", family)
        path = os.path.join(GOLDEN_DIR, f"conjecture_{family}.txt")
        with open(path, encoding="utf-8", newline="") as fh:
            assert text == fh.read()
        assert code == (1 if family in ("poisson", "negbinomial") else 0)


class TestOutPath:
    @pytest.mark.parametrize("argv", [
        ("scan", "--kappa", "1", "--range", "1:100", "--n", "5"),
        ("verify", "--only", "smallalpha"),
        ("conjecture", "--family", "normal"),
    ])
    def test_missing_directory_is_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        code, text = invoke(*argv, "--out", str(path))
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out ")
        assert str(path) in err
        assert "Traceback" not in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv, module, name", [
        (("scan", "--kappa", "1.5", "--range", "1e-3:1e6", "--n", "200000"), optimize, "scan"),
        (("conjecture", "--family", "negbinomial"), iddist, "conjecture_scan"),
    ], ids=("scan", "conjecture"))
    def test_unwritable_out_fails_before_computing(self, argv, module, name, monkeypatch,
                                                   tmp_path, capsys):
        calls = []

        def compute(*args):
            calls.append(args)
            raise RuntimeError("computed before --out was opened")

        monkeypatch.setattr(module, name, compute)
        code, text = invoke(*argv, "--out", str(tmp_path / "missing" / "out.txt"))
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: cannot write --out ")
        assert calls == []


class TestUsage:
    def test_no_subcommand(self):
        code, _ = invoke()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = invoke("frobnicate")
        assert code == 2


class TestNumericalFailure:
    @pytest.mark.parametrize("error", (ConvergenceError, ArithmeticError))
    def test_arithmetic_error_is_diagnosed_with_exit_three(self, monkeypatch, capsys, error):
        def fail(alpha):
            raise error(f"no convergence at alpha={alpha}")

        monkeypatch.setattr(cli, "t", fail)
        code, text = invoke("eval", "--function", "t", "--alpha", "7")
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == "error: no convergence at alpha=7.0\n"


@pytest.fixture
def unbuilt_parser():
    """run's shared parser as a new process has it: not built yet."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


# usage errors, help at two widths, a ValueError, a numerical failure (t is
# patched to fail) and successful commands, mixed in one process
MIXED_CALLS = (
    (("conjecture", "--family", "zeta"), "80"),
    (("verify", "--help"), "52"),
    (("eval", "--function", "h", "--kappa", "1.5", "--alpha", "2"), "80"),
    (("verify", "--help"), "200"),
    (("eval", "--function", "h", "--alpha", "2"), "80"),
    (("verify", "--only", "case2", "smallalpha"), "80"),
    (("eval", "--function", "t", "--alpha", "7"), "80"),
    (("--help",), "60"),
    (("conjecture", "--family", "gamma"), "80"),
    (("verify", "--only"), "40"),
    (("minimize", "--kappa", "1.5", "--tol", "nan"), "80"),
    ((), "80"),
    (("verify", "--full-compare"), "80"),
)


class TestSharedParser:
    def _transcripts(self, monkeypatch, capsys):
        """(exit code, records, stdout, stderr) of each of MIXED_CALLS."""
        transcripts = []
        for argv, columns in MIXED_CALLS:
            monkeypatch.setenv("COLUMNS", columns)
            code, text = invoke(*argv)
            captured = capsys.readouterr()
            transcripts.append((code, text, captured.out, captured.err))
        return transcripts

    def test_built_once_over_many_runs(self, unbuilt_parser, monkeypatch):
        built = []
        fresh = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or fresh())
        for argv, _ in MIXED_CALLS[:6]:
            invoke(*argv)
        assert len(built) == 1

    def test_every_call_matches_a_fresh_parser(self, unbuilt_parser, monkeypatch, capsys):
        def fail(alpha):
            raise ConvergenceError(f"no convergence at alpha={alpha}")

        monkeypatch.setattr(cli, "t", fail)
        shared = self._transcripts(monkeypatch, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert self._transcripts(monkeypatch, capsys) == shared
        assert [code for code, *_ in shared] == [2, 0, 0, 0, 2, 0, 3, 0, 0, 2, 2, 2, 0]
        # the help text follows COLUMNS at each call, not at the first
        assert shared[1][2] != shared[3][2]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
