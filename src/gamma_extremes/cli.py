"""Command-line front end: point evaluation, minimization, CSV scans,
certificate verification, the reference probability table, and conjecture
grid scans.

Exit codes: 0 success, 1 a verification check failed or a conjecture
violation was found, 2 usage error (a bad argument, or an --out path that
cannot be opened), 3 a numerical method failed (ConvergenceError or
another ArithmeticError); error messages go to stderr. All output is
deterministic for fixed arguments; scan CSV is byte-stable.

`run` parses with one parser per process, built on its first call and not
at import, so a one-shot command pays for argparse once, as before, and an
in-process caller pays for it once rather than per call.
"""

import argparse
import contextlib
import functools
import math
import sys

# iddist loads here, not on first use: build_parser reads iddist.FAMILIES
# for the --family choices. certificates loads in _cmd_verify, its one user.
from . import iddist, optimize
from .gamma_prob import GammaParams, band, h, t
from .optimize import NoInteriorMinimum
from .specfun import std_normal_band

__all__ = ["main", "run", "build_parser", "counterexample_table", "COUNTEREXAMPLES"]

_SIG = ".12g"

# The reference table: one-sigma-scaled bands that straddle the normal band
# in both directions once kappa moves off 1.
COUNTEREXAMPLES = (
    ("gamma alpha=1", 0.5, ("gamma", 1.0), 0.3834005),
    ("standard normal", 0.5, ("normal", None), 0.3829249),
    ("gamma alpha=2", 0.5, ("gamma", 2.0), 0.3819693),
    ("gamma alpha=1", 2.0, ("gamma", 1.0), 0.9502129),
    ("standard normal", 2.0, ("normal", None), 0.9544997),
    ("gamma alpha=10", 2.0, ("gamma", 10.0), 0.9585112),
)


def counterexample_table():
    """Rows (label, kappa, computed probability, reference value)."""
    rows = []
    for label, kappa, (kind, alpha), reference in COUNTEREXAMPLES:
        if kind == "gamma":
            value = band(GammaParams(alpha), kappa)
        else:
            value = std_normal_band(kappa)
        rows.append((label, kappa, float(value), reference))
    return rows


def _parse_range(text):
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must be lo:hi, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range needs lo < hi, got {text!r}")
    return lo, hi


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gamma-extremes",
        description="Gamma-distribution extreme probabilities, certified inequalities, "
        "and infinitely-divisible band scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate h, t, or the band probability")
    p_eval.add_argument("--function", required=True, choices=("h", "t", "band"))
    p_eval.add_argument("--kappa", type=float)
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--beta", type=float, default=1.0)

    p_min = sub.add_parser("minimize", help="locate the interior minimum of h(kappa, .)")
    p_min.add_argument("--kappa", type=float, required=True)
    p_min.add_argument("--tol", type=float, default=optimize.DEFAULT_TOL,
                       help="relative tolerance on ln(alpha) for Brent's search (default "
                       "%(default)g); the search also stops at the rounding floor of h, "
                       "which resolves argmin to ~1e-7 relative, about 7 of the 12 digits "
                       "printed; a tol below ~1e-7 buys no further digits")

    p_scan = sub.add_parser("scan", help="CSV table of h(kappa, alpha) over a log grid")
    p_scan.add_argument("--kappa", type=float, required=True)
    p_scan.add_argument("--range", type=_parse_range, required=True, dest="alpha_range",
                        metavar="LO:HI")
    p_scan.add_argument("--n", type=int, default=400)
    p_scan.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the exact sign-certificate suite")
    p_verify.add_argument("--only", nargs="+", default=None,
                          choices=("smallalpha", "chain_plus", "chain_minus", "case2", "case1"))
    p_verify.add_argument("--full-compare", action="store_true")
    p_verify.add_argument("--out", default=None)

    sub.add_parser("counterexamples",
                   help="reference table of band probabilities straddling the normal band")

    p_conj = sub.add_parser("conjecture", help="band-inequality grid scan for one family")
    p_conj.add_argument("--family", required=True, choices=iddist.FAMILIES)
    p_conj.add_argument("--out", default=None)

    return parser


def _sink(path, default):
    """default, or path opened for writing; a failed open is a usage error.
    scan and conjecture open it before computing, verify after its checks."""
    if path is None:
        return contextlib.nullcontext(default)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


def _cmd_eval(args, out):
    if args.function == "t":
        value = t(args.alpha)
    elif args.kappa is None:
        raise ValueError(f"eval --function {args.function} requires --kappa")
    elif args.function == "h":
        value = h(args.kappa, args.alpha)
    else:
        value = band(GammaParams(args.alpha, args.beta), args.kappa)
    print(format(float(value), _SIG), file=out)
    return 0


def _cmd_minimize(args, out):
    try:
        result = optimize.min_h(args.kappa, tol=args.tol)
    except NoInteriorMinimum as diag:
        if args.kappa > 1.0:
            # h(kappa, .) tends to 1 at both ends, so the minimum is beyond the grid edge
            lo, hi = math.exp(optimize.DEFAULT_LOG_LO), math.exp(optimize.DEFAULT_LOG_HI)
            alpha_star = optimize.edgeworth_argmin(args.kappa)
            print(
                f"no interior minimum for kappa={format(args.kappa, _SIG)} in the search range "
                f"[{lo:.6g}, {hi:.6g}]: the minimum lies outside it, beyond the grid edge "
                f"alpha={diag.abscissa:.6g} where h={format(diag.value, _SIG)}; "
                f"Edgeworth estimate alpha*={format(alpha_star, _SIG)}",
                file=out,
            )
            return 0
        boundary = "alpha->infinity" if diag.boundary == "upper" else "alpha->0"
        print(
            f"no interior minimum for kappa={format(args.kappa, _SIG)}: "
            f"infimum ~ {format(diag.value, _SIG)} approached at the {boundary} boundary",
            file=out,
        )
        return 0
    print(f"argmin={format(result.argmin, _SIG)}", file=out)
    print(f"min_value={format(float(result.min_value), _SIG)}", file=out)
    print(f"evaluations={result.evaluations}", file=out)
    return 0


def _cmd_scan(args, out):
    lo, hi = args.alpha_range
    with _sink(args.out, out) as fh:
        rows = optimize.scan(args.kappa, lo, hi, args.n)
        fh.write("alpha,value\n")
        for alpha, value in rows:
            fh.write(f"{format(alpha, _SIG)},{format(float(value), _SIG)}\n")
    return 0


def _cmd_verify(args, out):
    from . import certificates

    only = None if args.only is None else set(args.only)
    try:
        reports, case1 = certificates.verify_all(full_compare=args.full_compare, only=only)
    except (certificates.CertificateMismatch, certificates.SignViolation,
            certificates.NumericMismatch) as exc:
        print(f"name=verify;verdict=fail;detail={exc}", file=out)
        return 1
    with _sink(args.out, out) as fh:
        fh.write(certificates.format_records(reports, case1) + "\n")
    return 0


def _cmd_counterexamples(args, out):
    print("label                 kappa   computed     reference", file=out)
    worst = 0.0
    for label, kappa, value, reference in counterexample_table():
        worst = max(worst, abs(value - reference))
        print(f"{label:<21} {kappa:<7g} {value:.7f}    {reference:.7f}", file=out)
    if worst > 1e-6:
        print(f"name=counterexamples;verdict=fail;detail=max deviation {worst:.3g}", file=out)
        return 1
    return 0


def _cmd_conjecture(args, out):
    with _sink(args.out, out) as fh:
        report = iddist.conjecture_scan(args.family)
        verdict = "violations_found" if report.violations else "no_violation"
        argmin = repr(report.argmin_params)
        notes = " | ".join(report.notes)
        fh.write(
            f"name=conjecture_{report.family};verdict={verdict};"
            f"detail=min_band={format(float(report.min_band), _SIG)} argmin={argmin} "
            f"grid={len(report.grid)} threshold={format(report.threshold, _SIG)} "
            f"violations={len(report.violations)}; {notes}\n"
        )
        for spec, value in report.violations:
            fh.write(
                f"name=violation;verdict=below_threshold;"
                f"detail=params={spec!r} band={format(float(value), _SIG)}\n"
            )
    return 1 if report.violations else 0


_HANDLERS = {
    "eval": _cmd_eval,
    "minimize": _cmd_minimize,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "counterexamples": _cmd_counterexamples,
    "conjecture": _cmd_conjecture,
}


@functools.cache
def _parser():
    # argparse keeps no per-call state: it reads the terminal width and
    # sys.stdout/sys.stderr when it formats and prints, not when it is built
    return build_parser()


def run(argv=None, out=None):
    """Run one command; returns its exit code. Records go to out (default
    sys.stdout), error messages to sys.stderr.

    Every call parses with the same parser, which build_parser makes on the
    first call in the process.
    """
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
