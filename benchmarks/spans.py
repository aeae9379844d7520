"""Span tracing of the package's layers from outside the package.

`Tracer.install()` replaces every name binding through which code reaches a
traced function (the module global a caller looks up, the re-export in the
package namespace, the class attribute behind an operator) with a wrapper
that records a span: name, start, end, parent span and op id. Spans stay in
memory in parallel lists; `layer_metrics` turns them into per-layer call
counts, failures and self time (a span's duration minus its children's).
`uninstall()` puts the original objects back.
"""

import functools
import sys
import time

FAMILY_NAMES = {
    "GammaDist": "gamma",
    "Poisson": "poisson",
    "NegativeBinomial": "negbinomial",
    "InverseGaussian": "invgaussian",
    "CompoundPoissonExp": "compound_poisson_exp",
    "NormalBaseline": "normal",
}


def shape_bucket(a, x):
    """reg_lower_gamma input bucket: shape a<10 small, <1e4 mid, else large;
    x <= a lower, else upper. A property of the input, not of the dispatch."""
    try:
        a, x = float(a), float(x)
    except (TypeError, ValueError):
        return "other"
    size = "small" if a < 10.0 else "mid" if a < 1e4 else "large"
    return f"{size}_{'lower' if x <= a else 'upper'}"


def _reg_lower_gamma_name(args):
    bucket = shape_bucket(*args[:2]) if len(args) >= 2 else "other"
    return f"specfun.reg_lower_gamma.{bucket}"


def _band_prob_name(args):
    family = FAMILY_NAMES.get(type(args[0]).__name__, "other") if args else "other"
    return f"iddist.band_prob.{family}"


def _cli_run_name(args):
    argv = args[0] if args else None
    return f"cli.run.{argv[0]}" if argv else "cli.run.default"


def _coeff_mults(args):
    """len * len of the two factors' coefficient lists (a scalar has one)."""
    left, right = args[0], args[1]
    return len(left.coeffs) * len(getattr(right, "coeffs", (right,)))


def _targets(pkg):
    """(owner, attribute, span name or namer, weigher) for every traced function."""
    specfun, gamma_prob, optimize = pkg.specfun, pkg.gamma_prob, pkg.optimize
    iddist, exact_poly, certificates, cli = pkg.iddist, pkg.exact_poly, pkg.certificates, pkg.cli
    poly = exact_poly.RationalPoly
    return [
        (specfun, "reg_lower_gamma", _reg_lower_gamma_name, None),
        (specfun, "lower_series", "specfun.lower_series", None),
        (specfun, "upper_continued_fraction", "specfun.upper_continued_fraction", None),
        (specfun, "ln_gamma", "specfun.ln_gamma", None),
        (specfun, "std_normal_cdf", "specfun.std_normal_cdf", None),
        (specfun, "log_std_normal_sf", "specfun.log_std_normal_sf", None),
        (gamma_prob, "h", "gamma_prob.h", None),
        (gamma_prob, "t", "gamma_prob.t", None),
        (gamma_prob, "band", "gamma_prob.band", None),
        (optimize, "min_h", "optimize.min_h", None),
        (optimize, "bracket_minimum", "optimize.bracket_minimum", None),
        (optimize, "brent_min", "optimize.brent_min", None),
        (iddist, "band_prob", _band_prob_name, None),
        (poly, "__mul__", "exact_poly.mul", _coeff_mults),
        (poly, "__pow__", "exact_poly.pow", None),
        (poly, "divmod", "exact_poly.divmod", None),
        (exact_poly, "sturm_roots_in_interval", "exact_poly.sturm", None),
        (certificates, "verify_small_alpha_certificate", "certificates.smallalpha", None),
        (certificates, "verify_chain_plus", "certificates.chain_plus", None),
        (certificates, "verify_chain_minus", "certificates.chain_minus", None),
        (certificates, "verify_case2_J", "certificates.case2", None),
        (certificates, "verify_case1_transcendental", "certificates.case1", None),
        (cli, "run", _cli_run_name, None),
    ]


class Tracer:
    """In-memory span recorder; spans are stored in parallel lists."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.op_ids = []
        self.failed = []
        self.weights = []
        self.op_id = -1
        self._stack = [-1]
        self._patches = []

    def clear(self):
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.op_ids, self.failed, self.weights):
            column.clear()

    def wrap(self, fn, name, weigher=None):
        """fn, recording one span per call under `name` (a string, or a
        function of the call's positional arguments)."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        op_ids, failed, weights, stack = self.op_ids, self.failed, self.weights, self._stack
        clock = time.perf_counter
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(namer(args) if namer else name)
            parents.append(stack[-1])
            op_ids.append(self.op_id)
            failed.append(False)
            weights.append(weigher(args) if weigher else 0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[index] = True
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, pkg):
        """Wrap every binding of each traced function in the package."""
        modules = [m for name, m in sys.modules.items()
                   if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        for owner, attr, name, weigher in _targets(pkg):
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, weigher)
            for holder in modules + [owner]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()


def self_times(starts, ends, parents):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def _under(names, parents, root_prefix):
    """Per span: whether it or an ancestor has a name starting with root_prefix."""
    inside = []
    for name, parent in zip(names, parents):
        inside.append(name.startswith(root_prefix) or (parent >= 0 and inside[parent]))
    return inside


def layer_metrics(tracer):
    """Per span name: calls, self ms, total ms (children included) and
    failed calls; plus derived ratios, as dicts."""
    names, parents = tracer.names, tracer.parents
    own = self_times(tracer.starts, tracer.ends, parents)
    calls, self_ms, total_ms, fails = {}, {}, {}, {}
    for name, start, end, seconds, failed in zip(names, tracer.starts, tracer.ends, own,
                                                  tracer.failed):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * seconds
        total_ms[name] = total_ms.get(name, 0.0) + 1e3 * (end - start)
        fails[name] = fails.get(name, 0) + failed
    in_min_h = _under(names, parents, "optimize.min_h")
    in_bracket = _under(names, parents, "optimize.bracket_minimum")
    in_compound = _under(names, parents, "iddist.band_prob.compound_poisson_exp")
    objective = [i for i, name in enumerate(names) if name == "gamma_prob.h" and in_min_h[i]]
    compound_gamma = sum(
        1 for i, name in enumerate(names)
        if name.startswith("specfun.reg_lower_gamma.") and in_compound[i]
    )
    compound_bands = calls.get("iddist.band_prob.compound_poisson_exp", 0)
    derived = {
        "optimize.objective_evals": len(objective),
        "optimize.bracket_share": (
            sum(1 for i in objective if in_bracket[i]) / len(objective) if objective else 0.0
        ),
        "iddist.compound_poisson.reg_lower_gamma_per_band": (
            compound_gamma / compound_bands if compound_bands else 0.0
        ),
        "exact_poly.coeff_mults": sum(
            w for name, w in zip(names, tracer.weights) if name == "exact_poly.mul"
        ),
        "trace.spans": len(names),
    }
    return calls, self_ms, total_ms, fails, derived
