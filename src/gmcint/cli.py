"""Command-line front end.

Computes the closed-form quantities, runs simulations and the verification
suites, and emits deterministic JSON or CSV tables.  Numbers are printed
as 17-significant-digit decimal strings so output round-trips exactly and
identical runs (including across worker counts) are byte-identical.

Exit codes: 0 success, 1 domain or bounds error or an unwritable --output,
2 verification failures, 64 malformed usage.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import verify as verify_mod
from .errors import DomainError, GmcError
from .exactlaw import (
    EXACT_DG_FACTORS,
    GmcParams,
    ObservableKind,
    ShiftKind,
    derivative_martingale_moment,
    exact_moment,
    exact_moment_factors,
    law_and_exact_log_moments,
    log_exact_moment,
    log_reflection_boundary_1d,
    log_reflection_bulk_2d,
    predict_observable,
    selberg_product,
    shift_ratio,
    tail_exponent,
)
from .montecarlo import config_for, mc_moment, mc_small_deviation, mc_tail_fit
from .specfun import barnes_g, double_gamma_evaluator
from .verify import IdentityGridSpec, fmt

_MAX_TABLE_ROWS = 1_000_000  # bounds the memory and time of a table: dgamma, barnes, tail's u grid
# argparse's own pattern takes only the -1 and -1.5 forms for negative numbers
# (Python 3.11), and reads -1e-6, -2e0 or -inf after a flag as a flag; here a
# "-" then a digit, "." and a digit, inf or nan starts a value
_NEGATIVE_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports a usage error as one line, with exit code 64, and
    takes any float literal after a flag as its value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _table_rows(text: str) -> int:
    """argparse type of a table length: an integer in [0, _MAX_TABLE_ROWS]."""
    value = int(text)
    if not 0 <= value <= _MAX_TABLE_ROWS:
        raise argparse.ArgumentTypeError(f"must be in [0, {_MAX_TABLE_ROWS}], got {value}")
    return value


def _write(args, text: str) -> None:
    """Write a command's output to --output, or else to stdout."""
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise GmcError(f"cannot write {args.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit(args, rows) -> int:
    """Write the table of args.command, each row led by the parameter echo.

    Each row holds its values in the order of the command's columns, which
    its parser declares with ``set_defaults(columns=...)``.  The echo is
    every parsed flag in declaration order, less --format and --output,
    --threads (the output is the same for any count) and the command's row
    flags, whose values every row already carries.  The CSV header is the
    echo keys and then the columns, at any row count.
    """
    skip = {"command", "run", "format", "output", "threads", "row_flags", "columns",
            *getattr(args, "row_flags", ())}
    parameters = {k: fmt(v) for k, v in vars(args).items() if k not in skip}
    columns = [*parameters, *args.columns]
    rows = [[*parameters.values(), *map(fmt, row)] for row in rows]
    if args.format == "json":
        text = json.dumps({"command": args.command, "parameters": parameters,
                           "results": [dict(zip(columns, row)) for row in rows]},
                          indent=2) + "\n"
    else:
        lines = [",".join(columns), *(",".join(map(str, row)) for row in rows)]
        text = "\n".join(lines) + "\n"
    _write(args, text)
    return 0


def _add_gmc_params(p, integer_p=False):
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--p", type=int if integer_p else float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)


def _add_mc_opts(p, replicates, n_modes):
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicates", type=int, default=replicates)
    p.add_argument("--n-modes", type=int, default=n_modes)
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--threads", type=int, default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="gmcint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("exact", help="exact fractional moment with factor breakdown")
    _add_gmc_params(p)
    p.set_defaults(run=_cmd_exact, columns=("value", "log_value", "log_prefactor",
                                            *(f"log_dg_{name}" for name in EXACT_DG_FACTORS)))

    p = sub.add_parser("selberg", help="integer moment as the finite Gamma product")
    _add_gmc_params(p, integer_p=True)
    p.set_defaults(run=_cmd_selberg, columns=("value",))

    p = sub.add_parser("shift", help="all three shift-equation ratios")
    _add_gmc_params(p)
    p.set_defaults(run=_cmd_shift, columns=("kind", "ratio"))

    p = sub.add_parser("reflection", help="tail reflection coefficients")
    p.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(run=_cmd_reflection, columns=("value", "log_value"))

    p = sub.add_parser("law-decomp", help="product-of-laws log moment vs exact")
    _add_gmc_params(p)
    p.set_defaults(run=_cmd_law_decomp,
                   columns=("log_moment_decomposition", "log_moment_exact", "abs_diff"))

    p = sub.add_parser("dgamma", help="double gamma table")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--x-min", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--count", type=_table_rows, default=50)
    # every row carries x: see _emit
    p.set_defaults(run=_cmd_dgamma, row_flags=("x_min", "x_max", "count"),
                   columns=("x", "log_value", "value"))

    p = sub.add_parser("barnes", help="Barnes G table")
    p.add_argument("--x-min", type=float, default=0.5)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--count", type=_table_rows, default=50)
    p.set_defaults(run=_cmd_barnes, row_flags=("x_min", "x_max", "count"),
                   columns=("x", "value"))

    p = sub.add_parser("martingale-moment", help="derivative martingale moment")
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(run=_cmd_martingale, columns=("value", "barnes_form"))

    p = sub.add_parser("mc-moment", help="Monte Carlo moment vs closed form")
    _add_gmc_params(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--chi", type=float, default=0.0)
    p.set_defaults(run=_cmd_mc_moment, columns=("mean", "stderr", "degraded_ci", "closed_form"))
    _add_mc_opts(p, replicates=10_000, n_modes=4096)

    p = sub.add_parser("tail", help="empirical tail exponent vs closed form")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--u-min", type=float, default=18.0)
    p.add_argument("--u-max", type=float, default=52.0)
    p.add_argument("--u-count", type=int, default=8)
    p.set_defaults(run=_cmd_tail, row_flags=("u_min", "u_max", "u_count"),
                   columns=("u", "log_survival", "count", "wilson_low", "wilson_high", "slope",
                            "intercept", "r_squared", "slope_closed_form", "ln_reflection_1d"))
    _add_mc_opts(p, replicates=100_000, n_modes=1024)

    p = sub.add_parser("small-dev", help="small-deviation probabilities")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, action="append", default=None,
                   help="repeatable; default grid 0.25..2")
    p.set_defaults(run=_cmd_small_dev, row_flags=("eps",),
                   columns=("eps", "log_prob", "count", "envelope_c", "envelope_exponent"))
    _add_mc_opts(p, replicates=100_000, n_modes=1024)

    p = sub.add_parser("predict-u", help="hypergeometric-basis observable prediction")
    _add_gmc_params(p)
    p.add_argument("--kind", choices=sorted(k.value for k in ObservableKind), required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.set_defaults(run=_cmd_predict_u, row_flags=("t",), columns=("t", "predicted"))

    p = sub.add_parser("verify", help="cross-verification suites")
    p.add_argument("--suite", choices=("identities", "quadrature", "observable", "all"),
                   default="identities")
    p.add_argument("--seed", type=int, default=None,
                   help="required for the observable suite")
    p.add_argument("--replicates", type=int, default=4000)
    p.add_argument("--n-modes", type=int, default=4096)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--grid-seed", type=int, default=IdentityGridSpec.seed)
    p.set_defaults(run=_cmd_verify)

    for p in sub.choices.values():  # the last flags of every subcommand
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
    return parser


def _gmc_params(args) -> GmcParams:
    return GmcParams(args.gamma, args.p, args.a, args.b)


def _mc_config(args):
    return config_for(args.replicates, args.n_modes, args.seed, batches=args.batches)


def _cmd_exact(args) -> int:
    params = _gmc_params(args)
    log_value = log_exact_moment(params)
    ln_num, ln_den, dg_args = exact_moment_factors(params)
    logs = double_gamma_evaluator(args.gamma).log_value(dg_args).tolist()
    return _emit(args, [(_exp_or_inf(log_value), log_value, ln_num - ln_den, *logs)])


def _cmd_selberg(args) -> int:
    value = selberg_product(args.gamma, args.p, args.a, args.b)
    return _emit(args, [(value,)])


def _cmd_shift(args) -> int:
    params = _gmc_params(args)
    return _emit(args, [(kind.value, shift_ratio(params, kind)) for kind in ShiftKind])


def _exp_or_inf(log_value: float):
    """e^log_value, or "inf" where that overflows: the log still carries the number."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return "inf"


def _cmd_reflection(args) -> int:
    log_form = log_reflection_boundary_1d if args.dim == 1 else log_reflection_bulk_2d
    log_value = log_form(args.gamma, args.alpha)
    return _emit(args, [(_exp_or_inf(log_value), log_value)])


def _cmd_law_decomp(args) -> int:
    lhs, rhs = law_and_exact_log_moments(_gmc_params(args))
    return _emit(args, [(lhs, rhs, abs(lhs - rhs))])


def _table_xs(args) -> np.ndarray:
    """The --count x values of a dgamma or barnes table, from --x-min to --x-max."""
    for flag in ("x_min", "x_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise DomainError(f"--{flag.replace('_', '-')} must be finite, got {value!r}")
    return np.linspace(args.x_min, args.x_max, args.count)


def _cmd_dgamma(args) -> int:
    xs = _table_xs(args)
    lvs = double_gamma_evaluator(args.gamma).log_value(xs).tolist()
    return _emit(args, [(x, lv, _exp_or_inf(lv)) for x, lv in zip(xs.tolist(), lvs)])


def _cmd_barnes(args) -> int:
    xs = _table_xs(args)
    return _emit(args, zip(xs.tolist(), barnes_g(xs).tolist()))


def _cmd_martingale(args) -> int:
    value = derivative_martingale_moment(args.p)
    g_num, g1, g2, g4 = barnes_g(np.array([4.0 - 2.0 * args.p, 1.0 - args.p, 2.0 - args.p,
                                           4.0 - args.p])).tolist()
    g_form = g_num / (g1 * g2**2 * g4)
    return _emit(args, [(value, g_form)])


def _closed_form(fn, *args):
    """fn(*args), or "n/a" when it raises GmcError: a finished estimate stands without it."""
    try:
        return fn(*args)
    except GmcError:
        return "n/a"


def _cmd_mc_moment(args) -> int:
    params = _gmc_params(args)
    est = mc_moment(params, args.t, args.chi, _mc_config(args), args.threads)
    closed = "n/a"
    if args.chi == 0.0:
        closed = _closed_form(exact_moment, params)  # the moving weight is identically 1
    else:
        for kind in ObservableKind:
            if math.isclose(args.chi, kind.chi(args.gamma), rel_tol=0.0, abs_tol=1e-12):
                closed = _closed_form(predict_observable, params, kind, args.t)
                break
    return _emit(args, [(est.mean, est.stderr, str(est.degraded_ci).lower(), closed)])


def _cmd_tail(args) -> int:
    cfg = _mc_config(args)
    if not (0.0 < args.u_min < args.u_max < math.inf and 2 <= args.u_count <= _MAX_TABLE_ROWS):
        raise DomainError(
            f"tail needs 0 < --u-min < --u-max < inf and 2 <= --u-count <= {_MAX_TABLE_ROWS}"
        )
    u_grid = np.geomspace(args.u_min, args.u_max, args.u_count)
    fit = mc_tail_fit(args.gamma, args.alpha, args.eta, u_grid, cfg, args.threads)
    slope_closed = -tail_exponent(args.gamma, args.alpha)[1]
    ln_refl = _closed_form(log_reflection_boundary_1d, args.gamma, args.alpha)
    columns = zip(fit.u_grid, fit.log_survival, fit.counts, fit.wilson_low, fit.wilson_high)
    return _emit(args, [(u, log_s, int(count), low, high, fit.slope, fit.intercept,
                         fit.r_squared, slope_closed, ln_refl)
                        for u, log_s, count, low, high in columns])


def _cmd_small_dev(args) -> int:
    eps = args.eps if args.eps else [0.25, 0.3, 0.45, 0.5, 0.75, 1.0, 1.5, 2.0]
    result = mc_small_deviation(args.gamma, np.asarray(eps), _mc_config(args), args.threads)
    envelope_c = result.envelope_c if result.envelope_c is not None else "n/a"
    return _emit(args, [(pt.eps, pt.log_prob, pt.count, envelope_c,
                         -4.0 / (args.gamma * args.gamma))
                        for pt in result.points])


def _cmd_predict_u(args) -> int:
    params, kind = _gmc_params(args), ObservableKind(args.kind)
    return _emit(args, [(t, predict_observable(params, kind, t)) for t in args.t])


def _cmd_verify(args) -> int:
    if args.suite in ("observable", "all"):  # its plan is checked before any suite runs
        if args.seed is None:
            raise GmcError("the observable suite is stochastic: --seed is required")
        batches = max(10, min(50, args.replicates // 10))
        if args.replicates % batches:
            raise DomainError(f"--replicates must be divisible by its batch count, {batches}, "
                              f"got {args.replicates}")
        cfg = config_for(args.replicates, args.n_modes, args.seed, batches=batches)
    reports = []
    if args.suite in ("identities", "all"):
        reports.extend(verify_mod.run_identity_suite(IdentityGridSpec(seed=args.grid_seed)))
    if args.suite in ("quadrature", "all"):
        for a, p in ((0.5, -1.0), (0.3, -0.5), (0.7, -2.0)):
            reports.append(verify_mod.quadrature_identity_check(a, p))
    if args.suite in ("observable", "all"):
        params = GmcParams(1.0, -0.5, 0.2, 0.1)
        checks = [(kind, t) for kind in ObservableKind for t in (-1e-6, -0.5, -2.0)]
        reports.extend(verify_mod.verify_observable_prediction(params, checks, cfg, args.threads))
    _write(args, verify_mod.reports_to_json(reports) if args.format == "json"
           else verify_mod.reports_to_csv(reports))
    failures = verify_mod.failure_count(reports)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every result is checked for finiteness, so numpy's warnings only add noise
        with np.errstate(all="ignore"):
            return args.run(args)
    except GmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
