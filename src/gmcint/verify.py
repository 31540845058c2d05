"""Cross-verification harness.

Runs the deterministic exact-identity suites, the Monte-Carlo-vs-exact
observable prediction checks (each t one weight row on the same simulated
fields), and an independent quadrature identity, and serializes the
outcomes as JSON or CSV.  Every report is reproducible bit-for-bit from
(check_id, grid seed, mc seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
# imported with the package, not on the first draw, so that the identity
# suite's first run does not also pay the ~20 ms load of numpy.random
from numpy.random import default_rng

from .errors import DomainError, GmcError
from .exactlaw import (
    GmcParams,
    ObservableKind,
    ShiftKind,
    bounds_check,
    c_of_ps,
    exact_moment,
    hyp_triple,
    law_and_exact_log_moments,
    log_exact_moments,
    predict_observable,
    selberg_product,
    shift_ratio,
    shifted_params,
)
from .montecarlo import McConfig, mc_moments
from .quadrature import LADDER, integrate_panels
from .specfun import checked_exp, connection_coeffs, gamma_ratio, log_gamma_ratio

SELBERG_TOL = 1e-9
FUBINI_TOL = 1e-10
SHIFT_TOL = 1e-8
C_RATIO_TOL = 1e-8
C2_TOL = 1e-8
LAW_TOL_ABS = 1e-8
QUADRATURE_TOL = 1e-8
MC_REL_MARGIN = 0.02
GRID_MARGIN = 0.05  # sampled identity points keep this distance from the bounds

_SELBERG_GAMMAS = (0.8, 1.0, 1.3, math.sqrt(2.0), 1.7)
_SELBERG_AB = (0.0, 0.3, 0.7)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    status: str  # pass | fail | skipped
    lhs: float
    rhs: float
    rel_err: float
    tolerance: float
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IdentityGridSpec:
    """Deterministic parameter enumeration for the identity suite."""

    seed: int = 20240601
    n_random: int = 20

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"grid seed must be nonnegative, got {self.seed!r}")


def _report(check_id, lhs, rhs, tol, metadata, absolute=False) -> CheckReport:
    scale = 1.0 if absolute else max(abs(rhs), 1e-300)
    rel = abs(lhs - rhs) / scale
    return CheckReport(check_id, "pass" if rel <= tol else "fail", float(lhs), float(rhs),
                       float(rel), tol, metadata)


def _failed(check_id: str, tol: float, metadata: dict, exc: GmcError) -> CheckReport:
    """The fail report of a check whose evaluation raised exc."""
    return CheckReport(check_id, "fail", math.nan, math.nan, math.nan, tol,
                       {**metadata, "error": f"{type(exc).__name__}: {exc}"})


def _guarded(reports: list[CheckReport], check_id: str, tol: float, metadata: dict, fn,
             *args, absolute: bool = False) -> None:
    """Run one identity check, (lhs, rhs) = fn(*args), and append its report.

    A raised domain problem becomes a fail report.
    """
    try:
        lhs, rhs = fn(*args)
    except GmcError as exc:
        reports.append(_failed(check_id, tol, metadata, exc))
    else:
        reports.append(_report(check_id, lhs, rhs, tol, metadata, absolute))


def sample_valid_params(rng: np.random.Generator) -> GmcParams:
    """Rejection-sample a parameter point GRID_MARGIN inside the valid region."""
    while True:
        g = rng.uniform(0.5, 1.8)
        p = rng.uniform(-2.0, 1.0)
        a = rng.uniform(-0.5, 1.0)
        b = rng.uniform(-0.5, 1.0)
        candidate = GmcParams(g, p, a, b)
        padded = GmcParams(g, p + GRID_MARGIN, a - GRID_MARGIN, b - GRID_MARGIN)
        if bounds_check(candidate) and bounds_check(padded):
            return candidate


def _meta(params: GmcParams, **extra) -> dict:
    out = {"gamma": fmt(params.gamma), "p": fmt(params.p),
           "a": fmt(params.a), "b": fmt(params.b)}
    out.update({k: str(v) for k, v in extra.items()})
    return out


def _batched(reports: list[CheckReport], tol: float, checks, evaluate, check) -> None:
    """Run checks that share one batch of evaluations, and append their reports.

    values = evaluate() gives one value per check, and a check (check_id,
    metadata, *args) reports check(*args, value) as `_guarded` does.  A
    batch that raises a domain problem fails each of its checks with it.
    """
    try:
        values = evaluate()
    except GmcError as exc:
        reports += [_failed(check_id, tol, metadata, exc) for check_id, metadata, *_ in checks]
        return
    for (check_id, metadata, *args), value in zip(checks, values):
        _guarded(reports, check_id, tol, metadata, check, *args, value)


def run_identity_suite(grid: IdentityGridSpec | None = None) -> list[CheckReport]:
    """All deterministic exact-identity checks; no RNG beyond the fixed seed.

    A check that raises (possible off the default grid when a sampled point
    grazes a Gamma pole) is reported as a failure, never as an exception.
    The double gamma factors that a check family needs at one gamma are one
    batch: each Selberg gamma's grid, per sampled point its three shift
    checks, its c-ratio check and its law-decomposition check, and each c2
    check's two moments.  A batch that raises fails the checks it serves.
    """
    grid = grid or IdentityGridSpec()
    rng = default_rng(grid.seed)
    reports: list[CheckReport] = []

    # integer moments against the finite product, one batch of exact moments per gamma
    for g in _SELBERG_GAMMAS:
        points = [GmcParams(g, float(p), a, b) for p in range(0, 4)
                  for a in _SELBERG_AB for b in _SELBERG_AB]
        points = [params for params in points if bounds_check(params)]
        checks = [(f"selberg/g={g:.6g}/p={int(pt.p)}/a={pt.a:g}/b={pt.b:g}", _meta(pt), pt)
                  for pt in points]
        _batched(reports, SELBERG_TOL, checks, lambda: log_exact_moments(points).tolist(),
                 _selberg_check)

    # first moment reduces to an Euler Beta value
    for i in range(grid.n_random):
        params = replace(sample_valid_params(rng), p=1.0)
        _guarded(reports, f"fubini/{i:03d}", FUBINI_TOL, _meta(params), _fubini_check, params)

    # shift-equation closure at fractional p, all three kinds: the point and its
    # three shifted points are one batch of exact moments
    for i in range(grid.n_random):
        params = sample_valid_params(rng)
        checks = [(f"shift/{kind.value}/{i:03d}", _meta(params, kind=kind.value), params, kind)
                  for kind in ShiftKind]
        points = [params] + [shifted_params(params, kind) for kind in ShiftKind]
        _batched(reports, SHIFT_TOL, checks, lambda: _shift_pairs(points), _shift_check)

    # recursion of the normalization constant in the moment order
    for i in range(grid.n_random):
        params = sample_valid_params(rng)
        _guarded(reports, f"c-ratio/{i:03d}", C_RATIO_TOL, _meta(params), _c_ratio_check, params)

    # the two routes to the subleading expansion constant, b = 0
    for i in range(10):
        g = 0.5 + 0.08 * i
        a = 0.5 * (1.0 - g * g / 4.0)
        p = -0.4 - 0.05 * i
        _guarded(reports, f"c2-identity/{i:03d}", C2_TOL, _meta(GmcParams(g, p, a, 0.0)),
                 _c2_check, g, p, a)

    # product-of-laws decomposition agrees with the exact moment in log
    for i in range(grid.n_random):
        params = sample_valid_params(rng)
        _guarded(reports, f"law-decomp/{i:03d}", LAW_TOL_ABS, _meta(params),
                 law_and_exact_log_moments, params, absolute=True)

    reports.sort(key=lambda r: r.check_id)
    return reports


def _selberg_check(params: GmcParams, ln_m: float):
    return (checked_exp(ln_m, "moment"),
            selberg_product(params.gamma, params.p, params.a, params.b))


def _fubini_check(params: GmcParams):
    return (exact_moment(params),
            gamma_ratio((params.a + 1.0, params.b + 1.0), (params.a + params.b + 2.0,)))


def _shift_pairs(points: list[GmcParams]) -> list[tuple[float, float]]:
    """(ln M at each shifted point, ln M at the point), points = [point, *shifted points]."""
    ln_base, *ln_shifted = log_exact_moments(points).tolist()
    return [(ln_s, ln_base) for ln_s in ln_shifted]


def _shift_check(params: GmcParams, kind: ShiftKind, ln_pair: tuple[float, float]):
    ln_shifted, ln_base = ln_pair
    ln_ratio = ln_shifted - ln_base
    if kind is ShiftKind.P_MINUS_ONE_TO_P:
        ln_ratio = -ln_ratio  # the ratio is M(p) / M(p-1)
    return checked_exp(ln_ratio, "moment ratio"), shift_ratio(params, kind)


def _c_ratio_check(params: GmcParams):
    g, p = params.gamma, params.p
    u = g * g / 4.0
    c_p, c_below = c_of_ps(g, [p, p - 1.0])
    lhs = c_p / c_below
    rhs = (math.sqrt(2.0 * math.pi) * (g / 2.0) ** ((p - 1.0) * u - 0.5)
           * gamma_ratio((1.0 - p * u,), (1.0 - u,)))
    return lhs, rhs


def _c2_check(g: float, p: float, a: float):
    """The subleading constant c2 at b = 0 by two routes, from one batch of two moments.

    Fusion: p Gamma(a+1) Gamma(-a-g^2/4-1) / Gamma(-g^2/4) * M(p-1, a-g^2/4, 0).
    Connection: the c2 that `predict_observable` forms, the connection of
    (M(p, a, 0), 0).
    """
    u = g * g / 4.0
    params = GmcParams(g, p, a, 0.0)
    logv, sign = log_gamma_ratio((a + 1.0, -a - u - 1.0), (-u,))
    ln_below, ln_m = log_exact_moments([GmcParams(g, p - 1.0, a - u, 0.0), params]).tolist()
    logv += math.log(abs(p)) + ln_below
    fusion = sign * math.copysign(1.0, p) * checked_exp(logv, "c2 by fusion")
    triple = hyp_triple(params, ObservableKind.POWER_GAMMA_SQ_OVER_4)
    return fusion, connection_coeffs(triple, checked_exp(ln_m, "moment"))[1]


def verify_observable_prediction(params: GmcParams, checks, cfg: McConfig,
                                 threads: int = 1) -> list[CheckReport]:
    """Simulated moments of the moving-weight mass against the prediction, per (kind, t).

    Exercises the whole chain: exact moment, connection matrix,
    hypergeometric series, and the simulated field; every check is one
    weight row on the same simulated fields.  The failing checks are rerun
    together once with four times the replicates before they are reported,
    guarding against three-sigma flukes at suite scale; that rerun's plan is
    checked before the first simulation.
    """
    predicted = [predict_observable(params, kind, t) for kind, t in checks]
    tchis = [(t, kind.chi(params.gamma)) for kind, t in checks]

    def allowance(est, pred):
        return 3.0 * est.stderr + MC_REL_MARGIN * abs(pred)

    rerun_cfg = replace(cfg, replicates=4 * cfg.replicates)
    ests = mc_moments(params, tchis, cfg, threads)
    failing = [i for i, (est, pred) in enumerate(zip(ests, predicted))
               if abs(est.mean - pred) > allowance(est, pred)]
    if failing:
        reruns = mc_moments(params, [tchis[i] for i in failing], rerun_cfg, threads)
        for i, est in zip(failing, reruns):
            ests[i] = est
    reports = []
    for i, ((kind, t), pred, est) in enumerate(zip(checks, predicted, ests)):
        allow = allowance(est, pred)
        meta = _meta(params, kind=kind.value, t=fmt(t), stderr=fmt(est.stderr), seed=cfg.seed,
                     n_modes=cfg.n_modes, replicates=est.replicates,
                     retried=str(i in failing).lower(), allowance=fmt(allow))
        reports.append(_report(f"observable/{kind.value}/t={t:.6g}", est.mean, pred,
                               allow / max(abs(pred), 1e-300), meta))
    return reports


def _binom_series(p: float, max_terms: int = 200):
    """Generalized binomial coefficients of (1+u)^p, one at a time."""
    coeff = 1.0
    for k in range(1, max_terms + 1):
        coeff *= (p - k + 1.0) / k
        yield k, coeff


def quadrature_identity_check(a: float, p: float) -> CheckReport:
    """Independent integral identity stress test.

    Numerically evaluates the moment integral of (u+1)^p - 1 against
    u^(a-1) du and compares with Gamma(a) Gamma(-a-p) / Gamma(-p).  The
    power-law tail is summed in closed form from the binomial expansion;
    for a > 0 that tail is the finite-part continuation, matching the
    closed form's own analytic continuation.
    """
    meta = {"a": fmt(a), "p": fmt(p)}
    admissible = p < 0.0 and -1.0 < a < 1.0 and abs(a) > 1e-9 and a + p < 0.0
    if not admissible:
        return CheckReport(f"quadrature/a={a:g}/p={p:g}", "skipped",
                           math.nan, math.nan, math.nan, QUADRATURE_TOL, meta)
    # the ladder panels up to its first edge at or above 32
    n_panels = int(np.searchsorted(LADDER, 32.0))
    lo, hi = LADDER[0], LADDER[n_panels]
    # series head on [0, lo]: sum_k binom(p, k) lo^(a+k) / (a+k)
    head = 0.0
    for k, coeff in _binom_series(p):
        term = coeff * lo ** (a + k) / (a + k)
        head += term
        if abs(term) <= 1e-18 * max(abs(head), 1e-30):
            break

    def integrand(u):
        return np.expm1(p * np.log1p(u)) * u ** (a - 1.0)

    body = integrate_panels(integrand, 0, n_panels)[0]
    # algebraic tail: finite part of -int_T u^{a-1} plus the binomial tail
    tail = hi**a / a
    tail += hi ** (p + a) / (0.0 - p - a)  # k = 0 term
    for k, coeff in _binom_series(p, max_terms=400):
        term = coeff * hi ** (p + a - k) / (k - p - a)
        tail += term
        if abs(term) <= 1e-18 * max(abs(tail), 1e-30):
            break
    numeric = head + body + tail
    closed = gamma_ratio((a, -a - p), (-p,))
    return _report(f"quadrature/a={a:g}/p={p:g}", numeric, closed, QUADRATURE_TOL, meta)


# ---------------------------------------------------------------------------
# serialization

def fmt(value):
    """A float as a 17-significant-digit string, which round-trips; others unchanged."""
    return format(value, ".17g") if isinstance(value, float) else value


def reports_to_json(reports: list[CheckReport]) -> str:
    rows = []
    for r in reports:
        rows.append({
            "check_id": r.check_id,
            "status": r.status,
            "lhs": fmt(r.lhs),
            "rhs": fmt(r.rhs),
            "rel_err": fmt(r.rel_err),
            "tolerance": fmt(r.tolerance),
            "metadata": {k: str(v) for k, v in r.metadata.items()},
        })
    return json.dumps(rows, indent=2) + "\n"


def reports_to_csv(reports: list[CheckReport]) -> str:
    lines = ["check_id,status,rel_err,tolerance"]
    for r in reports:
        lines.append(f"{r.check_id},{r.status},{fmt(r.rel_err)},{fmt(r.tolerance)}")
    return "\n".join(lines) + "\n"


def failure_count(reports: list[CheckReport]) -> int:
    return sum(1 for r in reports if r.status == "fail")
