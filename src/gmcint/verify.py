"""Cross-verification harness.

Runs the deterministic exact-identity suites, the Monte-Carlo-vs-exact
observable prediction checks, and an independent quadrature identity, and
serializes the outcomes as JSON or CSV.  Every report is reproducible
bit-for-bit from (check_id, grid seed, mc seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, GmcError
from .exactlaw import (
    GmcParams,
    ObservableKind,
    ShiftKind,
    bounds_check,
    c_of_p,
    exact_moment,
    law_decomposition_log_moment,
    log_exact_moment,
    predict_observable,
    selberg_product,
    shift_ratio,
)
from .montecarlo import McConfig, mc_moment
from .quadrature import geometric_edges, integrate_panels
from .specfun import gammaln_signed

SELBERG_TOL = 1e-9
FUBINI_TOL = 1e-10
SHIFT_TOL = 1e-8
C_RATIO_TOL = 1e-8
C2_TOL = 1e-8
LAW_TOL_ABS = 1e-8
QUADRATURE_TOL = 1e-8
MC_REL_MARGIN = 0.02

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
    margin: float = 0.05


def _passfail(ok: bool) -> str:
    return "pass" if ok else "fail"


def _report(check_id, lhs, rhs, tol, metadata, absolute=False) -> CheckReport:
    scale = 1.0 if absolute else max(abs(rhs), 1e-300)
    rel = abs(lhs - rhs) / scale
    return CheckReport(check_id, _passfail(rel <= tol), float(lhs), float(rhs),
                       float(rel), tol, metadata)


def _guarded(reports: list[CheckReport], check_id: str, tol: float, metadata: dict, fn) -> None:
    """Run one identity check; a raised domain problem becomes a fail report."""
    try:
        reports.append(fn())
    except GmcError as exc:
        meta = dict(metadata)
        meta["error"] = f"{type(exc).__name__}: {exc}"
        reports.append(CheckReport(check_id, "fail", math.nan, math.nan, math.nan,
                                   tol, meta))


def sample_valid_params(rng: np.random.Generator, margin: float = 0.05) -> GmcParams:
    """Rejection-sample a parameter point strictly inside the valid region."""
    while True:
        g = rng.uniform(0.5, 1.8)
        p = rng.uniform(-2.0, 1.0)
        a = rng.uniform(-0.5, 1.0)
        b = rng.uniform(-0.5, 1.0)
        candidate = GmcParams(g, p, a, b)
        padded = GmcParams(g, p + margin, a - margin, b - margin)
        if bounds_check(candidate) and bounds_check(padded):
            return candidate


def _meta(params: GmcParams, **extra) -> dict:
    out = {
        "gamma": format(params.gamma, ".17g"),
        "p": format(params.p, ".17g"),
        "a": format(params.a, ".17g"),
        "b": format(params.b, ".17g"),
    }
    out.update({k: str(v) for k, v in extra.items()})
    return out


def run_identity_suite(grid: IdentityGridSpec | None = None) -> list[CheckReport]:
    """All deterministic exact-identity checks; no RNG beyond the fixed seed.

    A check that raises (possible off the default grid when a sampled point
    grazes a Gamma pole) is reported as a failure, never as an exception.
    """
    grid = grid or IdentityGridSpec()
    rng = np.random.default_rng(grid.seed)
    reports: list[CheckReport] = []

    # integer moments against the finite product
    for g in _SELBERG_GAMMAS:
        for p in range(0, 4):
            for a in _SELBERG_AB:
                for b in _SELBERG_AB:
                    params = GmcParams(g, float(p), a, b)
                    if not bounds_check(params):
                        continue
                    cid = f"selberg/g={g:.6g}/p={p}/a={a:g}/b={b:g}"
                    _guarded(reports, cid, SELBERG_TOL, _meta(params),
                             lambda params=params, p=p, cid=cid: _report(
                                 cid, exact_moment(params),
                                 selberg_product(params.gamma, p, params.a, params.b),
                                 SELBERG_TOL, _meta(params)))

    # first moment reduces to an Euler Beta value
    def fubini_check(cid, params):
        lg = (math.lgamma(params.a + 1.0) + math.lgamma(params.b + 1.0)
              - math.lgamma(params.a + params.b + 2.0))
        return _report(cid, exact_moment(params), math.exp(lg), FUBINI_TOL, _meta(params))

    for i in range(grid.n_random):
        params = replace(sample_valid_params(rng, grid.margin), p=1.0)
        cid = f"fubini/{i:03d}"
        _guarded(reports, cid, FUBINI_TOL, _meta(params),
                 lambda cid=cid, params=params: fubini_check(cid, params))

    # shift-equation closure at fractional p, all three kinds
    def shift_check(cid, params, kind):
        if kind is ShiftKind.A_PLUS_GAMMA_SQ_OVER_4:
            shifted = replace(params, a=params.a + params.gamma**2 / 4.0)
        elif kind is ShiftKind.A_PLUS_ONE:
            shifted = replace(params, a=params.a + 1.0)
        else:
            shifted = replace(params, p=params.p - 1.0)
        lhs = math.exp(log_exact_moment(shifted) - log_exact_moment(params))
        if kind is ShiftKind.P_MINUS_ONE_TO_P:
            lhs = 1.0 / lhs  # ratio is moment(p) over moment(p-1)
        return _report(cid, lhs, shift_ratio(params, kind), SHIFT_TOL,
                       _meta(params, kind=kind.value))

    for i in range(grid.n_random):
        params = sample_valid_params(rng, grid.margin)
        for kind in ShiftKind:
            cid = f"shift/{kind.value}/{i:03d}"
            _guarded(reports, cid, SHIFT_TOL, _meta(params, kind=kind.value),
                     lambda cid=cid, params=params, kind=kind: shift_check(cid, params, kind))

    # recursion of the normalization constant in the moment order
    def c_ratio_check(cid, params):
        g, p = params.gamma, params.p
        u = g * g / 4.0
        lhs = c_of_p(g, p) / c_of_p(g, p - 1.0)
        rhs = (math.sqrt(2.0 * math.pi) * (g / 2.0) ** ((p - 1.0) * u - 0.5)
               * math.exp(math.lgamma(1.0 - p * u) - math.lgamma(1.0 - u)))
        return _report(cid, lhs, rhs, C_RATIO_TOL, _meta(params))

    for i in range(grid.n_random):
        params = sample_valid_params(rng, grid.margin)
        cid = f"c-ratio/{i:03d}"
        _guarded(reports, cid, C_RATIO_TOL, _meta(params),
                 lambda cid=cid, params=params: c_ratio_check(cid, params))

    # the two routes to the subleading expansion constant, b = 0
    def c2_check(cid, g, p, a):
        lhs_sign, lhs = _c2_from_fusion(g, p, a)
        rhs_sign, rhs = _c2_from_connection(g, p, a)
        return _report(cid, lhs_sign * lhs, rhs_sign * rhs, C2_TOL,
                       _meta(GmcParams(g, p, a, 0.0)))

    for i in range(10):
        g = 0.5 + 0.08 * i
        a = 0.5 * (1.0 - g * g / 4.0)
        p = -0.4 - 0.05 * i
        cid = f"c2-identity/{i:03d}"
        _guarded(reports, cid, C2_TOL, _meta(GmcParams(g, p, a, 0.0)),
                 lambda cid=cid, g=g, p=p, a=a: c2_check(cid, g, p, a))

    # product-of-laws decomposition agrees with the exact moment in log
    for i in range(grid.n_random):
        params = sample_valid_params(rng, grid.margin)
        cid = f"law-decomp/{i:03d}"
        _guarded(reports, cid, LAW_TOL_ABS, _meta(params),
                 lambda cid=cid, params=params: _report(
                     cid, law_decomposition_log_moment(params),
                     log_exact_moment(params), LAW_TOL_ABS, _meta(params),
                     absolute=True))

    reports.sort(key=lambda r: r.check_id)
    return reports


def _c2_from_fusion(g: float, p: float, a: float):
    """p Gamma(a+1) Gamma(-a-g^2/4-1) / Gamma(-g^2/4) * M(p-1, a-g^2/4, 0)."""
    u = g * g / 4.0
    logv = math.lgamma(a + 1.0)
    sign = math.copysign(1.0, p)
    lg, s = gammaln_signed(-a - u - 1.0)
    logv += lg
    sign *= s
    lg, s = gammaln_signed(-u)
    logv -= lg
    sign *= s
    logv += math.log(abs(p)) + log_exact_moment(GmcParams(g, p - 1.0, a - u, 0.0))
    return sign, math.exp(logv)


def _c2_from_connection(g: float, p: float, a: float):
    """Gamma(C-1) Gamma(A-B+1) / (Gamma(A) Gamma(C-B)) * M(p, a, 0)."""
    u = g * g / 4.0
    big_a = -p * u
    big_b = -(a + 1.0) - (2.0 - p) * u
    big_c = -a - u
    logv = 0.0
    sign = 1.0
    for arg in (big_c - 1.0, big_a - big_b + 1.0):
        lg, s = gammaln_signed(arg)
        logv += lg
        sign *= s
    for arg in (big_a, big_c - big_b):
        lg, s = gammaln_signed(arg)
        logv -= lg
        sign *= s
    logv += log_exact_moment(GmcParams(g, p, a, 0.0))
    return sign, math.exp(logv)


def verify_observable_prediction(
    params: GmcParams,
    kind: ObservableKind,
    t_list,
    cfg: McConfig,
    threads: int | None = None,
) -> list[CheckReport]:
    """Simulated moments of the moving-weight mass against the prediction.

    Exercises the whole chain: exact moment, connection matrix,
    hypergeometric series, and the simulated field.  A failing comparison
    is rerun once with four times the replicates before it is reported,
    guarding against three-sigma flukes at suite scale.
    """
    chi = kind.chi(params.gamma)
    reports = []
    for t in t_list:
        predicted = predict_observable(params, kind, t)
        est = mc_moment(params, t, chi, cfg, threads)
        allow = 3.0 * est.stderr + MC_REL_MARGIN * abs(predicted)
        retried = False
        if abs(est.mean - predicted) > allow:
            est = mc_moment(params, t, chi, replace(cfg, replicates=4 * cfg.replicates),
                            threads)
            allow = 3.0 * est.stderr + MC_REL_MARGIN * abs(predicted)
            retried = True
        ok = abs(est.mean - predicted) <= allow
        meta = _meta(params, kind=kind.value, t=format(t, ".17g"),
                     stderr=format(est.stderr, ".17g"), seed=cfg.seed,
                     n_modes=cfg.n_modes, replicates=est.replicates,
                     retried=str(retried).lower(), allowance=format(allow, ".17g"))
        rel = abs(est.mean - predicted) / max(abs(predicted), 1e-300)
        reports.append(CheckReport(
            f"observable/{kind.value}/t={t:.6g}", _passfail(ok),
            float(est.mean), float(predicted), float(rel),
            float(allow / max(abs(predicted), 1e-300)), meta,
        ))
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
    meta = {"a": format(a, ".17g"), "p": format(p, ".17g")}
    admissible = p < 0.0 and -1.0 < a < 1.0 and abs(a) > 1e-9 and a + p < 0.0
    if not admissible:
        return CheckReport(f"quadrature/a={a:g}/p={p:g}", "skipped",
                           math.nan, math.nan, math.nan, QUADRATURE_TOL, meta)
    lo, hi = 1e-3, 32.0
    # series head on [0, lo]: sum_k binom(p, k) lo^(a+k) / (a+k)
    head = 0.0
    for k, coeff in _binom_series(p):
        term = coeff * lo ** (a + k) / (a + k)
        head += term
        if abs(term) <= 1e-18 * max(abs(head), 1e-30):
            break

    def integrand(u):
        return np.expm1(p * np.log1p(u)) * u ** (a - 1.0)

    body = integrate_panels(integrand, geometric_edges(lo, hi), rel_tol=1e-13)[0]
    # algebraic tail: finite part of -int_T u^{a-1} plus the binomial tail
    tail = hi**a / a
    for k, coeff in _binom_series(p, max_terms=400):
        if k == 1:
            tail += hi ** (p + a) / (0.0 - p - a)  # k = 0 term
        term = coeff * hi ** (p + a - k) / (k - p - a)
        tail += term
        if abs(term) <= 1e-18 * max(abs(tail), 1e-30):
            break
    numeric = head + body + tail
    logv = 0.0
    sign = 1.0
    for arg in (a, -a - p):
        lg, s = gammaln_signed(arg)
        logv += lg
        sign *= s
    lg, s = gammaln_signed(-p)
    logv -= lg
    sign *= s
    closed = sign * math.exp(logv)
    return _report(f"quadrature/a={a:g}/p={p:g}", numeric, closed, QUADRATURE_TOL, meta)


# ---------------------------------------------------------------------------
# serialization

def _fmt(x: float) -> str:
    return format(x, ".17g")


def reports_to_json(reports: list[CheckReport]) -> str:
    rows = []
    for r in reports:
        rows.append({
            "check_id": r.check_id,
            "status": r.status,
            "lhs": _fmt(r.lhs),
            "rhs": _fmt(r.rhs),
            "rel_err": _fmt(r.rel_err),
            "tolerance": _fmt(r.tolerance),
            "metadata": {k: str(v) for k, v in r.metadata.items()},
        })
    return json.dumps(rows, indent=2) + "\n"


def reports_to_csv(reports: list[CheckReport]) -> str:
    lines = ["check_id,status,rel_err,tolerance"]
    for r in reports:
        lines.append(f"{r.check_id},{r.status},{_fmt(r.rel_err)},{_fmt(r.tolerance)}")
    return "\n".join(lines) + "\n"


def failure_count(reports: list[CheckReport]) -> int:
    return sum(1 for r in reports if r.status == "fail")
