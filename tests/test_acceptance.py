"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  The stochastic criteria use fixed seeds and are exact
reproductions of the shipped defaults.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from _oracles import gamma_fn
from gmcint.exactlaw import (
    GmcParams,
    ObservableKind,
    ShiftKind,
    bounds_check,
    c_of_p,
    derivative_martingale_moment,
    exact_moment,
    law_decomposition_log_moment,
    log_exact_moment,
    predict_observable,
    reflection_boundary_1d,
    selberg_product,
    shift_ratio,
)
from gmcint.montecarlo import config_for, mc_moment, mc_moments, mc_tail_fit
from gmcint.specfun import barnes_g, double_gamma_evaluator
from gmcint.verify import quadrature_identity_check, sample_valid_params

THREADS = 8


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_01_double_gamma_shift_equations_and_normalization():
    t0 = time.monotonic()
    worst_shift = 0.0
    worst_norm = 0.0
    for gamma in (0.5, 1.0, 1.5):
        ev = double_gamma_evaluator(gamma)
        worst_norm = max(worst_norm, abs(ev.log_value(ev.q / 2.0)))
        for x in np.linspace(0.1, 5.0, 50):
            lhs = math.exp(ev.log_value(x) - ev.log_value(x + gamma / 2.0))
            rhs = gamma_fn(gamma * x / 2.0) * (gamma / 2.0) ** (
                -gamma * x / 2.0 + 0.5
            ) / math.sqrt(2.0 * math.pi)
            worst_shift = max(worst_shift, abs(lhs - rhs) / abs(rhs))
            lhs = math.exp(ev.log_value(x) - ev.log_value(x + 2.0 / gamma))
            rhs = gamma_fn(2.0 * x / gamma) * (gamma / 2.0) ** (
                2.0 * x / gamma - 0.5
            ) / math.sqrt(2.0 * math.pi)
            worst_shift = max(worst_shift, abs(lhs - rhs) / abs(rhs))
    elapsed = time.monotonic() - t0
    ok = worst_shift <= 1e-9 and worst_norm <= 1e-11 and elapsed < 5.0
    report("01 double-gamma-shifts", ok,
           f"shift err {worst_shift:.2e} <= 1e-9, norm err {worst_norm:.2e} <= 1e-11, "
           f"{elapsed:.2f}s < 5s")


def test_02_exact_moment_vs_selberg_product():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for g in (0.8, 1.0, 1.3, math.sqrt(2.0), 1.7):
        for p in range(0, 4):
            for a in (0.0, 0.3, 0.7):
                for b in (0.0, 0.3, 0.7):
                    params = GmcParams(g, float(p), a, b)
                    if not bounds_check(params):
                        continue
                    count += 1
                    lhs = exact_moment(params)
                    rhs = selberg_product(g, p, a, b)
                    worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and count >= 40 and elapsed < 5.0
    report("02 exact-vs-selberg", ok,
           f"{count} points, worst rel err {worst:.2e} <= 1e-9, {elapsed:.2f}s < 5s")


def test_03_first_moment_is_euler_beta():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(20):
        base = sample_valid_params(rng)
        params = GmcParams(base.gamma, 1.0, base.a, base.b)
        lhs = exact_moment(params)
        rhs = math.exp(math.lgamma(params.a + 1.0) + math.lgamma(params.b + 1.0)
                       - math.lgamma(params.a + params.b + 2.0))
        worst = max(worst, abs(lhs - rhs) / rhs)
    report("03 fubini-case", worst <= 1e-10, f"worst rel err {worst:.2e} <= 1e-10")


def test_04_shift_equation_closure_and_c_recursion():
    rng = np.random.default_rng(271828)
    worst_shift = 0.0
    for _ in range(20):
        params = sample_valid_params(rng)
        for kind in ShiftKind:
            if kind is ShiftKind.A_PLUS_GAMMA_SQ_OVER_4:
                shifted = GmcParams(params.gamma, params.p,
                                    params.a + params.gamma**2 / 4.0, params.b)
                lhs = math.exp(log_exact_moment(shifted) - log_exact_moment(params))
            elif kind is ShiftKind.A_PLUS_ONE:
                shifted = GmcParams(params.gamma, params.p, params.a + 1.0, params.b)
                lhs = math.exp(log_exact_moment(shifted) - log_exact_moment(params))
            else:
                shifted = GmcParams(params.gamma, params.p - 1.0, params.a, params.b)
                lhs = math.exp(log_exact_moment(params) - log_exact_moment(shifted))
            rhs = shift_ratio(params, kind)
            worst_shift = max(worst_shift, abs(lhs - rhs) / abs(rhs))
    worst_c = 0.0
    for _ in range(20):
        params = sample_valid_params(rng)
        g, p = params.gamma, params.p
        u = g * g / 4.0
        lhs = c_of_p(g, p) / c_of_p(g, p - 1.0)
        rhs = (math.sqrt(2.0 * math.pi) * (g / 2.0) ** ((p - 1.0) * u - 0.5)
               * gamma_fn(1.0 - p * u) / gamma_fn(1.0 - u))
        worst_c = max(worst_c, abs(lhs - rhs) / abs(rhs))
    ok = worst_shift <= 1e-8 and worst_c <= 1e-8
    report("04 shift-closure+c-recursion", ok,
           f"shift err {worst_shift:.2e}, c-ratio err {worst_c:.2e}, both <= 1e-8")


def test_05_subleading_constant_two_routes():
    from gmcint.verify import _c2_check

    worst = 0.0
    for i in range(10):
        g = 0.5 + 0.08 * i
        a = 0.5 * (1.0 - g * g / 4.0)
        p = -0.4 - 0.05 * i
        fusion, connection = _c2_check(g, p, a)
        worst = max(worst, abs(fusion - connection) / abs(connection))
    report("05 c2-identity", worst <= 1e-8, f"worst rel err {worst:.2e} <= 1e-8")


def test_06_product_of_laws_decomposition():
    rng = np.random.default_rng(161803)
    worst = 0.0
    for _ in range(20):
        params = sample_valid_params(rng)
        diff = abs(law_decomposition_log_moment(params) - log_exact_moment(params))
        worst = max(worst, diff)
    report("06 law-decomposition", worst <= 1e-8, f"worst abs diff {worst:.2e} <= 1e-8")


def test_07_derivative_martingale_two_forms():
    worst = 0.0
    for p in (-1.5, -1.0, -0.5, 0.0, 0.5):
        lhs = derivative_martingale_moment(p)
        rhs = barnes_g(4.0 - 2.0 * p) / (
            barnes_g(1.0 - p) * barnes_g(2.0 - p) ** 2 * barnes_g(4.0 - p)
        )
        worst = max(worst, abs(lhs - rhs) / rhs)
    report("07 martingale-moment", worst <= 1e-9, f"worst rel err {worst:.2e} <= 1e-9")


def test_08_mc_moment_vs_exact():
    t0 = time.monotonic()
    params = GmcParams(1.0, -1.0, 0.0, 0.0)
    cfg = config_for(10_000, 4096, 12345)
    est = mc_moment(params, 0.0, 0.0, cfg, threads=THREADS)
    target = exact_moment(params)
    gap1 = abs(est.mean - target)
    allow1 = 3.0 * est.stderr + 0.02 * target
    params2 = GmcParams(1.0, 2.0, 0.3, 0.3)
    cfg2 = config_for(10_000, 4096, 777, a=0.3, b=0.3)
    est2 = mc_moment(params2, 0.0, 0.0, cfg2, threads=THREADS)
    target2 = selberg_product(1.0, 2, 0.3, 0.3)
    gap2 = abs(est2.mean - target2)
    allow2 = 3.0 * est2.stderr + 0.02 * target2
    elapsed = time.monotonic() - t0
    ok = gap1 <= allow1 and gap2 <= allow2 and elapsed < 120.0
    report("08 mc-vs-exact", ok,
           f"p=-1: |{est.mean:.4f}-{target:.4f}|={gap1:.4f} <= {allow1:.4f}; "
           f"p=2: |{est2.mean:.4f}-{target2:.4f}|={gap2:.4f} <= {allow2:.4f}; "
           f"{elapsed:.0f}s < 120s")


def test_09_observable_prediction_vs_mc():
    t0 = time.monotonic()
    params = GmcParams(1.0, -0.5, 0.2, 0.1)
    cfg = config_for(10_000, 4096, 4242, a=0.2, b=0.1)
    observables = [(kind, t) for kind in ObservableKind for t in (-0.1, -0.5, -2.0)]
    # one simulation of the fields, reduced against all six weights
    ests = mc_moments(params, [(t, kind.chi(params.gamma)) for kind, t in observables], cfg,
                      threads=THREADS)
    details = []
    ok = True
    for (kind, t), est in zip(observables, ests):
        predicted = predict_observable(params, kind, t)
        gap = abs(est.mean - predicted)
        allow = 3.0 * est.stderr + 0.02 * abs(predicted)
        ok = ok and gap <= allow
        details.append(f"{kind.value}@{t}: {gap:.4f}<={allow:.4f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report("09 observable-prediction", ok, "; ".join(details) + f"; {elapsed:.0f}s < 300s")


def test_10_tail_exponent_and_intercept():
    t0 = time.monotonic()
    cfg = config_for(100_000, 1024, 999)
    fit = mc_tail_fit(1.0, 1.2, 1.0, np.geomspace(18.0, 52.0, 8), cfg, threads=THREADS)
    slope_target = -2.6
    slope_ok = abs(fit.slope - slope_target) <= 0.1 * abs(slope_target)
    ln_refl = math.log(reflection_boundary_1d(1.0, 1.2))
    intercept_ok = abs(fit.intercept - ln_refl) <= 0.3
    elapsed = time.monotonic() - t0
    ok = slope_ok and intercept_ok and elapsed < 300.0
    report("10 tail-exponent", ok,
           f"slope {fit.slope:.3f} vs {slope_target} (10%), "
           f"intercept {fit.intercept:.3f} vs {ln_refl:.3f} (0.3), {elapsed:.0f}s < 300s")


def test_11_quadrature_identity():
    worst = 0.0
    for a, p in ((0.5, -1.0), (0.3, -0.5), (0.7, -2.0)):
        rep = quadrature_identity_check(a, p)
        assert rep.status == "pass"
        worst = max(worst, rep.rel_err)
    report("11 quadrature-identity", worst <= 1e-8, f"worst rel err {worst:.2e} <= 1e-8")


def test_12_byte_identical_outputs():
    cmd = [sys.executable, "-m", "gmcint.cli", "verify", "--suite", "identities",
           "--format", "json"]
    out1 = subprocess.run(cmd + ["--threads", "1"], capture_output=True, text=True)
    out2 = subprocess.run(cmd + ["--threads", "8"], capture_output=True, text=True)
    out3 = subprocess.run(cmd + ["--threads", "1"], capture_output=True, text=True)
    verify_ok = (out1.returncode == 0 and out1.stdout == out2.stdout == out3.stdout
                 and out1.stdout)
    mc_cmd = [sys.executable, "-m", "gmcint.cli", "mc-moment", "--gamma", "1",
              "--p", "-1", "--a", "0", "--b", "0", "--seed", "42",
              "--replicates", "2000", "--n-modes", "512", "--batches", "10"]
    runs = [subprocess.run(mc_cmd + ["--threads", th], capture_output=True, text=True)
            for th in ("1", "8")]
    mc_ok = all(r.returncode == 0 for r in runs) and runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)  # well-formed
    ok = bool(verify_ok and mc_ok)
    report("12 determinism", ok,
           "verify JSON identical across invocations; mc-moment identical for "
           "--threads 1 vs 8")
