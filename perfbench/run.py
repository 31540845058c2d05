"""gmcint benchmark: closed-form and Monte Carlo workloads, with a layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

A run starts workers (``worker.py``) one after another until ``--seconds``
have elapsed.  Each worker is a fresh interpreter: it imports gmcint from
``src/``, builds the workload's inputs from the seed, and reports how long
that set-up took.  It then runs passes, each in a child forked from the
set-up state, so every pass starts with the module caches still empty, as
a CLI process does.  A pass times every request and then checks every
output against its correctness gate.  All passes of a run get the same
inputs, so each request is timed many times and its exact counts repeat.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes.  A traced pass wraps
the public functions of the gmcint layers (``tracer.py``).  The run reports
the per-layer metrics of BENCHMARK.json, and the tracing overhead as
traced wall / untraced wall.  It writes the spans of its last traced pass
to ``.perfbench_out/<workload>.spans.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give every
metric by name and unit, including those printed only (``EXTRA_UNITS``).
Exit code 2 means the checkout has no gmcint sources; 1 means a worker
crashed or ran out of time.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("closed-form", "identities", "mc-moment", "observable-sweep")
RUN_BUDGET_S = 170.0  # a run must end within 180 s
WORKER_SPAN_S = 3.0  # seconds of passes per worker: a 30 s run sets up about nine times


# metrics printed but not in BENCHMARK.json, with their units
EXTRA_UNITS = {
    "request_ms_p95": "ms", "fail_ratio": "ratio", "max_rel_err": "ratio",
    "specfun.hyp2f1_busy_s": "s", "verify.busy_s": "s", "verify.self_s": "s",
    "field.busy_s": "s", "field.us_per_row": "us", "field.draw_us_per_replicate": "us",
    "montecarlo.busy_s": "s",
}


class PassError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, trace: bool, until: float, budget: float):
    """Start one worker; return its set-up time and its passes."""
    spans = OUT_DIR / f"{workload}.spans.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
           "1" if trace else "0", str(spans), repr(until)]
    spawned = time.monotonic()
    # own process group, so a timeout also ends the pass the worker forked
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, budget - spawned))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} worker exceeded the run budget") from exc
    if proc.returncode != 0:
        raise PassError(f"{workload} worker exited {proc.returncode}:\n{err[-4000:]}")
    res = json.loads(out.splitlines()[-1])
    return res["ready"] - spawned, res["passes"]


def end_to_end(setups: list[float], passes: list[dict]) -> dict:
    """End-to-end metrics of the untraced passes.

    Every pass of a run repeats the same requests, so request i has one
    latency per pass.  Its time is the least of them: the host is shared,
    and any extra time is interference that the code did not cause.
    """
    latencies = [min(per_pass) for per_pass in zip(*(p["latencies_ms"] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "values_per_s": 1e3 * passes[0]["values"] / sum(latencies),
        "request_ms_p50": statistics.median(latencies),
        # the largest over passes: a pass's peak depends on when freed
        # chunk arrays go back to the allocator
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "request_ms_p95": (statistics.quantiles(latencies, n=20, method="inclusive")[18]
                           if len(latencies) > 1 else latencies[0]),
    }


def per_layer(p: dict, untraced: list[dict], workload: str) -> dict:
    """Per-layer metrics of one traced pass."""
    L = p["layers"]
    wall = p["wall_s"]
    mc = "mc0_s" in p  # a Monte Carlo pass
    S = p.get("scaling_layers")
    dg_calls, fresh = L["specfun.dgamma_calls"], L["specfun.dgamma_fresh"]
    out = {k: L[k] for k in (
        "quadrature.calls", "quadrature.integrand_evals", "quadrature.busy_s",
        "specfun.dgamma_calls", "specfun.dgamma_fresh", "specfun.hyp2f1_calls",
        "exactlaw.calls", "exactlaw.busy_s", "exactlaw.self_s",
        "field.batch_calls", "field.rows", "field.bytes_computed")}
    out.update({
        "specfun.dgamma_hit_ratio": 1.0 - fresh / dg_calls if dg_calls else 0.0,
        "specfun.dgamma_ms_per_fresh": 1e3 * L["specfun.dgamma_fresh_s"] / fresh if fresh else 0.0,
        "specfun.hyp2f1_busy_share": L["specfun.hyp2f1_busy_s"] / wall,
        "exactlaw.max_rel_err": p["max_rel_err"],
        "verify.checks": p["values"] if workload == "identities" else 0,
        "verify.failed": len(p["failures"]) if workload == "identities" else 0,
        "verify.self_share": L["verify.self_s"] / wall,
        "field.rows_per_value": L["field.rows"] / p["values"] if mc else 0.0,
        "field.rows_per_s": L["field.rows"] / L["field.busy_s"] if L["field.rows"] else 0.0,
        "field.draws_per_s": L["field.draws"] / L["field.draw_s"] if L["field.draws"] else 0.0,
        # from the traced pass's re-run of its first weight on more threads
        "montecarlo.parallel_efficiency": (
            (S["field.busy_s"] + S["field.draw_s"]) / (p["scaling_threads"] * S["montecarlo.busy_s"])
            if mc else 0.0),
        "montecarlo.thread_speedup": (
            statistics.median(u["mc0_s"] for u in untraced) / p["mc0_scaled_s"] if mc else 0.0),
        "montecarlo.degraded_ci": p["degraded_ci"],
        "trace.overhead_ratio": wall / statistics.median(u["wall_s"] for u in untraced),
        # printed only: times of layers that some workloads never reach, which
        # would read 0 on every run there; BENCHMARK.json has shares or rates
        "specfun.hyp2f1_busy_s": L["specfun.hyp2f1_busy_s"],
        "verify.busy_s": L["verify.busy_s"],
        "verify.self_s": L["verify.self_s"],
        "field.busy_s": L["field.busy_s"],
        "field.us_per_row": 1e6 * L["field.busy_s"] / L["field.rows"] if L["field.rows"] else 0.0,
        "field.draw_us_per_replicate": (
            1e6 * L["field.draw_s"] / L["field.draws"] if L["field.draws"] else 0.0),
        "montecarlo.busy_s": L["montecarlo.busy_s"],
    })
    return out


EXACT_COUNTS = ("quadrature.calls", "quadrature.integrand_evals", "specfun.dgamma_calls",
                "specfun.dgamma_fresh", "specfun.hyp2f1_calls", "exactlaw.calls",
                "field.batch_calls", "field.rows")


def traced_metrics(traced: list[dict], untraced: list[dict], workload: str) -> dict:
    rows = [per_layer(p, untraced, workload) for p in traced]
    for name in sorted({m for p in traced for m in p["trace_missing"]}):
        print(f"warning: {name} not found, so its layer reads 0", file=sys.stderr)
    for key in EXACT_COUNTS:
        if len({r[key] for r in rows}) != 1:
            print(f"warning: {key} differs between traced passes: {[r[key] for r in rows]}",
                  file=sys.stderr)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gmcint" / "__init__.py").is_file():
        print(f"error: no gmcint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline, budget = start + args.seconds, start + RUN_BUDGET_S
    setups, passes = [], []
    try:
        while True:
            until = min(deadline, time.monotonic() + WORKER_SPAN_S)
            setup, worker_passes = run_worker(args.workload, args.seed, args.trace, until, budget)
            setups.append(setup)
            passes += worker_passes
            if time.monotonic() >= deadline:
                break
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in sorted(set(failures)):
        print(f"FAILED {args.workload}: {f}", file=sys.stderr)
    e2e = end_to_end(setups, untraced)
    extras = {"fail_ratio": len(failures) / attempted,
              "max_rel_err": max(p["max_rel_err"] for p in passes)}
    if args.trace:
        measured, listed = traced_metrics(traced, untraced, args.workload), spec["per_layer"]
    else:
        measured, listed = e2e, spec["end_to_end"]
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in listed}}
    for name, value in {**measured, **extras}.items():
        tag = "" if name in units and name not in EXTRA_UNITS else "  (printed only)"
        print(f"{args.workload:17s} {name:34s} {value:<12.6g} {units[name]}{tag}")
    print(f"{args.workload:17s} seed {args.seed}: {len(setups)} workers, {len(untraced)} "
          f"untraced passes of {len(untraced[0]['latencies_ms'])} requests")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
