"""Set up a benchmark workload once, then run timed passes of it.

Usage: python3 worker.py ROOT WORKLOAD SEED TRACE SPANS_PATH UNTIL

Imports gmcint from ROOT/src and builds the workload's inputs from SEED;
the moment that is done is the ``ready`` time.  Then it runs passes, each
in a child forked from the set-up state, until the monotonic clock reaches
UNTIL (at least one).  A pass times every request, then checks each output
against its correctness gate.  With TRACE=1 the passes alternate untraced
and traced; a traced pass wraps the gmcint layers (``tracer.py``) while
its requests run and writes its spans to SPANS_PATH.  Prints one JSON
object on stdout: the ready time and the result of every pass.
"""
import sys
import time

ROOT, WORKLOAD, SEED, TRACE, SPANS_PATH, UNTIL = sys.argv[1:7]
SEED, TRACE, UNTIL = int(SEED), TRACE == "1", float(UNTIL)
sys.path[:0] = [ROOT + "/src", ROOT + "/perfbench"]

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gmcint  # noqa: E402
from gmcint import exactlaw, montecarlo, specfun, verify  # noqa: E402

import tracer as tracing  # noqa: E402

# Timed Monte Carlo requests run on one thread: on a shared two-core host
# the two-thread speed-up ranged from 1.24 to 1.57 between runs, which made
# two-thread timings spread past their bound.  Thread scaling is measured in
# the traced pass instead, at SCALING_THREADS.
THREADS, SCALING_THREADS = 1, 2
TRACER = None  # the pass's tracer while its requests run with TRACE=1
SETUP_RSS_MB = 0.0  # peak RSS of the worker once set up

# closed-form: requests per pass, in rounds holding one request of each kind
CF_ROUNDS = 10
# identities: suite size per pass, and the CLI's three quadrature identity cases
ID_N_RANDOM = 20
QUAD_CASES = ((0.5, -1.0), (0.3, -0.5), (0.7, -2.0))
# Monte Carlo: |mean - reference| <= 3 stderr + verify's margin, no retry.
# A weight's replicates run as ``subs`` mc_moment calls of SUB_REPLICATES
# each, on disjoint replicate sets, and are pooled for the gate.  A call is
# the timed unit: at 0.02-0.15 s it is short enough that its least time
# over the passes of a run is seldom caught in a slow phase of the host.
MC_SIGMAS = 3.0
SUB_REPLICATES, SUB_BATCHES = 128, 16  # mc_moment works in chunks of 128 replicates
MC_MOMENT = dict(params=(1.0, -1.0, 0.0, 0.0), subs=8, n_modes=4096)
SWEEP = dict(params=(1.0, -0.5, 0.2, 0.1), subs=8, n_modes=1024,
             ts=(-1e-6, -0.5, -2.0))


def mc_seed(seed: int) -> int:
    """MC stream seed for a workload seed.

    Replicate streams are keyed by seed XOR replicate, so two seeds that
    differ only in bits below the replicate count replay one replicate set.
    Shifting the workload seed above 32 bits keeps distinct workload seeds
    on disjoint replicate sets; sub-request k adds k << 16, above every
    replicate index of a sub-request.
    """
    return (seed << 32) & 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# inputs

def closed_form_requests(seed: int):
    """(kind, call, gate) triples: ``call()`` is timed, ``gate(value)`` is not.

    A gate returns the relative error of the value against an independent
    route, with its tolerance, or None when the request has no such route.
    """
    rng = np.random.default_rng([seed, 1])
    GmcParams, ObservableKind, ShiftKind = gmcint.GmcParams, gmcint.ObservableKind, gmcint.ShiftKind

    def params():
        return GmcParams(rng.uniform(0.5, 1.5), rng.uniform(-1.5, 0.9),
                         rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8))

    def selberg_gate(pr):
        def gate(value):
            errs = [(abs(value / exactlaw.selberg_product(pr.gamma, int(pr.p), pr.a, pr.b) - 1.0),
                     verify.SELBERG_TOL)]
            if pr.p == 1.0:
                beta = math.exp(math.lgamma(pr.a + 1.0) + math.lgamma(pr.b + 1.0)
                                - math.lgamma(pr.a + pr.b + 2.0))
                errs.append((abs(value / beta - 1.0), verify.FUBINI_TOL))
            return errs
        return gate

    def law_gate(pr):
        return lambda value: [(abs(value - exactlaw.log_exact_moment(pr)), verify.LAW_TOL_ABS)]

    out = []
    for _ in range(CF_ROUNDS):
        round_ = []
        pr = params()
        round_.append(("exact_moment", lambda pr=pr: exactlaw.exact_moment(pr), None))
        # integer p in {1, 2}; gamma <= 1.3 keeps p = 2 below 4/gamma^2
        g = rng.uniform(0.5, 1.3)
        pr = GmcParams(g, float(rng.integers(1, 3)), rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8))
        round_.append(("exact_moment_int", lambda pr=pr: exactlaw.exact_moment(pr),
                       selberg_gate(pr)))
        pr, kind = params(), list(ShiftKind)[rng.integers(3)]
        round_.append(("shift_ratio", lambda pr=pr, k=kind: exactlaw.shift_ratio(pr, k), None))
        pr = params()
        round_.append(("law_decomposition", lambda pr=pr: exactlaw.law_decomposition_log_moment(pr),
                       law_gate(pr)))
        # t on both sides of predict_observable's basis switch at t = -100
        for name, lo, hi in (("observable_near", -3.0, 1.5), ("observable_far", 2.2, 3.0)):
            pr, kind = params(), list(ObservableKind)[rng.integers(2)]
            t = -(10.0 ** rng.uniform(lo, hi))
            round_.append((name, lambda pr=pr, k=kind, t=t: exactlaw.predict_observable(pr, k, t),
                           None))
        g, p = rng.uniform(0.5, 1.5), rng.uniform(-1.5, 0.9)
        round_.append(("c_of_p", lambda g=g, p=p: exactlaw.c_of_p(g, p), None))
        g = rng.uniform(0.5, 1.5)
        q = g / 2.0 + 2.0 / g
        alpha = g / 2.0 + rng.uniform(0.05, 0.95) * (q - g / 2.0)
        round_.append(("reflection_1d",
                       lambda g=g, al=alpha: exactlaw.reflection_boundary_1d(g, al), None))
        p = rng.uniform(-1.5, 0.9)
        round_.append(("martingale", lambda p=p: exactlaw.derivative_martingale_moment(p), None))
        g = rng.uniform(0.5, 1.5)
        xs = np.geomspace(0.1, 10.0 ** rng.uniform(1.0, 3.0), 8)
        round_.append(("dgamma_table",
                       lambda g=g, xs=xs: [specfun.log_double_gamma(g, float(x)) for x in xs],
                       None))
        rng.shuffle(round_)
        out.extend(round_)
    return out


def mc_requests(workload: str, seed: int):
    """Per weight, its reference call and the mc_moment arguments of each
    sub-request; and the workload's sizes."""
    spec = MC_MOMENT if workload == "mc-moment" else SWEEP
    pr = gmcint.GmcParams(*spec["params"])
    cfgs = [montecarlo.config_for(SUB_REPLICATES, spec["n_modes"], mc_seed(seed) + (k << 16),
                                  pr.a, pr.b, batches=SUB_BATCHES)
            for k in range(spec["subs"])]
    reqs = [(lambda: exactlaw.exact_moment(pr), [(pr, 0.0, 0.0, c) for c in cfgs])]
    if workload == "observable-sweep":
        for kind in gmcint.ObservableKind:
            for t in spec["ts"]:
                reqs.append((lambda k=kind, t=t: exactlaw.predict_observable(pr, k, t),
                             [(pr, t, kind.chi(pr.gamma), c) for c in cfgs]))
    return reqs, spec


# ---------------------------------------------------------------------------
# passes

def begin_request(i: int) -> None:
    if TRACER is not None:
        TRACER.request = i


def closed_form_pass(requests, result):
    values = []
    for i, (_, call, _) in enumerate(requests):
        begin_request(i)
        t0 = time.perf_counter()
        try:
            values.append(call())
        except Exception as exc:  # a raising request is a failed request
            values.append(exc)
        result["latencies_ms"].append((time.perf_counter() - t0) * 1e3)
    yield
    for (kind, _, gate), value in zip(requests, values):
        result["attempted"] += 1
        ok = not isinstance(value, Exception) and all(np.isfinite(np.atleast_1d(value)))
        if ok and gate is not None:
            for err, tol in gate(value):
                result["max_rel_err"] = max(result["max_rel_err"], err)
                ok = ok and err <= tol
        if not ok:
            result["failures"].append(f"{kind}: {value!r}")
    result["values"] = len(requests)


def identities_pass(spec, result):
    real_report = verify.CheckReport
    stamps = []

    def stamped_report(*args, **kwargs):
        stamps.append(time.perf_counter())
        return real_report(*args, **kwargs)

    verify.CheckReport = stamped_report
    try:
        start = time.perf_counter()
        reports = verify.run_identity_suite(spec)
    finally:
        verify.CheckReport = real_report
    if len(stamps) != len(reports):
        raise RuntimeError(f"{len(stamps)} report stamps for {len(reports)} identity checks")
    result["latencies_ms"] += list(np.diff([start] + stamps) * 1e3)
    for i, (a, p) in enumerate(QUAD_CASES, 1):
        begin_request(i)
        t0 = time.perf_counter()
        reports.append(verify.quadrature_identity_check(a, p))
        result["latencies_ms"].append((time.perf_counter() - t0) * 1e3)
    yield
    for rep in reports:
        result["attempted"] += 1
        if rep.status == "fail":
            result["failures"].append(f"{rep.check_id}: {rep.metadata.get('error', rep.rel_err)}")
        elif math.isfinite(rep.rel_err):
            result["max_rel_err"] = max(result["max_rel_err"], rep.rel_err)
    result["values"] = len(reports)


def monte_carlo_setup():
    requests, spec = mc_requests(WORKLOAD, SEED)
    pr = requests[0][1][0][0]
    warm = montecarlo.config_for(100, spec["n_modes"], 0, pr.a, pr.b, batches=10)
    montecarlo.mc_moment(pr, 0.0, 0.0, warm, THREADS)  # grid workspace and cell masses
    # the first weight's replicate count in one call, so that its chunks can
    # spread over SCALING_THREADS
    pr, t, chi, _ = requests[0][1][0]
    scaling = (pr, t, chi, montecarlo.config_for(SUB_REPLICATES * spec["subs"], spec["n_modes"],
                                                 mc_seed(SEED), pr.a, pr.b, batches=SUB_BATCHES))
    return requests, spec, scaling


def timed(fn, result):
    t0 = time.perf_counter()
    out = fn()
    result["latencies_ms"].append((time.perf_counter() - t0) * 1e3)
    return out


def monte_carlo_pass(state, result):
    """Reference and sub-requests are timed one by one; the gate pools a
    weight's sub-requests into one estimate."""
    requests, spec, scaling = state
    outcomes = []
    for i, (reference, subs) in enumerate(requests):
        begin_request(i)
        ref = timed(reference, result)
        ests = [timed(lambda a=a: montecarlo.mc_moment(*a, threads=THREADS), result)
                for a in subs]
        outcomes.append((ref, ests))
        result.setdefault("mc0_s", 1e-3 * sum(result["latencies_ms"][1:]))  # first weight
    yield
    if result["traced"]:
        # thread scaling: the first weight's work again, traced on its own
        tr = tracing.install()
        t0 = time.perf_counter()
        try:
            montecarlo.mc_moment(*scaling, threads=SCALING_THREADS)
        finally:
            tr.uninstall()
        result["mc0_scaled_s"] = time.perf_counter() - t0
        result["scaling_layers"] = tracing.summarize(tr.spans)
        result["scaling_threads"] = SCALING_THREADS
    for (ref, ests), (_, subs) in zip(outcomes, requests):
        result["attempted"] += 1
        result["degraded_ci"] += int(any(e.degraded_ci for e in ests))
        mean = statistics.fmean(e.mean for e in ests)
        stderr = math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests)
        allow = MC_SIGMAS * stderr + verify.MC_REL_MARGIN * abs(ref)
        if not abs(mean - ref) <= allow:
            result["failures"].append(
                f"mc t={subs[0][1]} chi={subs[0][2]}: |{mean} - {ref}| > {allow}")
    result["values"] = SUB_REPLICATES * spec["subs"] * len(requests)


# workload: (set-up, run before the ready mark; pass, a generator that runs
# the timed requests up to its yield and the correctness gates after it)
WORKLOADS = {
    "closed-form": (lambda: closed_form_requests(SEED), closed_form_pass),
    "identities": (lambda: verify.IdentityGridSpec(seed=SEED, n_random=ID_N_RANDOM),
                   identities_pass),
    "mc-moment": (monte_carlo_setup, monte_carlo_pass),
    "observable-sweep": (monte_carlo_setup, monte_carlo_pass),
}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(state, traced: bool) -> dict:
    """Run one pass on the set-up state: timed requests, then gates."""
    global TRACER
    result = {"latencies_ms": [], "attempted": 0, "failures": [], "values": 0,
              "max_rel_err": 0.0, "degraded_ci": 0, "traced": traced}
    steps = WORKLOADS[WORKLOAD][1](state, result)
    rss_at_fork = max_rss_mb()
    tr = TRACER = tracing.install() if traced else None
    t0 = time.perf_counter()
    try:
        next(steps)
    finally:
        if tr is not None:
            tr.uninstall()
            TRACER = None
    result["wall_s"] = time.perf_counter() - t0
    next(steps, None)
    # a forked child's peak leaves out the set-up pages it never touches
    result["rss_mb"] = SETUP_RSS_MB + max_rss_mb() - rss_at_fork
    if tr is not None:
        result["layers"] = tracing.summarize(tr.spans)
        result["trace_missing"] = tr.missing
        tr.write(SPANS_PATH, {"workload": WORKLOAD, "seed": SEED})
    return result


def forked(fn) -> dict:
    """Run ``fn`` in a forked child and return the dict it returns.

    The child starts from the set-up state with no request run yet, so its
    module caches are as empty as a fresh CLI process's after import.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            out = json.dumps(fn())
        except BaseException:
            out = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(write_fd, "w") as fh:
            fh.write(out)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    res = json.loads(data)
    if "error" in res:
        raise RuntimeError(res["error"])
    return res


def main():
    global SETUP_RSS_MB
    state = WORKLOADS[WORKLOAD][0]()
    ready = time.monotonic()
    SETUP_RSS_MB = max_rss_mb()
    passes = []
    while True:
        passes.append(forked(lambda: one_pass(state, False)))
        if TRACE:
            passes.append(forked(lambda: one_pass(state, True)))
        if time.monotonic() >= UNTIL:
            break
    print(json.dumps({"ready": ready, "passes": passes}))


if __name__ == "__main__":
    main()
