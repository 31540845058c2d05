"""Self-check of the benchmark's trace: exact counts repeat, memo split holds.

Usage, from the repository root:

    python3 perfbench/selfcheck.py [--seed 7]

Runs a one-second traced run of every workload twice at one seed and
requires the exact counts (integrand evaluations, fresh double gamma
values, field rows) to be identical between the two.  It also checks the
split the workloads were designed for: no double gamma memo hits on
closed-form, some on identities.  Prints one PASS/FAIL line per check and
one verdict line for each group.  The exit code adds 1 if a repeat check
fails and 2 if a split check fails, so 0 means every check passed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("quadrature.integrand_evals", "specfun.dgamma_fresh", "field.rows")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    repeats, runs = [], {}
    for w in WORKLOADS:
        first, second = (traced(w, args.seed) for _ in range(2))
        runs[w] = first
        for key in EXACT:
            repeats.append((f"{w} {key} repeats: {first[key]} == {second[key]}",
                            first[key] == second[key]))
    cf = runs["closed-form"]["specfun.dgamma_hit_ratio"]
    ident = runs["identities"]["specfun.dgamma_hit_ratio"]
    split = [(f"closed-form dgamma_hit_ratio == 0: {cf:.4f}", cf == 0.0),
             (f"identities dgamma_hit_ratio > 0: {ident:.4f}", ident > 0.0)]
    code = 0
    for group, checks, bit in (("repeat", repeats, 1), ("split", split, 2)):
        for text, ok in checks:
            print(("PASS " if ok else "FAIL ") + text)
        passed = all(ok for _, ok in checks)
        print(f"{group} checks: {'PASS' if passed else 'FAIL'}")
        code |= 0 if passed else bit
    return code


if __name__ == "__main__":
    sys.exit(main())
