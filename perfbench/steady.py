"""Steadiness check: run one workload repeatedly, each run in a fresh process.

    python3 perfbench/steady.py --workload converge-cp --runs 5            # one seed
    python3 perfbench/steady.py --workload reorder-cp --seeds 1-10         # a seed each

Prints each end-to-end and workload metric's median, quartiles and spread
(Q3 - Q1 over the median, as ``statistics.quantiles(n=4)`` gives them)
next to the bound in ``BENCHMARK.json``. With one seed it flags every
count that does not repeat exactly (positive_edges, gograph_rounds,
spark_async_jobs, spark_async_tasks). It flags failed operations too, and
exits with code 1 if anything was flagged.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("positive_edges", "gograph_rounds", "spark_async_jobs", "spark_async_tasks")


def seed_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bounds() -> dict[str, float]:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, KeyError, ValueError):
        return {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=None, help="one seed for every run")
    p.add_argument("--seeds", type=seed_list, default=None, help="e.g. 1-10 or 3,7,9")
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    seeds = args.seeds or [args.seed] * args.runs

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    results = []
    for i, seed in enumerate(seeds):
        out = os.path.join(HERE, "out", f"steady-{args.workload}-{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", "0", "--out", out]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            print(f"run {i} exited with {proc.returncode}")
            return 1
        with open(out) as f:
            r = json.load(f)
        results.append(r)
        shown = {**r["e2e"], **r["detail"]}
        print(f"run {i} seed {r['seed']} attempted {r['attempted']} failed {r['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)

    flagged = False
    bound = bounds()
    print(f"\n{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in list(results[0]["e2e"]) + list(results[0]["detail"]):
        vals = [r["e2e"].get(name, r["detail"].get(name)) for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        b = bound.get(name)
        note = ""
        if b is not None and name != "setup_s" and spread > b / 3:
            note = "  above a third of the bound"
        if len(set(seeds)) == 1 and name in EXACT and len(set(vals)) > 1:
            note += f"  does not repeat: {sorted(set(vals))}"
            flagged = True
        print(f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{'' if b is None else b:>6}{note}")
    failed = [r["failed"] for r in results]
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\nfailed operations per run: {failed}")
    if any(failed) or len(shares) > 1:
        flagged = True
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
