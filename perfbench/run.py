"""Layered benchmark of the GoGraph reproduction: one command per run.

    python3 perfbench/run.py --workload reorder-cp --seed 105 --seconds 20 --trace 0

Workloads (see README.md): ``reorder-cp`` and ``converge-cp`` on the CP
stand-in, and ``spark-ic``, the Spark engines on IC at scale 0.5.
``--seed`` seeds the graph generator (default: the Table I seed of the
workload's graph).

The run prints every metric by name with its unit, the operations
attempted and failed, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, taken from spans recorded around calls into ``src/repro``, and the
spans are written to ``perfbench/out/``. Every traced run measures every
layer: a local workload's adds one cold pass over the Spark layers, and
``spark-ic``'s adds one pass over the local layers on its IC graph.

It exits with code 2, printing no result, when the checkout has no
``src/repro`` to measure.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

GRAPH_OF = {"reorder-cp": "CP", "converge-cp": "CP", "spark-ic": "IC"}
E2E = ("setup_s", "peak_rss_mb", "positive_edges", "gograph_rounds")


def process_age() -> float:
    """Seconds between the process's start and ``_T0``, from /proc."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started - (time.perf_counter() - _T0)
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(age, 0.0)


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("positive_edges", "partition.edge_cut") or name.endswith("_M"):
        return "edges"
    if "rounds" in name:
        return "rounds"
    if name.startswith("cachesim.misses"):
        return "misses"
    if name == "engine.edge_updates":
        return "updates"
    if name in ("spark_async_jobs", "spark_async_tasks"):
        return name.rsplit("_", 1)[1]
    return "count"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(GRAPH_OF))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="results file (default under perfbench/out/)")
    return p.parse_args(argv)


def show(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit_of(name)}")


def main(argv=None) -> int:
    age = process_age()
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Spark's Python workers import repro too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )

    import checks
    import inputs
    import workloads
    from tracing import Tracer

    if args.workload == "spark-ic":
        import spark_ic

        fn = spark_ic.spark_ic
    else:
        fn = workloads.WORKLOADS[args.workload]
    seed = inputs.TABLE1_SEEDS[GRAPH_OF[args.workload]] if args.seed is None else args.seed
    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.register_all(tracer)
    ledger = checks.Ledger()
    outcome = fn(seed, args.seconds, tracer, ledger)

    e2e = {
        "setup_s": age + outcome.setup_done - _T0,
        **outcome.e2e,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    e2e = {k: e2e[k] for k in E2E}
    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    show("end to end", e2e)
    show("workload timings", outcome.detail)
    if tracer:
        show("per layer", outcome.layers)
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"operations attempted {ledger.attempted} failed {ledger.failed}")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{seed}-t{args.trace}"
    if tracer:
        tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))
    shown = outcome.layers if tracer else e2e
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            k: {"value": v if isinstance(v, int) else float(v), "unit": unit_of(k)}
            for k, v in shown.items()
        },
    }
    with open(args.out or os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump({**result, "e2e": e2e, "detail": outcome.detail, "seed": seed}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
