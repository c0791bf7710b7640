"""The ``spark-ic`` workload: the Spark engines on IC at scale 0.5.

Set-up starts the session through ``repro.session.get_session``, makes the
graph and its GoGraph order with the local ``gograph_order``. After one
untimed warm-up pair, each timed pass is one converged ``run_sync_spark``
BFS and one ``run_async_spark`` BFS (``n_blocks=2``, GoGraph order). Once
the timed passes are done, the Spark GoGraph path runs:
``gograph_positions_spark`` and ``metric_m_spark``, whose positions and M
are checked against the local ones. Each Spark call runs in its own job
group, so the jobs, stages and tasks it launched are read from
``statusTracker()``.

Cost here is per-job latency, not data: the graph is small so that one run
fits in about a minute (README.md gives the sizes and why).
"""
from __future__ import annotations

import os
import subprocess
import time

import numpy as np

import checks
import inputs
from tracing import Tracer
from workloads import ALGOS, Outcome, gograph_rounds, median, peak_rss_mb

IC_SCALE = 0.5
N_BLOCKS = 2
MAX_CORES = 2


def register_spark_spans(tracer: Tracer) -> None:
    """Spans around the Spark layers (the graph generator is wrapped by
    ``workloads.register_layer_spans``, which every traced run registers too)."""
    tracer.wrap("repro.engine.spark_sync", "run_sync_spark", "engine.spark_sync", "spark.sync")
    tracer.wrap("repro.engine.spark_async", "run_async_spark", "engine.spark_async", "spark.async")
    tracer.wrap("repro.core.gograph", "gograph_positions_spark", "core", "spark.gograph")
    tracer.wrap("repro.core.metric", "metric_m_spark", "core", "spark.metric")


def _session():
    """Local Spark with at most two cores; settings the JVM reads at launch."""
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    scratch = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "spark-tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f"--conf spark.local.dir={scratch} "
        f"--driver-java-options -Djava.io.tmpdir={scratch} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        # keep every job and stage of a run readable from statusTracker()
        "--conf spark.ui.retainedJobs=100000 --conf spark.ui.retainedStages=100000 "
        "pyspark-shell"
    )
    from repro import session

    spark = session.get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class JobCounter:
    """Jobs, stages and tasks launched inside a named job group."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.tracker = self.sc.statusTracker()
        self.n = 0

    def run(self, fn):
        self.n += 1
        group = f"perfbench-{self.n}"
        self.sc.setJobGroup(group, group)
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        jobs = self.tracker.getJobIdsForGroup(group)
        stages: set[int] = set()
        for j in jobs:
            info = self.tracker.getJobInfo(j)
            stages.update(info.stageIds if info else ())
        tasks = 0
        for s in stages:
            info = self.tracker.getStageInfo(s)
            tasks += info.numTasks if info else 0
        return out, {"s": dt, "jobs": len(jobs), "stages": len(stages), "tasks": tasks}


def bfs_pair(spark, counter: JobCounter, g, pos):
    """One converged sync BFS and one async BFS under ``pos``, with their counts."""
    from repro.engine import spark_async, spark_sync

    sync = counter.run(lambda: spark_sync.run_sync_spark(spark, inputs.fresh(g), "bfs"))
    asyn = counter.run(
        lambda: spark_async.run_async_spark(spark, inputs.fresh(g), "bfs", pos, n_blocks=N_BLOCKS)
    )
    return sync, asyn


def spark_order(spark, counter: JobCounter, g):
    """GoGraph positions and M on Spark, with their counts."""
    from repro.core import gograph, metric
    from repro.graphs import gen

    edges = gen.edges_to_spark(spark, g)
    pos_df, gg = counter.run(lambda: gograph.gograph_positions_spark(spark, edges, g.n))
    m_spark, mm = counter.run(lambda: metric.metric_m_spark(edges, pos_df))
    pos = pos_df.toPandas().sort_values("vid")["pos"].to_numpy()
    return pos, m_spark, gg, mm


def spark_layers(tracer: Tracer, since: int, pairs: list, gg: dict, mm: dict) -> dict[str, float]:
    """Per-layer Spark figures from timed pairs and the Spark GoGraph path."""
    (r_sync, sync_c), (r_async, async_c) = pairs[-1]
    async_steps = (r_async.rounds + 1) * N_BLOCKS  # the last, quiet round sweeps too
    sync_steps = r_sync.rounds + 1
    async_s = median(p[1][1]["s"] for p in pairs)
    sync_s = median(p[0][1]["s"] for p in pairs)
    selfs = tracer.self_times(since)
    return {
        "spark_async_s": async_s,
        "spark_sync_s": sync_s,
        "spark_async_jobs": async_c["jobs"],
        "spark_async_tasks": async_c["tasks"],
        "spark.gograph_s": gg["s"],
        "spark.metric_s": mm["s"],
        "spark.async_block_step_s": async_s / async_steps,
        "spark.async_jobs_per_block_step": async_c["jobs"] / async_steps,
        "spark.async_stages": async_c["stages"],
        "spark.async_rounds": r_async.rounds,
        "spark.sync_round_s": sync_s / sync_steps,
        "spark.sync_jobs": sync_c["jobs"],
        "spark.sync_tasks": sync_c["tasks"],
        "spark.sync_rounds": r_sync.rounds,
        **{f"self_s.{k}": selfs.get(k, 0.0) for k in ("engine.spark_sync", "engine.spark_async")},
    }


def spark_cover(seed: int, tracer: Tracer) -> dict[str, float]:
    """The Spark layers once, cold, for a local workload's traced run.

    The graph and its order are made before the patches go in, and the
    counts are put back afterwards, so the local layers' counts stay those
    of the local workload.
    """
    from repro.core import gograph

    g = inputs.graph("IC", IC_SCALE, seed)
    pos = gograph.gograph_order(inputs.fresh(g))
    counts = dict(tracer.counts)
    since = tracer.mark()
    tracer.install()
    spark = _session()
    try:
        counter = JobCounter(spark)
        pair = bfs_pair(spark, counter, g, pos)
        _, _, gg, mm = spark_order(spark, counter, g)
    finally:
        tracer.uninstall()
        _stop(spark)
    tracer.counts = counts
    return spark_layers(tracer, since, [pair], gg, mm)


def spark_ic(seed: int, seconds: float, tracer: Tracer | None, ledger: checks.Ledger) -> Outcome:
    from repro.core import gograph, metric
    from repro.engine import reference
    from repro.engine.algorithms import make_algo

    if tracer:
        tracer.install()
    since = tracer.mark() if tracer else 0
    spark = _session()
    try:
        g = inputs.graph("IC", IC_SCALE, seed)
        pos = gograph.gograph_order(inputs.fresh(g))
        setup_done = time.perf_counter()
        setup_range = (since, tracer.mark() if tracer else 0)
        counter = JobCounter(spark)
        bfs_pair(spark, counter, g, pos)  # warm-up
        pairs, pair_s = [], []
        start = time.perf_counter()
        while not pairs or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            pairs.append(bfs_pair(spark, counter, g, pos))
            pair_s.append(time.perf_counter() - t0)
        rss = peak_rss_mb()
        pos_spark, m_spark, gg, mm = spark_order(spark, counter, g)
    finally:
        if tracer:
            tracer.uninstall()
        _stop(spark)

    # checks, outside the timed passes
    ledger.check("gograph_order is a permutation", checks.is_permutation(pos, g.n))
    ledger.record(
        "gograph_positions_spark equals gograph_order", bool(np.array_equal(pos_spark, pos))
    )
    m_local = metric.metric_m_local(g, pos)
    m_sql = checks.positive_edges_sql(g.src, g.dst, pos)
    ledger.check("metric_m_local equals SQL", checks.same_count("M", m_local, m_sql))
    ledger.check("metric_m_spark equals SQL", checks.same_count("M", m_spark, m_sql))
    source = checks.top_out_degree_vertex(g.src, g.n)
    dist = checks.reference_distances(g.src, g.dst, None, g.n, source)
    ref_sync = reference.jacobi(inputs.fresh(g), make_algo("bfs"))
    ref_async = reference.gauss_seidel(inputs.fresh(g), make_algo("bfs"), pos)
    for i, ((rs, _), (ra, _)) in enumerate(pairs):
        for name, r, ref in (("sync", rs, ref_sync), ("async", ra, ref_async)):
            ledger.record(f"spark {name} bfs converged (pass {i})", bool(r.converged))
            ledger.check(f"spark {name} bfs equals networkx (pass {i})", checks.same_states(r.x, dist))
            ledger.check(
                f"spark {name} rounds equal reference (pass {i})",
                checks.same_count("rounds", r.rounds, ref.rounds),
            )
    for key in ("jobs", "stages", "tasks"):
        ledger.record(
            f"spark {key} repeat across passes",
            len({p[0][1][key] for p in pairs}) == 1 and len({p[1][1][key] for p in pairs}) == 1,
        )
    gs = {("gograph", a): reference.gauss_seidel(inputs.fresh(g), make_algo(a), pos) for a in ALGOS}
    for (_, a), r in gs.items():
        ledger.record(f"gograph {a} converged", bool(r.converged))

    e2e = {"positive_edges": m_local, "gograph_rounds": gograph_rounds(gs)}
    figures = spark_layers(tracer or Tracer(), since, pairs, gg, mm)
    detail = {"pass_s": median(pair_s)}
    detail.update((k, v) for k, v in figures.items() if k.startswith("spark_"))
    layers = {}
    if tracer:
        import workloads

        layers.update(detail)
        layers.update(figures)

        tracer.counts = {}  # the Spark GoGraph path called into core too
        layers.update(workloads.local_cover(g, tracer, setup_range))
    return Outcome(setup_done, rss, e2e, detail, layers)
