"""The local workloads: ``reorder-cp`` and ``converge-cp``.

Both run on the CP stand-in (paper Table II's graph, where the default
order is worst). ``reorder-cp`` times the seven orders, so its time is in
``reorder``, ``partition`` and ``core``; ``converge-cp`` computes the
orders once in set-up and times the reference engine, so its time is in
``engine.reference``. A change to one layer should move one workload and
leave the other alone.

Timing rules: an untimed warm-up pass first, then passes until the run's
seconds are spent, and every timing is a median over passes. Every program
call gets a fresh ``LocalGraph`` (see :func:`inputs.fresh`), so no call
reuses adjacency lists another call built. Every timing is reported beside
an exact count of the same work (M, rounds, edge updates).

In a traced run every other pass, from the first, runs with the tracer's
patches installed; the per-layer numbers come from those passes, and the
tracing overhead is the traced minus the untraced median pass time.
"""
from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
import inputs
from tracing import Tracer
from repro.cachesim import lru as cache_lru
from repro.cachesim import trace as cache_trace
from repro.core import metric
from repro.engine import reference
from repro.engine.algorithms import make_algo
from repro.experiments.cache import CACHE
from repro.reorder import api as reorder_api

ALGOS = ("pagerank", "sssp", "bfs", "php")
METHODS = reorder_api.METHODS  # default … gograph, paper Table II order
COMPETITORS = tuple(m for m in METHODS if m != "gograph")
SWEEP_ORDERS = ("default", "gograph")
CP_SCALE = 1.0
MIN_PASSES = 3


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    setup_done: float  # perf_counter when set-up ended
    peak_rss_mb: float  # at the end of the timed passes, before any check
    e2e: dict[str, float]
    detail: dict[str, float] = field(default_factory=dict)  # the workload's own timings
    layers: dict[str, float] = field(default_factory=dict)  # traced runs only


@dataclass
class Pass:
    seconds: float
    traced: bool
    since: int  # span range of this pass
    until: int
    out: Any


def median(xs) -> float:
    return float(statistics.median(xs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(
    one_pass: Callable[[], Any],
    summary: Callable[[Any], Any],
    seconds: float,
    tracer: Tracer | None,
) -> tuple[list[Pass], Any]:
    """Untimed warm-up, then timed passes until ``seconds`` are spent.

    At least ``MIN_PASSES`` passes are made (twice that in a traced run,
    which alternates traced and untraced passes). Each pass keeps only
    ``summary(output)``, so peak memory does not grow with the number of
    passes; the last pass's full output is returned for the checks.
    """
    one_pass()
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 0
        gc.collect()
        if traced:
            tracer.install()
        since = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        out = one_pass()
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        passes.append(Pass(dt, traced, since, tracer.mark() if tracer else 0, summary(out)))
    return passes, out


def untraced(passes: list[Pass]) -> list[Pass]:
    return [p for p in passes if not p.traced]


# -- per-layer numbers from spans -------------------------------------------
def register_layer_spans(tracer: Tracer) -> None:
    """Register spans around every call the local workloads make into the program."""
    tracer.wrap("repro.graphs.gen", "community_ba_graph", "graphs", "graphs.generate")
    for attr, method in (
        ("default_order", "default"),
        ("degree_sort", "degsort"),
        ("hub_sort", "hubsort"),
        ("hub_cluster", "hubcluster"),
        ("rabbit_order", "rabbit"),
        ("gorder", "gorder"),
    ):
        tracer.wrap("repro.reorder.api", attr, "reorder", f"reorder.{method}")
    tracer.wrap("repro.reorder.api", "gograph_order", "core", "reorder.gograph")
    tracer.wrap(
        "repro.reorder.rabbit", "labelprop_communities", "partition", "partition.labelprop"
    )
    tracer.wrap(
        "repro.partition.api", "labelprop_communities", "partition", "partition.labelprop"
    )
    tracer.wrap("repro.partition.api", "cap_sizes", "partition", "partition.cap_sizes")

    def parts_counts(parts, sub, *_a, **_k):
        tracer.counts["partition.parts"] = int(len(np.unique(parts)))
        tracer.counts["partition.edge_cut"] = int(np.sum(parts[sub.src] != parts[sub.dst]))

    tracer.wrap("repro.core.gograph", "partition", "partition", "partition.partition", parts_counts)
    for attr, phase in (
        ("_split_graph", "split"),
        ("_partition_core", "partition"),
        ("reorder_subgraph", "conquer"),
        ("_order_supers_and_offsets", "combine"),
        ("_insert_remaining", "insert"),
    ):
        tracer.wrap("repro.core.gograph", attr, "core", f"core.{phase}")

    def val_ties(_pos, _n, vals, *_a, **_k):
        _, counts = np.unique(np.fromiter(vals.values(), dtype=np.float64), return_counts=True)
        tracer.counts["core.val_ties"] = int(counts[counts > 1].sum())

    tracer.wrap("repro.core.gograph", "_vals_to_positions", "core", "core.positions", val_ties)
    tracer.counter("repro.core.gograph", "get_opt_val", "core.get_opt_val_calls")
    tracer.wrap(
        "repro.engine.reference",
        "gauss_seidel",
        "engine.reference",
        lambda _g, algo, *_a, **_k: f"engine.gs.{algo.name}",
    )
    tracer.wrap(
        "repro.engine.reference",
        "jacobi",
        "engine.reference",
        lambda _g, algo, *_a, **_k: f"engine.jacobi.{algo.name}",
    )
    tracer.wrap("repro.engine.reference", "per_round_time", "engine.reference", "engine.sweep")
    tracer.wrap("repro.cachesim.trace", "pagerank_trace", "cachesim", "cachesim.trace")
    tracer.wrap("repro.cachesim.lru", "simulate_misses", "cachesim", "cachesim.simulate")


SPAN_METRICS = {
    "graphs.generate_s": ("graphs.generate",),
    **{f"reorder.{m}_s": (f"reorder.{m}",) for m in METHODS},
    "partition.labelprop_s": ("partition.labelprop",),
    "partition.cap_sizes_s": ("partition.cap_sizes",),
    **{
        f"core.{p}_s": (f"core.{p}",)
        for p in ("split", "partition", "conquer", "combine", "insert", "positions")
    },
    **{f"engine.gs_s.{a}": (f"engine.gs.{a}",) for a in ALGOS},
    "engine.jacobi_s": tuple(f"engine.jacobi.{a}" for a in ALGOS),
    "cachesim.simulate_s": ("cachesim.simulate",),
}


def span_layer_metrics(tracer: Tracer, ranges: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer times: for each metric, the median over the ranges where it occurs."""
    samples: dict[str, list[float]] = {}
    for since, until in ranges:
        totals = tracer.totals(since, until)
        for metric_name, span_names in SPAN_METRICS.items():
            if any(s in totals for s in span_names):
                samples.setdefault(metric_name, []).append(
                    sum(totals.get(s, 0.0) for s in span_names)
                )
        for layer, t in tracer.self_times(since, until).items():
            samples.setdefault(f"self_s.{layer}", []).append(t)
    return {k: median(v) for k, v in samples.items()}


def gograph_counts(tracer: Tracer) -> dict[str, float]:
    calls = sum(1 for s in tracer.spans if s.name == "reorder.gograph")
    return {
        "core.get_opt_val_calls": tracer.counts.get("core.get_opt_val_calls", 0) / max(calls, 1),
        "core.val_ties": tracer.counts.get("core.val_ties", 0),
        "partition.parts": tracer.counts.get("partition.parts", 0),
        "partition.edge_cut": tracer.counts.get("partition.edge_cut", 0),
    }


def cache_misses(g, orders: dict[str, np.ndarray]) -> dict[str, float]:
    """Fig 9's LRU misses of one PageRank sweep, traced runs only."""
    out = {}
    for label in SWEEP_ORDERS:
        lines = cache_trace.pagerank_trace(inputs.fresh(g), orders[label])
        misses, _ = cache_lru.simulate_misses(lines, **CACHE)
        out[f"cachesim.misses.{label}"] = misses
    return out


# -- shared work ------------------------------------------------------------
def compute_orders(g) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """The seven orders, each on a fresh graph, with their wall-clock."""
    orders, times = {}, {}
    for m in METHODS:
        gi = inputs.fresh(g)
        t0 = time.perf_counter()
        orders[m] = reorder_api.compute_order(gi, m)
        times[m] = time.perf_counter() - t0
    return orders, times


def order_summary(out: tuple[dict[str, np.ndarray], dict[str, float]]):
    """A pass of orders as digests, permutation checks and times."""
    orders, times = out
    digests = {m: hashlib.sha256(pos.tobytes()).hexdigest() for m, pos in orders.items()}
    perms = {m: checks.is_permutation(pos, len(pos)) for m, pos in orders.items()}
    return digests, times, perms


@dataclass
class ConvergeOut:
    gs: dict[tuple[str, str], Any]  # (method, algo) -> RunResult, or rounds in a summary
    jacobi: dict[str, Any]  # algo -> RunResult, or rounds in a summary
    sweeps: dict[str, float]  # order label -> seconds of one sequential sweep
    converge_s: float  # the 28 Eq. 2 and 4 Eq. 1 runs

    def summary(self) -> "ConvergeOut":
        """The same pass with round counts in place of run results."""
        return ConvergeOut(
            {k: r.rounds for k, r in self.gs.items()},
            {a: r.rounds for a, r in self.jacobi.items()},
            self.sweeps,
            self.converge_s,
        )


def converge_pass(g, orders: dict[str, np.ndarray]) -> ConvergeOut:
    """Four algorithms to convergence under Eq. 2 for every order and Eq. 1,
    plus one sequential Eq. 2 PageRank sweep under Default and GoGraph."""
    t0 = time.perf_counter()
    gs = {
        (m, a): reference.gauss_seidel(inputs.fresh(g), make_algo(a), orders[m])
        for m in METHODS
        for a in ALGOS
    }
    jac = {a: reference.jacobi(inputs.fresh(g), make_algo(a)) for a in ALGOS}
    converge_s = time.perf_counter() - t0
    sweeps = {
        label: reference.per_round_time(
            inputs.fresh(g), make_algo("pagerank"), orders[label], sweeps=1
        )
        for label in SWEEP_ORDERS
    }
    return ConvergeOut(gs, jac, sweeps, converge_s)


def round_metrics(out: ConvergeOut, n_edges: int) -> dict[str, float]:
    m = {f"engine.rounds.{k[0]}.{k[1]}": r.rounds for k, r in out.gs.items()}
    m.update({f"engine.jacobi_rounds.{a}": r.rounds for a, r in out.jacobi.items()})
    total = sum(r.rounds for r in out.gs.values()) + sum(r.rounds for r in out.jacobi.values())
    m["engine.edge_updates"] = total * n_edges
    return m


def gograph_rounds(gs: dict[tuple[str, str], Any]) -> int:
    return sum(gs[("gograph", a)].rounds for a in ALGOS)


def check_orders(ledger: checks.Ledger, g, orders: dict[str, np.ndarray]) -> dict[str, int]:
    """Permutation, M by SQL, and GoGraph ahead of every competitor."""
    ms = {}
    for m, pos in orders.items():
        if not ledger.check(f"{m} is a permutation", checks.is_permutation(pos, g.n)):
            continue
        ms[m] = metric.metric_m_local(g, pos)
        sql = checks.positive_edges_sql(g.src, g.dst, pos)
        ledger.check(f"{m} M equals SQL", checks.same_count("M", ms[m], sql))
    if len(ms) == len(METHODS):
        ledger.check("gograph M beats all", checks.gograph_beats_all(ms))
    return ms


def check_converged(ledger: checks.Ledger, g, out: ConvergeOut) -> None:
    """States against networkx and the fixpoint equation, and round monotonicity."""
    source = checks.top_out_degree_vertex(g.src, g.n)
    ref = {
        "sssp": checks.reference_distances(g.src, g.dst, g.w, g.n, source),
        "bfs": checks.reference_distances(g.src, g.dst, None, g.n, source),
    }
    upd = {a: checks.SumUpdate(a, g.src, g.dst, g.w, g.n, source) for a in ("pagerank", "php")}
    runs = {**{f"{m} {a}": r for (m, a), r in out.gs.items()},
            **{f"jacobi {a}": r for a, r in out.jacobi.items()}}
    for name, r in runs.items():
        ledger.record(f"{name} converged", bool(r.converged), f"stopped after {r.rounds} rounds")
    for a in ALGOS:
        base = out.gs[("default", a)].x
        for name in [f"{m} {a}" for m in METHODS] + [f"jacobi {a}"]:
            x = runs[name].x
            if a in ref:
                ledger.check(f"{name} equals networkx", checks.same_states(x, ref[a]))
            else:
                ledger.check(f"{name} residual", checks.fixpoint_residual(upd[a], x, checks.TOL))
                ledger.check(
                    f"{name} same fixpoint as default",
                    checks.same_fixpoint(upd[a], x, base, checks.TOL),
                )
        for m in METHODS:
            ledger.check(
                f"{m} {a} Eq. 2 rounds <= Eq. 1",
                checks.no_more_rounds(out.gs[(m, a)].rounds, out.jacobi[a].rounds),
            )


# -- workloads --------------------------------------------------------------
def order_timings(samples: list[dict[str, float]]) -> dict[str, float]:
    return {
        "gograph_s": median(t["gograph"] for t in samples),
        "competitors_s": median(sum(t[m] for m in COMPETITORS) for t in samples),
    }


def converge_timings(samples: list[ConvergeOut]) -> dict[str, float]:
    return {
        "converge_s": median(c.converge_s for c in samples),
        "sweep_s": median(t for c in samples for t in c.sweeps.values()),
    }


def reorder_cp(seed: int, seconds: float, tracer: Tracer | None, ledger: checks.Ledger) -> Outcome:
    if tracer:
        tracer.install()
    since = tracer.mark() if tracer else 0
    g = inputs.graph("CP", CP_SCALE, seed)
    if tracer:
        tracer.uninstall()
    setup_done = time.perf_counter()

    passes, (orders, _) = run_passes(lambda: compute_orders(g), order_summary, seconds, tracer)
    rss = peak_rss_mb()
    timed = untraced(passes)
    for p in passes:
        for m, result in p.out[2].items():
            ledger.check(f"{m} is a permutation", result)
    for m in METHODS:
        ledger.record(
            f"{m} repeats across passes", len({p.out[0][m] for p in passes}) == 1
        )
    ms = check_orders(ledger, g, orders)
    gs = {
        ("gograph", a): reference.gauss_seidel(inputs.fresh(g), make_algo(a), orders["gograph"])
        for a in ALGOS
    }
    for (_, a), r in gs.items():
        ledger.record(f"gograph {a} converged", bool(r.converged))

    e2e = {"positive_edges": ms.get("gograph", 0), "gograph_rounds": gograph_rounds(gs)}
    detail = {
        "pass_s": median(p.seconds for p in timed),
        **order_timings([p.out[1] for p in timed]),
    }
    layers = {}
    if tracer:
        # one converge pass so that the engine layer is measured here too
        setup_range = (since, passes[0].since)
        tracer.install()
        cover_since = tracer.mark()
        cover = converge_pass(g, orders)
        layers.update(cache_misses(g, orders))
        tracer.uninstall()
        ranges = [setup_range] + [(p.since, p.until) for p in passes if p.traced]
        ranges.append((cover_since, tracer.mark()))
        layers.update(detail)
        layers.update(converge_timings([cover]))
        layers.update(span_layer_metrics(tracer, ranges))
        layers.update(common_layers(tracer, passes, ms, cover, g.n_edges))
        layers.update(spark_cover(seed, tracer))
    return Outcome(setup_done, rss, e2e, detail, layers)


def converge_cp(seed: int, seconds: float, tracer: Tracer | None, ledger: checks.Ledger) -> Outcome:
    """Set-up ends with the graph: the seven orders are computed after it,
    untimed (``reorder-cp`` times them), so ``setup_s`` is not dominated by
    a reorderer's wall clock."""
    if tracer:
        tracer.install()
    since = tracer.mark() if tracer else 0
    g = inputs.graph("CP", CP_SCALE, seed)
    setup_done = time.perf_counter()
    orders, order_times = compute_orders(g)
    if tracer:
        tracer.uninstall()

    passes, last = run_passes(
        lambda: converge_pass(g, orders), ConvergeOut.summary, seconds, tracer
    )
    rss = peak_rss_mb()
    timed = untraced(passes)
    ms = check_orders(ledger, g, orders)
    for m in METHODS:
        ledger.record(f"order {m} computed", m in ms)
    for p in passes:
        ledger.record(
            "rounds repeat across passes",
            all(rounds == last.gs[k].rounds for k, rounds in p.out.gs.items()),
        )
    check_converged(ledger, g, last)

    e2e = {"positive_edges": ms.get("gograph", 0), "gograph_rounds": gograph_rounds(last.gs)}
    detail = {
        "pass_s": median(p.seconds for p in timed),
        **converge_timings([p.out for p in timed]),
    }
    layers = {}
    if tracer:
        setup_range = (since, passes[0].since)
        tracer.install()
        layers.update(cache_misses(g, orders))
        tracer.uninstall()
        ranges = [setup_range] + [(p.since, p.until) for p in passes if p.traced]
        ranges.append((passes[-1].until, tracer.mark()))  # the cache simulation
        layers.update(detail)
        layers.update(order_timings([order_times]))
        layers.update(span_layer_metrics(tracer, ranges))
        layers.update(common_layers(tracer, passes, ms, last, g.n_edges))
        layers.update(spark_cover(seed, tracer))
    return Outcome(setup_done, rss, e2e, detail, layers)


def local_cover(g, tracer: Tracer, setup_range: tuple[int, int]) -> dict[str, float]:
    """Every local layer on ``g``, for the traced run of ``spark-ic``: order
    passes (traced and untraced, for the overhead), one converge pass and
    the cache simulation. ``setup_range`` holds the graph's generation."""
    passes, (orders, _) = run_passes(lambda: compute_orders(g), order_summary, 0, tracer)
    ms = {m: metric.metric_m_local(g, pos) for m, pos in orders.items()}
    tracer.install()
    cover_since = tracer.mark()
    cover = converge_pass(g, orders)
    layers = cache_misses(g, orders)
    tracer.uninstall()
    ranges = [setup_range] + [(p.since, p.until) for p in passes if p.traced]
    ranges.append((cover_since, tracer.mark()))
    layers.update(order_timings([p.out[1] for p in untraced(passes)]))
    layers.update(converge_timings([cover]))
    layers.update(span_layer_metrics(tracer, ranges))
    layers.update(common_layers(tracer, passes, ms, cover, g.n_edges))
    return layers


def spark_cover(seed: int, tracer: Tracer) -> dict[str, float]:
    import spark_ic

    return spark_ic.spark_cover(seed, tracer)


def register_all(tracer: Tracer) -> None:
    """Every traced run measures every layer, so it registers every span."""
    import spark_ic

    register_layer_spans(tracer)
    spark_ic.register_spark_spans(tracer)


def common_layers(tracer, passes, ms, conv: ConvergeOut, n_edges: int) -> dict[str, float]:
    """Counts and pass-level figures shared by every traced run."""
    out = {f"reorder.{m}_M": ms.get(m, 0) for m in METHODS}
    out.update(gograph_counts(tracer))
    out.update(round_metrics(conv, n_edges))
    sweep_samples = [p.out.sweeps for p in passes if isinstance(p.out, ConvergeOut)] or [conv.sweeps]
    for label in SWEEP_ORDERS:
        out[f"engine.sweep_s.{label}"] = median(s[label] for s in sweep_samples)
    on = [p.seconds for p in passes if p.traced]
    off = [p.seconds for p in passes if not p.traced]
    out["trace.overhead_s"] = median(on) - median(off)
    return out


WORKLOADS = {"reorder-cp": reorder_cp, "converge-cp": converge_cp}
