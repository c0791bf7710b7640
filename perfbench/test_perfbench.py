"""Tests of the benchmark's own code: each output check fails on a perturbed
output, spans give self times, the inputs match the paper stand-ins, and a
run's last line names exactly the metrics of BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402
from repro.core import gograph_order, metric_m_local  # noqa: E402
from repro.engine.algorithms import make_algo  # noqa: E402
from repro.engine.reference import gauss_seidel, jacobi  # noqa: E402
from repro.graphs import dataset_graph  # noqa: E402


@pytest.fixture(scope="module")
def ic():
    return inputs.graph("IC", 0.1, 101)


@pytest.fixture(scope="module")
def ic_pos(ic):
    return gograph_order(inputs.fresh(ic))


def test_table1_seed_gives_the_experiments_graph():
    g = inputs.graph("IC", 0.1, inputs.TABLE1_SEEDS["IC"])
    ref = dataset_graph("IC", scale=0.1)
    assert g.n == ref.n
    for a, b in ((g.src, ref.src), (g.dst, ref.dst), (g.w, ref.w)):
        assert np.array_equal(a, b)


def test_fresh_graph_has_empty_cache(ic):
    ic.undirected_adj()
    assert inputs.fresh(ic)._cache == {}


def test_permutation_check(ic_pos):
    assert checks.is_permutation(ic_pos, len(ic_pos))[0]
    bad = ic_pos.copy()
    bad[0] = bad[1]
    assert not checks.is_permutation(bad, len(bad))[0]
    assert not checks.is_permutation(ic_pos[:-1], len(ic_pos))[0]
    assert not checks.is_permutation(ic_pos.astype(float), len(ic_pos))[0]


def test_sql_m_matches_and_perturbed_m_fails(ic, ic_pos):
    m = metric_m_local(ic, ic_pos)
    assert checks.positive_edges_sql(ic.src, ic.dst, ic_pos) == m
    assert checks.same_count("M", m, checks.positive_edges_sql(ic.src, ic.dst, ic_pos))[0]
    assert not checks.same_count("M", m + 1, m)[0]
    reversed_pos = len(ic_pos) - 1 - ic_pos
    assert checks.positive_edges_sql(ic.src, ic.dst, reversed_pos) == ic.n_edges - m


def test_gograph_must_beat_every_competitor():
    assert checks.gograph_beats_all({"default": 5, "rabbit": 9, "gograph": 10})[0]
    assert not checks.gograph_beats_all({"default": 5, "rabbit": 10, "gograph": 10})[0]


def test_source_is_the_top_out_degree_vertex(ic):
    assert checks.top_out_degree_vertex(ic.src, ic.n) == ic.highest_out_degree_vertex()


@pytest.mark.parametrize("algo", ["sssp", "bfs"])
def test_distances_match_networkx_and_perturbed_fail(ic, ic_pos, algo):
    source = checks.top_out_degree_vertex(ic.src, ic.n)
    ref = checks.reference_distances(
        ic.src, ic.dst, ic.w if algo == "sssp" else None, ic.n, source
    )
    x = gauss_seidel(inputs.fresh(ic), make_algo(algo), ic_pos).x
    assert checks.same_states(x, ref)[0]
    bad = x.copy()
    v = int(np.flatnonzero(np.isfinite(bad) & (bad > 0))[0])
    bad[v] += 1.0
    assert not checks.same_states(bad, ref)[0]
    unreached = x.copy()
    unreached[v] = np.inf
    assert not checks.same_states(unreached, ref)[0]


@pytest.mark.parametrize("algo", ["pagerank", "php"])
def test_fixpoint_checks_fail_on_perturbed_states(ic, ic_pos, algo):
    source = checks.top_out_degree_vertex(ic.src, ic.n)
    upd = checks.SumUpdate(algo, ic.src, ic.dst, ic.w, ic.n, source)
    tol = checks.TOL
    xg = gauss_seidel(inputs.fresh(ic), make_algo(algo), ic_pos).x
    xj = jacobi(inputs.fresh(ic), make_algo(algo)).x
    assert checks.fixpoint_residual(upd, xg, tol)[0]
    assert checks.fixpoint_residual(upd, xj, tol)[0]
    assert checks.same_fixpoint(upd, xg, xj, tol)[0]
    bad = xg.copy()
    v = next(i for i in range(ic.n) if i != source)
    bad[v] += 1e-3
    assert not checks.fixpoint_residual(upd, bad, tol)[0]
    assert not checks.same_fixpoint(upd, xg * 1.01, xj, tol)[0]
    # a run stopped early is no fixpoint either
    early = gauss_seidel(inputs.fresh(ic), make_algo(algo), ic_pos, max_rounds=3).x
    assert not checks.fixpoint_residual(upd, early, tol)[0]


def test_rounds_monotonicity_check():
    assert checks.no_more_rounds(7, 15)[0]
    assert checks.no_more_rounds(15, 15)[0]
    assert not checks.no_more_rounds(16, 15)[0]


def test_ledger_counts_failures():
    led = checks.Ledger()
    led.record("a", True)
    led.check("b", (False, "why"))
    assert (led.attempted, led.failed, led.failures) == (2, 1, ["b: why"])


def _outer(x):
    return _inner(x) + 1


def _inner(x):
    total = 0
    for i in range(20000):
        total += i
    return _leaf(x)


def _leaf(x):
    return x


def test_tracer_self_time_and_restore():
    mod = sys.modules[__name__]
    orig_inner = mod._inner
    t = Tracer()
    t.wrap(__name__, "_outer", "outer", "outer")
    t.wrap(__name__, "_inner", "inner", "inner")
    t.counter(__name__, "_leaf", "leaf_calls")
    t.install()
    assert mod._outer(1) == 2
    t.uninstall()
    assert mod._inner is orig_inner
    outer, inner = t.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    selfs = t.self_times()
    assert selfs["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    assert selfs["inner"] == pytest.approx(inner.end - inner.start)
    assert t.counts == {"leaf_calls": 1}
    assert t.totals()["outer"] >= t.totals()["inner"]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reorder-cp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize(
    "workload,trace", [("converge-cp", 0), ("converge-cp", 1), ("spark-ic", 0)]
)
def test_last_line_names_every_benchmark_metric(tmp_path, workload, trace):
    import json

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--out", str(tmp_path / "r.json")],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
