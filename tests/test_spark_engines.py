"""Parity tests: Spark engines vs the local reference engine.

Graphs are small (100 vertices; IC at scale 0.5 for BFS) and
fast-converging algorithms are used for full-run parity; PageRank
(≈100 rounds) is compared with capped rounds so the suite stays fast —
per-round deltas and states must match exactly either way.
"""
import sys

import numpy as np
import pytest

from repro.core.gograph import gograph_order
from repro.engine.algorithms import make_algo
from repro.engine.reference import gauss_seidel, jacobi
from repro.engine.spark_async import run_async_spark
from repro.engine.spark_sync import MAX_ROUNDS, run_blocks, run_sync_spark
from repro.graphs.gen import ba_graph, dataset_graph
from repro.reorder.api import compute_order
from tests.test_reference_engine import negative_depth


@pytest.fixture(scope="module")
def tiny():
    return ba_graph(100, 3, forward_frac=0.3, extra_frac=0.2, seed=21)


def _close(a, b):
    return np.allclose(
        np.nan_to_num(a, posinf=1e30), np.nan_to_num(b, posinf=1e30), atol=1e-9
    )


@pytest.mark.parametrize("algo", ["sssp", "bfs", "cc", "sswp"])
def test_sync_full_convergence_parity(spark, tiny, algo):
    ref = jacobi(tiny, make_algo(algo))
    got = run_sync_spark(spark, tiny, algo)
    assert got.rounds == ref.rounds
    assert got.converged
    assert _close(got.x, ref.x)


@pytest.mark.parametrize("algo", ["pagerank", "php"])
def test_sync_capped_rounds_parity(spark, tiny, algo):
    ref = jacobi(tiny, make_algo(algo), max_rounds=6)
    got = run_sync_spark(spark, tiny, algo, max_rounds=6)
    assert got.rounds == ref.rounds
    assert np.allclose(got.deltas, ref.deltas)
    assert _close(got.x, ref.x)


@pytest.mark.parametrize("method", ["default", "gograph"])
def test_async_full_convergence_parity_sssp(spark, tiny, method):
    pos = compute_order(tiny, method)
    ref = gauss_seidel(tiny, make_algo("sssp"), pos)
    got = run_async_spark(spark, tiny, "sssp", pos, n_blocks=3)
    assert got.rounds == ref.rounds
    assert _close(got.x, ref.x)


def test_async_capped_rounds_parity_pagerank(spark, tiny):
    pos = compute_order(tiny, "gograph")
    ref = gauss_seidel(tiny, make_algo("pagerank"), pos, max_rounds=4)
    got = run_async_spark(spark, tiny, "pagerank", pos, n_blocks=3, max_rounds=4)
    assert got.rounds == ref.rounds
    assert np.allclose(got.deltas, ref.deltas)
    assert _close(got.x, ref.x)


@pytest.mark.parametrize("eq2", [False, True], ids=["eq1", "eq2"])
def test_async_block_count_invariance(spark, tiny, eq2):
    """Neither Eq. 1 nor Eq. 2 depends on the dataflow block granularity."""
    pos = compute_order(tiny, "gograph")
    r1, r2 = (
        run_blocks(spark, tiny, "bfs", pos, n, eq2=eq2, source=None, max_rounds=MAX_ROUNDS)
        for n in (1, 4)
    )
    assert r1.rounds == r2.rounds
    assert _close(r1.x, r2.x)


def test_async_beats_sync_rounds_on_spark(spark, tiny):
    """The paper's core observation, reproduced on the Spark engines."""
    pos = compute_order(tiny, "gograph")
    sync = run_sync_spark(spark, tiny, "bfs")
    asy = run_async_spark(spark, tiny, "bfs", pos, n_blocks=2)
    assert asy.rounds <= sync.rounds


def test_session_skips_dataframe_origin_capture(spark, tiny):
    """With PySpark's DataFrame debugging on, every Column call records its
    call site in the JVM and the first one imports IPython; the session
    turns it off, so a whole engine run imports no IPython."""
    run_sync_spark(spark, tiny, "bfs")
    assert spark.conf.get("spark.python.sql.dataFrameDebugging.enabled") == "false"
    assert "IPython" not in sys.modules


def _with_job_count(spark, group, fn):
    """``fn()`` and the number of Spark jobs it launched."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def test_bfs_parity_and_job_counts_on_ic(spark):
    """Parity beyond 100 vertices, on spark-ic's graph (IC at scale 0.5).

    Rounds, per-round deltas and states equal the reference engine's
    exactly, and the async rounds equal the Eq. 2 round oracle's. The job
    counts are exact too: they are what each run's dataflow launches, so
    one more join per block-step or per round changes them.
    """
    g = dataset_graph("IC", scale=0.5)
    pos = gograph_order(g)
    bfs = make_algo("bfs")
    sync, sync_jobs = _with_job_count(
        spark, "ic-bfs-sync", lambda: run_sync_spark(spark, g, "bfs", max_rounds=20)
    )
    asyn, async_jobs = _with_job_count(
        spark,
        "ic-bfs-async",
        lambda: run_async_spark(spark, g, "bfs", pos, n_blocks=2, max_rounds=20),
    )
    refs = (jacobi(g, bfs, max_rounds=20), gauss_seidel(g, bfs, pos, max_rounds=20))
    for got, ref in zip((sync, asyn), refs):
        assert got.converged
        assert got.rounds == ref.rounds
        assert got.deltas == ref.deltas
        assert np.array_equal(got.x, ref.x)
    assert asyn.rounds == 1 + negative_depth(g, bfs, pos, g.highest_out_degree_vertex())
    assert (sync_jobs, async_jobs) == (66, 63)
