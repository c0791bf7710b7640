"""Tests for the synthetic graph generators (DESIGN.md §2 substitutions)."""
import numpy as np
import pytest

from repro.graphs.gen import (
    DATASETS,
    ba_graph,
    community_ba_graph,
    dataset_graph,
    edges_to_spark,
)
from repro.graphs.local import LocalGraph, to_local

GRAPHS = sorted(DATASETS)


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_vertex_count_matches_spec(name):
    g = dataset_graph(name, scale=0.1)
    assert g.n == max(DATASETS[name]["m"] + 2, int(DATASETS[name]["n"] * 0.1))


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_no_self_loops(name):
    g = dataset_graph(name, scale=0.1)
    assert (g.src != g.dst).all()


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_no_duplicate_edges(name):
    g = dataset_graph(name, scale=0.1)
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert len(pairs) == g.n_edges


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_vertex_ids_in_range(name):
    g = dataset_graph(name, scale=0.1)
    assert g.src.min() >= 0 and g.dst.min() >= 0
    assert max(g.src.max(), g.dst.max()) < g.n


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_weights_in_range(name):
    g = dataset_graph(name, scale=0.1)
    assert (g.w >= 1).all() and (g.w <= 10).all()


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_deterministic(name):
    g1 = dataset_graph(name, scale=0.1)
    g2 = dataset_graph(name, scale=0.1)
    assert np.array_equal(g1.src, g2.src)
    assert np.array_equal(g1.dst, g2.dst)
    assert np.array_equal(g1.w, g2.w)


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_default_order_quality_matches_forward_frac(name):
    """M(default)/|E| ≈ forward_frac — the Table II 'Default' knob."""
    g = dataset_graph(name, scale=1.0)
    frac = float(np.mean(g.src < g.dst))
    assert abs(frac - DATASETS[name]["forward"]) < 0.05


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_power_law_hubs(name):
    """A few vertices concentrate degree (hub extraction must matter)."""
    g = dataset_graph(name, scale=1.0)
    deg = g.degree()
    assert deg.max() > 8 * deg.mean()


@pytest.mark.parametrize("name", GRAPHS)
def test_dataset_has_cycles(name):
    """Graphs must be cyclic, else topological sort would be optimal."""
    g = dataset_graph(name, scale=0.1)
    # a DAG admits a topological order; detect a cycle via Kahn's algorithm
    indeg = np.bincount(g.dst, minlength=g.n).astype(int)
    out_adj = [[] for _ in range(g.n)]
    for s, d in zip(g.src.tolist(), g.dst.tolist()):
        out_adj[s].append(d)
    queue = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in out_adj[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    assert seen < g.n, "expected at least one directed cycle"


def test_ba_graph_edge_count_close_to_m_per_vertex():
    g = ba_graph(500, 3, seed=1)
    assert 0.75 * 3 * 500 <= g.n_edges <= 3 * 500


def test_ba_graph_forward_frac_extremes():
    lo = ba_graph(800, 3, forward_frac=0.05, seed=2)
    hi = ba_graph(800, 3, forward_frac=0.95, seed=2)
    assert float(np.mean(lo.src < lo.dst)) < 0.15
    assert float(np.mean(hi.src < hi.dst)) > 0.85


def test_ba_graph_rejects_bad_n():
    with pytest.raises(ValueError):
        ba_graph(3, 5)


def test_community_graph_has_stronger_communities_than_ba():
    """Label propagation finds far less edge-cut on the community model."""
    from repro.partition.api import edge_cut, partition

    cba = community_ba_graph(1000, 4, comm_size=60, seed=3)
    pure = ba_graph(1000, 4, seed=3)
    cut_cba = edge_cut(cba, partition(cba, "rabbit", target_size=80))
    cut_pure = edge_cut(pure, partition(pure, "rabbit", target_size=80))
    assert cut_cba / cba.n_edges < cut_pure / pure.n_edges


def test_extra_frac_adds_edges():
    g0 = ba_graph(400, 3, extra_frac=0.0, seed=4)
    g1 = ba_graph(400, 3, extra_frac=0.3, seed=4)
    assert g1.n_edges > g0.n_edges


def test_scale_monotone_in_edges():
    a = dataset_graph("CP", scale=0.05)
    b = dataset_graph("CP", scale=0.1)
    assert b.n_edges > a.n_edges


def test_edges_to_spark_roundtrip(spark):
    g = dataset_graph("IC", scale=0.1)
    df = edges_to_spark(spark, g)
    g2 = to_local(df, n=g.n)
    assert g2.n_edges == g.n_edges
    assert sorted(zip(g2.src.tolist(), g2.dst.tolist())) == sorted(
        zip(g.src.tolist(), g.dst.tolist())
    )


def test_local_graph_degree_helpers():
    g = dataset_graph("IC", scale=0.1)
    assert g.out_degree().sum() == g.n_edges
    assert g.in_degree().sum() == g.n_edges
    assert np.array_equal(g.degree(), g.in_degree() + g.out_degree())
    assert g.out_weight().sum() == pytest.approx(g.w.sum())


def _undirected_adj_reference(g):
    """The per-vertex set construction ``undirected_adj`` replaced."""
    adj = [set() for _ in range(g.n)]
    for s, d in zip(g.src.tolist(), g.dst.tolist()):
        adj[s].add(d)
        adj[d].add(s)
    return [sorted(a) for a in adj]


def _hand_graph():
    # 0 has a self-loop, 1 ⇄ 2 is reciprocal, 3 → 1 is listed twice,
    # 5 is isolated and 4 → 3 runs against id order
    src = np.array([0, 1, 2, 3, 3, 4, 2])
    dst = np.array([0, 2, 1, 1, 1, 3, 4])
    return LocalGraph(n=6, src=src, dst=dst, w=np.ones(len(src)))


def test_undirected_adj_on_hand_graph():
    adj = _hand_graph().undirected_adj()
    assert adj == [[0], [2, 3], [1, 4], [1, 4], [2, 3], []]
    assert adj == _undirected_adj_reference(_hand_graph())


def test_undirected_adj_matches_set_reference_on_bench_graph():
    g = dataset_graph("CP")
    adj = g.undirected_adj()
    assert adj == _undirected_adj_reference(g)
    assert all(type(u) is int for a in adj for u in a)
    # one Python int per vertex id, shared by every list it appears in
    ids = {u: id(u) for a in adj for u in a}
    assert all(id(u) == ids[u] for a in adj for u in a)


def test_degrees_via_duckdb_oracle(spark):
    """Degree computation cross-checked against DuckDB SQL."""
    import pandas as pd
    from pyspark.sql import functions as F

    from repro.oracle import assert_equivalent

    g = dataset_graph("IC", scale=0.1)
    edf = edges_to_spark(spark, g)
    spark_deg = edf.groupBy("src").agg(F.count("*").alias("outdeg"))
    assert_equivalent(
        spark_deg,
        "SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src",
        edges=pd.DataFrame({"src": g.src, "dst": g.dst}),
    )
