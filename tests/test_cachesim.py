"""Tests for the LRU cache simulator substrate (Figs 9-10)."""
import numpy as np
import pytest

from repro.cachesim.lru import LRUCache, simulate_misses
from repro.cachesim.trace import STATES_PER_LINE, pagerank_trace
from repro.graphs.gen import community_ba_graph, dataset_graph


def test_first_access_misses():
    c = LRUCache(n_sets=4, assoc=2)
    assert not c.access(0)
    assert c.misses == 1 and c.hits == 0


def test_repeat_access_hits():
    c = LRUCache(n_sets=4, assoc=2)
    c.access(0)
    assert c.access(0)
    assert c.hits == 1


def test_lru_eviction_order():
    c = LRUCache(n_sets=1, assoc=2)
    c.access(0)
    c.access(1)
    c.access(2)  # evicts 0 (LRU)
    assert not c.access(0)  # 0 was evicted → miss (evicts 1)
    assert c.access(2)  # 2 still resident


def test_mru_touch_prevents_eviction():
    c = LRUCache(n_sets=1, assoc=2)
    c.access(0)
    c.access(1)
    c.access(0)  # 0 becomes MRU; LRU is now 1
    c.access(2)  # evicts 1
    assert c.access(0)


def test_set_mapping_isolates_sets():
    c = LRUCache(n_sets=2, assoc=1)
    c.access(0)  # set 0
    c.access(1)  # set 1
    assert c.access(0) and c.access(1)  # no interference


def test_sequential_scan_misses_once_per_line():
    lines = np.arange(100, dtype=np.int64)
    misses, accesses = simulate_misses(lines, n_sets=8, assoc=4)
    assert misses == 100 and accesses == 100


def test_small_working_set_all_hits_after_warmup():
    lines = np.tile(np.arange(4, dtype=np.int64), 50)
    misses, _ = simulate_misses(lines, n_sets=4, assoc=2)
    assert misses == 4  # compulsory only


def test_trace_length_is_edges_plus_vertices():
    g = dataset_graph("IC", scale=0.1)
    t = pagerank_trace(g, np.arange(g.n))
    assert len(t) == g.n_edges + g.n


def test_trace_lines_in_range():
    g = dataset_graph("IC", scale=0.1)
    t = pagerank_trace(g, np.arange(g.n))
    assert t.min() >= 0
    assert t.max() <= (g.n - 1) // STATES_PER_LINE


@pytest.mark.parametrize("order", ["identity", "shuffled"])
@pytest.mark.parametrize("name", ["IC", "CP"])
def test_trace_matches_sequential_sweep(name, order):
    """Reference: walk vertices in position order, read each in-edge's
    source line in edge order, then write the vertex's own line."""
    g = dataset_graph(name, scale=0.1)
    pos = np.arange(g.n)
    if order == "shuffled":
        pos = np.random.default_rng(3).permutation(g.n)
    expect = []
    for v in np.argsort(pos, kind="stable").tolist():
        expect += [pos[u] // STATES_PER_LINE for u in g.src[g.dst == v].tolist()]
        expect.append(pos[v] // STATES_PER_LINE)
    assert np.array_equal(pagerank_trace(g, pos), expect)


def test_locality_order_beats_random_order():
    """The substrate must reward neighbor co-location (Fig 9 mechanism)."""
    from repro.core.gograph import gograph_order

    g = community_ba_graph(4000, 4, comm_size=80, forward_frac=0.3, seed=9)
    rng = np.random.default_rng(0)
    # 4 KiB cache so the 32 KiB state array does not fully fit
    m_rand, _ = simulate_misses(
        pagerank_trace(g, rng.permutation(g.n)), n_sets=16, assoc=4
    )
    m_go, _ = simulate_misses(
        pagerank_trace(g, gograph_order(g)), n_sets=16, assoc=4
    )
    assert m_go < m_rand


def test_bigger_cache_fewer_misses():
    g = dataset_graph("CP", scale=0.3)
    t = pagerank_trace(g, np.arange(g.n))
    small, _ = simulate_misses(t, n_sets=16, assoc=4)
    big, _ = simulate_misses(t, n_sets=128, assoc=8)
    assert big <= small
