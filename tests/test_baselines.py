"""Tests for the competitor reordering methods (§V-A)."""
import hashlib

import numpy as np
import pytest

from repro.graphs.gen import community_ba_graph, dataset_graph
from repro.reorder.api import METHODS, assert_permutation, compute_order
from repro.reorder.baselines import degree_sort, hub_cluster, hub_sort
from repro.reorder.gorder import gorder

GRAPHS = ["IC", "CP"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", GRAPHS)
def test_every_method_returns_permutation(method, name):
    g = dataset_graph(name, scale=0.1)
    assert_permutation(compute_order(g, method), g.n)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_deterministic(method):
    g = dataset_graph("IC", scale=0.1)
    assert np.array_equal(compute_order(g, method), compute_order(g, method))


def test_default_is_identity():
    g = dataset_graph("IC", scale=0.1)
    assert np.array_equal(compute_order(g, "default"), np.arange(g.n))


def test_degsort_degree_nonincreasing_along_order():
    g = dataset_graph("CP", scale=0.1)
    pos = degree_sort(g)
    deg_in_order = g.degree()[np.argsort(pos)]
    assert (np.diff(deg_in_order) <= 0).all()


def test_hubsort_hubs_first_and_sorted():
    g = dataset_graph("CP", scale=0.1)
    pos = hub_sort(g)
    deg = g.degree()
    hubs = deg > deg.mean()
    n_hubs = int(hubs.sum())
    assert (pos[hubs] < n_hubs).all()
    hub_deg_in_order = deg[np.argsort(pos)][:n_hubs]
    assert (np.diff(hub_deg_in_order) <= 0).all()


def test_hubcluster_hubs_first_in_original_relative_order():
    g = dataset_graph("CP", scale=0.1)
    pos = hub_cluster(g)
    deg = g.degree()
    hubs = np.flatnonzero(deg > deg.mean())
    n_hubs = len(hubs)
    assert (pos[hubs] < n_hubs).all()
    # relative order among hubs preserved (original IDs ascending)
    assert (np.diff(pos[hubs]) > 0).all()
    # and among non-hubs too
    non = np.flatnonzero(deg <= deg.mean())
    assert (np.diff(pos[non]) > 0).all()


def test_unknown_method_raises():
    g = dataset_graph("IC", scale=0.1)
    with pytest.raises(ValueError):
        compute_order(g, "nope")


def test_assert_permutation_rejects_bad_input():
    with pytest.raises(AssertionError):
        assert_permutation(np.array([0, 0, 2]), 3)


@pytest.mark.parametrize("method", ["rabbit", "gorder", "gograph"])
def test_locality_methods_beat_default_spread(method):
    """Locality-oriented orders put neighbors closer than the default."""
    g = community_ba_graph(1200, 4, comm_size=60, forward_frac=0.4, seed=11)
    pos = compute_order(g, method)
    spread = float(np.mean(np.abs(pos[g.src] - pos[g.dst])))
    default_spread = float(np.mean(np.abs(g.src - g.dst)))
    assert spread < default_spread


def test_gorder_window_groups_siblings():
    """Vertices sharing an in-neighbor should land near each other."""
    # star-ish: 0 → {1..6}; siblings 1..6 share in-neighbor 0
    from repro.graphs.local import LocalGraph

    g = LocalGraph(
        n=7,
        src=np.zeros(6, dtype=np.int64),
        dst=np.arange(1, 7),
        w=np.ones(6),
    )
    pos = compute_order(g, "gorder")
    sib_pos = np.sort(pos[1:])
    assert sib_pos[-1] - sib_pos[0] == 5  # contiguous block


# sha256 of gorder(dataset_graph(name)).tobytes() (int64 positions) on the
# six bench graphs. Speed-ups of Gorder must keep the positions byte-identical.
GORDER_GOLDEN_POSITIONS = {
    "IC": "68a40e15f6716585ad2e13504c32871f714f2b44abdbb409eb09167116a20c87",
    "SK": "19bfed44aa793863c364606ded4a32864d30cccb65694195632d5790ddf8a52d",
    "GL": "38e54e9f196df9c623ba3fdb5d629ed2573de2b25604d11b1b6207ad21658342",
    "WK": "984961a81cb18123bbeea2b2d447b82a554605e6195cdd52cc364d2d1974c81a",
    "CP": "d860123b71719993184c5d92b0c17b54ac44f832c703eba68a3c66de83b9e232",
    "LJ": "9ab987864c35df5de372162651a72b8b367602a06100fef1e0854b748c3d7995",
}


@pytest.mark.parametrize("name", sorted(GORDER_GOLDEN_POSITIONS))
def test_gorder_golden_positions_on_bench_graphs(name):
    pos = np.ascontiguousarray(gorder(dataset_graph(name)), dtype=np.int64)
    assert hashlib.sha256(pos.tobytes()).hexdigest() == GORDER_GOLDEN_POSITIONS[name]


def test_rabbit_orders_community_members_contiguously():
    g = community_ba_graph(600, 4, comm_size=60, forward_frac=0.5, seed=13)
    pos = compute_order(g, "rabbit")
    spread = float(np.mean(np.abs(pos[g.src] - pos[g.dst])))
    assert spread < g.n / 5
