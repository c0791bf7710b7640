"""Tests for the competitor reordering methods (§V-A)."""
import hashlib

import numpy as np
import pytest

from repro.graphs.gen import community_ba_graph, dataset_graph
from repro.graphs.local import group_lists
from repro.reorder.api import METHODS, assert_permutation, compute_order
from repro.reorder.baselines import degree_sort, hub_cluster, hub_sort

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


@pytest.mark.parametrize("name", GRAPHS)
def test_gorder_adjacency_lists_in_edge_array_order(name):
    """Gorder's out/in lists as it builds them, against a per-edge append loop."""
    g = dataset_graph(name)
    out_ref = [[] for _ in range(g.n)]
    in_ref = [[] for _ in range(g.n)]
    for s, d in zip(g.src.tolist(), g.dst.tolist()):
        out_ref[s].append(d)
        in_ref[d].append(s)
    assert group_lists(g.n, g.src, g.dst) == out_ref
    assert group_lists(g.n, g.dst, g.src) == in_ref
    # unsorted keys, repeated pairs, a self-loop and an empty group
    keys, vids = np.array([2, 0, 2, 2, 0]), np.array([1, 3, 0, 1, 0])
    assert group_lists(4, keys, vids) == [[3, 0], [], [1, 0, 1], []]


# sha256 of compute_order(dataset_graph(name), method).tobytes() (int64
# positions) on the six bench graphs. Refactors and speed-ups of the
# reorderers must keep the positions byte-identical.
GOLDEN_POSITIONS = {
    ("degsort", "IC"): "8e577746f76b458bb8a261919839896d3edf789cde9d39a2881305f00c4e6eb2",
    ("degsort", "SK"): "5b0b582836b51631f8faea1f8baa1ee678ece2c1d3663088273b1e92ee7ee875",
    ("degsort", "GL"): "5ac0fc64fd4e1de4a4fdf9e24305310ae4582838bfc74d89aa1838cb1e9d7a0f",
    ("degsort", "WK"): "00fa8e1200b42bdc4a21e783eb0763e5813f6a96cac41b9b588d195234dfd9db",
    ("degsort", "CP"): "6f3a7c9848412900cc9b13fa8a4952d1ba5f43dd768a89b7a6e7bd9b3d963939",
    ("degsort", "LJ"): "9cc53facf77ed9f6b825b329b3897079c07a138bd39de675d8fce717110dd8af",
    ("hubsort", "IC"): "3326752ce37a3ab1130d3992639cc72c10387dd76d1ffec2512787953416889a",
    ("hubsort", "SK"): "9de4e44add6cb51313c88e5d88f846c6da5013fe19d88208bec56f8c81600a43",
    ("hubsort", "GL"): "1214d5e4752d5c9798cbcae7a9bddb6ee96ccf5fb4d948ff4ed2d78a3d227f42",
    ("hubsort", "WK"): "6aa709ed2d92659a564c86fd277ea5bd32648596d28255e21aa95a2090a2a158",
    ("hubsort", "CP"): "8bda7714ba023bf5abf0a9dece116ff7ce01c889fc55086f67671e543eeecb1a",
    ("hubsort", "LJ"): "cb057ece72a2ced7801dc0c31114481c8566a68698c94210877b2c95123ecc6a",
    ("hubcluster", "IC"): "49f5a4ff8f68277ad5e9a48f47f592fabacdc129ab0464ffc0559ccac62cf3fd",
    ("hubcluster", "SK"): "56e90184faa36947d6d00149b6f0ae5bf79048d12a354946eedd484e74a169e7",
    ("hubcluster", "GL"): "9eb0bfb0bf871274e4c58a7f70b2e6f1d43a5e1247c3fb86edf9da4743787340",
    ("hubcluster", "WK"): "76ec693eb877007a04cdefa59e80348010e3c2ab2305bd743706e8b8be4eb915",
    ("hubcluster", "CP"): "aea557fd00f06eecf256d81101d4da44531afba226711c0b2d070d74d4d4db67",
    ("hubcluster", "LJ"): "74bfe3f559ccddee1f7d674a0c5e482cfdd9bad6a4e7a143869e303f85cbc4e1",
    ("gorder", "IC"): "68a40e15f6716585ad2e13504c32871f714f2b44abdbb409eb09167116a20c87",
    ("gorder", "SK"): "19bfed44aa793863c364606ded4a32864d30cccb65694195632d5790ddf8a52d",
    ("gorder", "GL"): "38e54e9f196df9c623ba3fdb5d629ed2573de2b25604d11b1b6207ad21658342",
    ("gorder", "WK"): "984961a81cb18123bbeea2b2d447b82a554605e6195cdd52cc364d2d1974c81a",
    ("gorder", "CP"): "d860123b71719993184c5d92b0c17b54ac44f832c703eba68a3c66de83b9e232",
    ("gorder", "LJ"): "9ab987864c35df5de372162651a72b8b367602a06100fef1e0854b748c3d7995",
    ("rabbit", "IC"): "b9b789376e3b0fbfa6d843b9cb8e81fc1968d469f11b6c772b49b25afe324b03",
    ("rabbit", "SK"): "3157c923b4696bd5541c0fac4a105b8fb9a9357e7b31ea889369c242d3fa9034",
    ("rabbit", "GL"): "5a6c2428d9948e21f6926eff44149c2fe249da54314f1f26162050382a9b3cbc",
    ("rabbit", "WK"): "1a945ac4bb5397a533b6fb99e4c65d1d3bef636081ec519bed7a8583d62d4c76",
    ("rabbit", "CP"): "8a95615fff0f707bc817e1f40b7f712c524b634b7d7dff71ac776e4e7bdbdff9",
    ("rabbit", "LJ"): "85c99f95299ef2576bc5180a80bae9823d1c718bf7599655a8861fb539d6e619",
}


@pytest.mark.parametrize("method, name", sorted(GOLDEN_POSITIONS))
def test_gorder_golden_positions_on_bench_graphs(method, name):
    pos = np.ascontiguousarray(compute_order(dataset_graph(name), method), dtype=np.int64)
    assert hashlib.sha256(pos.tobytes()).hexdigest() == GOLDEN_POSITIONS[method, name]


def test_rabbit_orders_community_members_contiguously():
    g = community_ba_graph(600, 4, comm_size=60, forward_frac=0.5, seed=13)
    pos = compute_order(g, "rabbit")
    spread = float(np.mean(np.abs(pos[g.src] - pos[g.dst])))
    assert spread < g.n / 5
