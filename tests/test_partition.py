"""Tests for the graph partitioners (GoGraph divide phase, Fig 13)."""
import hashlib

import numpy as np
import pytest

from repro.graphs.gen import community_ba_graph, dataset_graph
from repro.graphs.local import bfs_order
from repro.partition.api import PARTITIONERS, cap_sizes, edge_cut, partition
from repro.partition.labelprop import labelprop_communities


@pytest.mark.parametrize("method", PARTITIONERS)
@pytest.mark.parametrize("name", ["IC", "CP"])
def test_every_vertex_assigned(method, name):
    g = dataset_graph(name, scale=0.1)
    parts = partition(g, method, target_size=64)
    assert len(parts) == g.n
    assert (parts >= 0).all()


@pytest.mark.parametrize("method", PARTITIONERS)
def test_deterministic(method):
    g = dataset_graph("IC", scale=0.1)
    assert np.array_equal(
        partition(g, method, target_size=64), partition(g, method, target_size=64)
    )


@pytest.mark.parametrize("method", ["rabbit", "louvain"])
def test_community_methods_bound_part_sizes(method):
    g = dataset_graph("CP", scale=0.1)
    parts = partition(g, method, target_size=64)
    sizes = np.bincount(parts)
    assert sizes.max() <= 2 * 64


def test_metis_like_balanced():
    g = dataset_graph("CP", scale=0.1)
    parts = partition(g, "metis", target_size=64)
    sizes = np.bincount(parts)
    assert sizes.max() <= 64
    assert sizes.min() >= 1


def test_fennel_respects_load_cap():
    g = dataset_graph("CP", scale=0.1)
    parts = partition(g, "fennel", target_size=64)
    sizes = np.bincount(parts, minlength=parts.max() + 1)
    k = -(-g.n // 64)
    assert sizes.max() <= int(1.1 * g.n / k) + 1


@pytest.mark.parametrize("method", ["rabbit", "louvain", "metis"])
def test_cut_better_than_random(method):
    """Locality-aware partitioners must beat a random assignment."""
    g = community_ba_graph(1200, 4, comm_size=60, seed=3)
    parts = partition(g, method, target_size=80)
    rng = np.random.default_rng(0)
    k = parts.max() + 1
    rand_cuts = [
        edge_cut(g, rng.integers(0, k, size=g.n)) for _ in range(3)
    ]
    assert edge_cut(g, parts) < min(rand_cuts)


def test_fennel_worse_than_community_methods():
    """Fig 13 mechanism: streaming Fennel has higher edge-cut."""
    g = community_ba_graph(1200, 4, comm_size=60, seed=4)
    cut_fennel = edge_cut(g, partition(g, "fennel", target_size=80))
    cut_rabbit = edge_cut(g, partition(g, "rabbit", target_size=80))
    assert cut_rabbit < cut_fennel


def test_labelprop_converges_to_communities():
    g = community_ba_graph(800, 4, comm_size=80, seed=5)
    labels = labelprop_communities(g, seed=0)
    n_comms = len(set(labels.tolist()))
    assert 2 <= n_comms < g.n / 4  # nontrivial grouping


def test_cap_sizes_splits_oversized():
    g = community_ba_graph(600, 4, comm_size=600, seed=6)
    labels = np.zeros(g.n, dtype=np.int64)  # everything one community
    parts = cap_sizes(g, labels, target_size=64)
    sizes = np.bincount(parts)
    assert sizes.max() <= 2 * 64
    assert (parts >= 0).all()


def test_cap_sizes_packs_small():
    from repro.graphs.local import LocalGraph

    # 30 isolated vertices, each its own community → packed together
    g = LocalGraph(
        n=30,
        src=np.array([], dtype=np.int64),
        dst=np.array([], dtype=np.int64),
        w=np.array([]),
    )
    parts = cap_sizes(g, np.arange(30), target_size=16)
    assert np.bincount(parts).max() <= 16
    assert parts.max() + 1 <= 3


def test_bfs_order_covers_all_vertices():
    g = dataset_graph("IC", scale=0.1)
    order = bfs_order(g.undirected_adj(), range(g.n))
    assert sorted(order) == list(range(g.n))


def test_bfs_order_enqueues_in_adj_order_and_stays_in_members():
    # 0 - 1 - 2 - 3 path plus 0 - 4; the walk from 3 must not cross into 0
    adj = {0: [4, 1], 1: [0, 2], 2: [1, 3], 3: [2], 4: [0]}
    assert bfs_order(adj, [0]) == [0, 4, 1, 2, 3]
    assert bfs_order(adj, [3, 4], members={1, 2, 3, 4}) == [3, 2, 1, 4]


# sha256 of partition(dataset_graph(name), method).tobytes() (int64 part ids,
# default target size) on the six bench graphs. Refactors of the
# partitioners must keep the parts byte-identical.
GOLDEN_PARTS = {
    ("rabbit", "IC"): "6232629b43f103c2308f41d93e8c328c2d84a3a6b9992b5dda2142c5dd8c619e",
    ("rabbit", "SK"): "37172d1f19b0f14627294859d6a663d00e58e2f4e9be041aeb05c1ba34a87ad4",
    ("rabbit", "GL"): "56fda12bbcf2d72701ea85bcf6d53fc861463c369f6842410e4adbeeedc7878c",
    ("rabbit", "WK"): "dc58a6cbee0910e5162eb1224c909a845343cb3fdd38b6a372bb1ddc095479e4",
    ("rabbit", "CP"): "4cf0c20ef0d66c6fa5d9e335c7e0d6b2bce7fece9aff02adaed0da1231ef01ec",
    ("rabbit", "LJ"): "d079665355e6681cafebb8a4c8547e34e632e484dfed11059cf74c8d58ee9c2e",
    ("metis", "IC"): "c6a721796d87630960de41cd359a5b5956e27e183534d955feb0f36b9a744ed6",
    ("metis", "SK"): "3dd01f8006efb4755ee84196df1e5c7598cd5170d51a257c1bc8c81a6e6dd86e",
    ("metis", "GL"): "4fa7d09c8151d7e38b4b5db628b1df2428e94fa5fc784fea84d1c66c2a6ae758",
    ("metis", "WK"): "f50c409e89a071b2e58efb679bddcaf1d1914274c964f024147c4817d484b70a",
    ("metis", "CP"): "bf7bf0dd3f053fffba0d100bd2570f65d48a46335fa4d8864fef5bfe625c9444",
    ("metis", "LJ"): "e8df098cc22028c128e149f05ed4a67491bea187b4d34f64aa7b9b71c04eb0f9",
    ("louvain", "IC"): "92c96f7b524f105f6fe8f059bad755feed93ed26ee593af75fcc7d4a9b192b4e",
    ("louvain", "SK"): "3ffebb42e1058c2415783bc414ef3b51baec6fc6f9ef888eedd74f0a748af9b1",
    ("louvain", "GL"): "996e0aa1866404336a3103142a6395e87d5a459560458fd1f3509b7acc236d2e",
    ("louvain", "WK"): "84f532f425c3478e2eb236b24c43e848a1ec7cb40187879f5b1f95ec96aa01bb",
    ("louvain", "CP"): "360428df4616a976d0fce79ba2a3c424638d7e5f636c0ef101951ced7e640223",
    ("louvain", "LJ"): "c7522e2ed213e8a99be372c757a48e0fece283c0651e2434cef11fc68ee697b7",
    ("fennel", "IC"): "076daeef98679587a109d084cc3d5b84bb752628d32f732fcfe530a22bc5faa8",
    ("fennel", "SK"): "b90433407997dda7cdb83fd98c297ca5fc208e73f8f7e90b9025a9cf0523274d",
    ("fennel", "GL"): "3ecda5c76db46e91d45df3b87fc6ebfc4901ee7ebee4938cd97765ff69e22a24",
    ("fennel", "WK"): "744d2a665bf076b36129691b6a76d2bdb36670054201a6aad19e7a18c1f586d9",
    ("fennel", "CP"): "26c31fd95fc14269ae82ec30dc8e3a0cc11b10204d2a5cbc45318a948b25235c",
    ("fennel", "LJ"): "ca3cd04a4461ec30c5b66cfacf852f29f1a6a9b596d5b6e2b158343b51826f43",
}


@pytest.mark.parametrize("method, name", sorted(GOLDEN_PARTS))
def test_golden_parts_on_bench_graphs(method, name):
    parts = np.ascontiguousarray(partition(dataset_graph(name), method), dtype=np.int64)
    assert hashlib.sha256(parts.tobytes()).hexdigest() == GOLDEN_PARTS[method, name]


def test_unknown_partitioner_raises():
    g = dataset_graph("IC", scale=0.1)
    with pytest.raises(ValueError):
        partition(g, "spectral")


def test_edge_cut_extremes():
    g = dataset_graph("IC", scale=0.1)
    assert edge_cut(g, np.zeros(g.n, dtype=np.int64)) == 0
    assert edge_cut(g, np.arange(g.n)) == int((g.src != g.dst).sum())


def test_partition_edge_weights_via_duckdb_oracle(spark):
    """Inter-part edge weights (super-edges) cross-checked in DuckDB."""
    import pandas as pd
    from pyspark.sql import functions as F

    from repro.graphs.gen import edges_to_spark
    from repro.oracle import assert_equivalent

    g = dataset_graph("IC", scale=0.1)
    parts = partition(g, "rabbit", target_size=32)
    edf = edges_to_spark(spark, g)
    pmap = spark.createDataFrame(
        pd.DataFrame({"vid": np.arange(g.n), "part": parts})
    )
    sup = (
        edf.join(pmap.select(F.col("vid").alias("src"), F.col("part").alias("ps")), "src")
        .join(pmap.select(F.col("vid").alias("dst"), F.col("part").alias("pd")), "dst")
        .where(F.col("ps") != F.col("pd"))
        .groupBy("ps", "pd")
        .agg(F.count("*").alias("w"))
    )
    assert_equivalent(
        sup,
        """
        SELECT p1.part AS ps, p2.part AS pd, COUNT(*) AS w
        FROM edges e JOIN pmap p1 ON e.src = p1.vid JOIN pmap p2 ON e.dst = p2.vid
        WHERE p1.part <> p2.part GROUP BY 1, 2
        """,
        edges=pd.DataFrame({"src": g.src, "dst": g.dst}),
        pmap=pd.DataFrame({"vid": np.arange(g.n), "part": parts}),
    )
