"""GoGraph (paper Algorithm 1): divide-and-conquer vertex reordering.

Phases (§IV-A):

1. *Divide*: extract high-degree vertices (top ``hd_frac`` by total
   degree) and the vertices isolated by their removal; partition the
   remainder into subgraphs of ~``target_size`` vertices.
2. *Conquer*: inside each subgraph, insert vertices one at a time (BFS
   selection from a min-in-degree seed) at the position maximizing the
   positive-edge count (:func:`repro.core.insertion.get_opt_val`),
   encoding positions as float ``val``s.
3. *Combine*: treat subgraphs as super-vertices with weighted edges
   (inter-subgraph edge counts), order them the same way, then decompress
   by shifting each subgraph's vals past the previous subgraph's max
   (Algorithm 1 lines 21–29, made robust to negative vals — DESIGN.md §4).
4. Insert high-degree then isolated vertices into the global order.

Two entry points share one pipeline and differ only in where the conquer
phase runs: :func:`gograph_order` (pure local, used by the big experiment
sweeps) and :func:`gograph_positions_spark` (distributed via
``groupBy(part).applyInPandas``; tests assert identical positions).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.insertion import get_opt_val
from repro.core.metric import positions_to_spark
from repro.graphs.local import LocalGraph, bfs_order, order_to_positions
from repro.partition.api import partition

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

HD_FRAC_DEFAULT = 0.002  # paper: "extract the top 0.2% vertices"


def reorder_subgraph(
    vids: list[int],
    edges: list[tuple[int, int, float]],
    selection: str = "bfs",
) -> dict[int, float]:
    """Conquer phase for one (sub)graph: vid → val.

    ``edges`` are intra-subgraph weighted edges (weight 1 for ordinary
    vertices; inter-subgraph counts when vids are super-vertices).
    ``selection`` picks the candidate order: ``bfs`` (paper §IV-A, from
    min-in-degree seeds, gives locality) or ``id`` (plain vid order —
    used by the Fig 10 "without partitioning" ablation, where no
    subgraph-local BFS frontier exists). Deterministic regardless of
    input row order.
    """
    vids = sorted(set(vids))
    # per-vertex directed neighbor weights
    w_in: dict[int, dict[int, float]] = {v: {} for v in vids}
    w_out: dict[int, dict[int, float]] = {v: {} for v in vids}
    und: dict[int, set[int]] = {v: set() for v in vids}
    indeg: dict[int, int] = {v: 0 for v in vids}
    for s, d, w in sorted(edges):
        if s == d:
            continue
        w_out[s][d] = w_out[s].get(d, 0.0) + w
        w_in[d][s] = w_in[d].get(s, 0.0) + w
        und[s].add(d)
        und[d].add(s)
        indeg[d] += 1

    cand = vids
    if selection == "bfs":  # BFS from min-in-degree seeds (paper §IV-A)
        cand = bfs_order(
            {v: sorted(und[v]) for v in vids}, sorted(vids, key=lambda v: (indeg[v], v))
        )
    return _insert_greedily(cand, und, w_in, w_out, {})


def _insert_greedily(cand, nbrs_of, w_in, w_out, vals: dict[int, float]) -> dict[int, float]:
    """Give each candidate in turn the val ``get_opt_val`` picks among its
    placed neighbours ``nbrs_of[v]`` (listed in the order that breaks its
    ties; ``w_in[v][u]``/``w_out[v][u]`` weigh edge u→v/v→u). Extends and
    returns ``vals``."""
    cur_max = max(vals.values(), default=-1.0)
    for v in cand:
        wi, wo = w_in[v], w_out[v]
        nbrs = [(vals[u], wi.get(u, 0.0), wo.get(u, 0.0)) for u in nbrs_of[v] if u in vals]
        val, _ = get_opt_val(nbrs, empty_val=cur_max + 1.0)
        vals[v] = val
        cur_max = max(cur_max, val)
    return vals


def _split_graph(
    g: LocalGraph, hd_frac: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Divide phase: (hd_mask, iso_mask, core_src, core_dst) over E'."""
    deg = g.degree()
    k_hd = max(1, int(math.ceil(hd_frac * g.n)))
    # top-k by degree, ties → smaller vid (stable argsort on -deg)
    hd = np.argsort(-deg, kind="stable")[:k_hd]
    hd_mask = np.zeros(g.n, dtype=bool)
    hd_mask[hd] = True
    keep = ~hd_mask[g.src] & ~hd_mask[g.dst]
    core_src, core_dst = g.src[keep], g.dst[keep]
    touched = np.zeros(g.n, dtype=bool)
    touched[core_src] = True
    touched[core_dst] = True
    iso_mask = ~hd_mask & ~touched
    return hd_mask, iso_mask, core_src, core_dst


def _order_supers_and_offsets(
    part_vids: dict[int, list[int]],
    vals: dict[int, float],
    src_part: np.ndarray,
    dst_part: np.ndarray,
) -> dict[int, float]:
    """Combine phase: order super-vertices, return global vid → val.

    ``src_part``/``dst_part`` are the parts of each core edge's endpoints.
    """
    # weighted super edges (inter-part edge counts)
    cross = src_part != dst_part
    sedges, counts = np.unique(
        np.stack((src_part[cross], dst_part[cross]), axis=1), axis=0, return_counts=True
    )
    part_ids = sorted(part_vids)
    svals = reorder_subgraph(
        part_ids, [(a, b, float(c)) for (a, b), c in zip(sedges.tolist(), counts.tolist())]
    )
    # decompress: shift each part's vals past the previous part's max
    out: dict[int, float] = {}
    offset = 0.0
    for p in sorted(part_ids, key=lambda q: (svals[q], q)):
        vs = part_vids[p]
        lo = min(vals[v] for v in vs)
        hi = max(vals[v] for v in vs)
        for v in vs:
            out[v] = vals[v] - lo + offset
        offset += (hi - lo) + 1.0
    return out


def _insert_remaining(
    g: LocalGraph,
    vals: dict[int, float],
    hd_mask: np.ndarray,
    iso_mask: np.ndarray,
) -> dict[int, float]:
    """Insert high-degree (degree-descending) then isolated vertices."""
    deg = g.degree()
    hd_list = sorted(np.flatnonzero(hd_mask).tolist(), key=lambda v: (-deg[v], v))
    cand = hd_list + sorted(np.flatnonzero(iso_mask).tolist())
    w_in: dict[int, dict[int, float]] = {v: {} for v in cand}
    w_out: dict[int, dict[int, float]] = {v: {} for v in cand}
    special = hd_mask | iso_mask
    out_e, in_e = special[g.src], special[g.dst]
    for s, d in zip(g.src[out_e].tolist(), g.dst[out_e].tolist()):
        w_out[s][d] = w_out[s].get(d, 0.0) + 1.0
    for s, d in zip(g.src[in_e].tolist(), g.dst[in_e].tolist()):
        w_in[d][s] = w_in[d].get(s, 0.0) + 1.0
    nbrs_of = {v: sorted((w_in[v].keys() | w_out[v].keys()) - {v}) for v in cand}
    return _insert_greedily(cand, nbrs_of, w_in, w_out, vals)


def _vals_to_positions(n: int, vals: dict[int, float]) -> np.ndarray:
    """vid → ordinal by ascending (val, vid) (Algorithm 1 line 36)."""
    arr = np.full(n, np.inf)
    for v, x in vals.items():
        arr[v] = x
    return order_to_positions(np.lexsort((np.arange(n), arr)))


def _pipeline(
    g: LocalGraph,
    conquer,
    partitioner: str,
    hd_frac: float,
    target_size: int,
    seed: int,
    partitioned: bool,
) -> np.ndarray:
    """Algorithm 1: split → partition → conquer → combine → insert.

    ``conquer(part_vids, part_edges)`` returns vid → val for every core
    vertex; it is the one step that may run off the driver.
    """
    hd_mask, iso_mask, core_src, core_dst = _split_graph(g, hd_frac)
    core_vids = np.flatnonzero(~hd_mask & ~iso_mask)

    vals: dict[int, float] = {}
    if len(core_vids) and not partitioned:
        vals = reorder_subgraph(
            core_vids.tolist(),
            list(zip(core_src.tolist(), core_dst.tolist(), [1.0] * len(core_src))),
            selection="id",
        )
    elif len(core_vids):
        src_part, dst_part, part_vids, part_edges = _partition_core(
            g, core_vids, core_src, core_dst, partitioner, target_size, seed
        )
        vals = conquer(part_vids, part_edges)
        vals = _order_supers_and_offsets(part_vids, vals, src_part, dst_part)
    vals = _insert_remaining(g, vals, hd_mask, iso_mask)
    return _vals_to_positions(g.n, vals)


def _conquer_local(
    part_vids: dict[int, list[int]], part_edges: dict[int, list[tuple[int, int, float]]]
) -> dict[int, float]:
    vals: dict[int, float] = {}
    for p, vids in part_vids.items():
        vals.update(reorder_subgraph(vids, part_edges.get(p, [])))
    return vals


def gograph_order(
    g: LocalGraph,
    *,
    partitioner: str = "rabbit",
    hd_frac: float = HD_FRAC_DEFAULT,
    target_size: int = 256,
    seed: int = 0,
    partitioned: bool = True,
) -> np.ndarray:
    """GoGraph positions (vid → ordinal), fully local.

    ``partitioned=False`` is the Fig 10 ablation: the divide phase is
    skipped entirely — the whole core graph is one subgraph and
    candidates are inserted in ID order (no subgraph-local BFS).
    """
    return _pipeline(
        g, _conquer_local, partitioner, hd_frac, target_size, seed, partitioned
    )


def _partition_core(
    g: LocalGraph,
    core_vids: np.ndarray,
    core_src: np.ndarray,
    core_dst: np.ndarray,
    partitioner: str,
    target_size: int,
    seed: int,
):
    """Partition the induced core subgraph.

    Returns each core edge's source and destination part, each part's
    vids (ascending) and each part's intra-part edges (in edge order).
    """
    # core_vids is sorted, so searchsorted is the vid → index remap
    sub_src = np.searchsorted(core_vids, core_src)
    sub_dst = np.searchsorted(core_vids, core_dst)
    # the core graph is built inline and never bound to a name, so it and its
    # adjacency lists are freed before the part maps below are built
    parts = partition(
        LocalGraph(len(core_vids), sub_src, sub_dst, np.ones(len(core_src)), f"{g.name}-core"),
        partitioner,
        target_size=target_size,
        seed=seed,
    )
    part_vids: dict[int, list[int]] = {}
    for v, p in zip(core_vids.tolist(), parts.tolist()):
        part_vids.setdefault(p, []).append(v)
    src_part, dst_part = parts[sub_src], parts[sub_dst]
    intra = src_part == dst_part
    part_edges: dict[int, list[tuple[int, int, float]]] = {}
    for p, s, d in zip(
        src_part[intra].tolist(), core_src[intra].tolist(), core_dst[intra].tolist()
    ):
        part_edges.setdefault(p, []).append((s, d, 1.0))
    return src_part, dst_part, part_vids, part_edges


def gograph_positions_spark(
    spark: SparkSession,
    edges_df: DataFrame,
    n: int,
    *,
    partitioner: str = "rabbit",
    hd_frac: float = HD_FRAC_DEFAULT,
    target_size: int = 256,
    seed: int = 0,
) -> DataFrame:
    """GoGraph with the conquer phase as ``groupBy(part).applyInPandas``.

    Returns DataFrame(vid long, pos long); positions are identical to
    :func:`gograph_order` (asserted in tests).
    """
    import pandas as pd

    from repro.graphs.local import to_local

    def _conquer_spark(part_vids, part_edges) -> dict[int, float]:
        # one pandas group per subgraph
        rows = []
        for p, vids in part_vids.items():
            for v in vids:
                rows.append((p, v, -1, 0.0))  # vertex marker row
            for s, d, w in part_edges.get(p, []):
                rows.append((p, s, d, w))
        in_df = spark.createDataFrame(
            pd.DataFrame(rows, columns=["part", "src", "dst", "w"])
        )

        def _conquer(pdf: pd.DataFrame) -> pd.DataFrame:
            part = int(pdf["part"].iloc[0])
            vids = pdf.loc[pdf["dst"] < 0, "src"].astype(int).tolist()
            edges = [
                (int(r.src), int(r.dst), float(r.w))
                for r in pdf[pdf["dst"] >= 0].itertuples()
            ]
            vv = reorder_subgraph(vids, edges)
            return pd.DataFrame(
                {"vid": list(vv.keys()), "val": list(vv.values()), "part": part}
            )

        out = (
            in_df.groupBy("part")
            .applyInPandas(_conquer, "vid long, val double, part long")
            .toPandas()
        )
        return dict(zip(out["vid"].astype(int), out["val"].astype(float)))

    g = to_local(edges_df, n=n, name="spark-in")
    pos = _pipeline(g, _conquer_spark, partitioner, hd_frac, target_size, seed, True)
    return positions_to_spark(spark, pos)
