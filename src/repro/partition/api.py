"""Uniform partitioner API: name → (vid → part id), sizes ≈ target_size.

Community methods (rabbit/louvain) emit variable-size communities;
``cap_sizes`` splits oversized ones along BFS chunks and bin-packs small
ones so GoGraph's per-subgraph `applyInPandas` groups stay bounded.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph, bfs_order
from repro.partition.fennel import fennel_parts
from repro.partition.labelprop import labelprop_communities
from repro.partition.louvain import louvain_communities
from repro.partition.metis_like import metis_like_parts


def cap_sizes(g: LocalGraph, labels: np.ndarray, target_size: int) -> np.ndarray:
    """Normalize community labels into parts of ≤ 2·target_size vertices.

    Oversized communities are split into BFS-contiguous chunks of
    ``target_size``; communities smaller than target_size/4 are greedily
    packed together (preserving whole communities) up to target_size.
    """
    adj = g.undirected_adj()
    groups: dict[int, list[int]] = {}
    for v, l in enumerate(labels.tolist()):
        groups.setdefault(l, []).append(v)

    parts = np.full(g.n, -1, dtype=np.int64)
    next_part = 0
    small: list[list[int]] = []
    for _, vs in sorted(groups.items()):
        if len(vs) > 2 * target_size:
            # BFS-chunk within the community
            order = bfs_order(adj, vs, set(vs))
            parts[order] = next_part + np.arange(len(order)) // target_size
            next_part = int(parts[order[-1]]) + 1
        elif len(vs) < max(1, target_size // 4):
            small.append(vs)
        else:
            parts[vs] = next_part
            next_part += 1
    # bin-pack small communities
    bucket: list[int] = []
    for vs in small:
        if bucket and len(bucket) + len(vs) > target_size:
            parts[bucket] = next_part
            next_part += 1
            bucket = []
        bucket.extend(vs)
    if bucket:
        parts[bucket] = next_part
    assert (parts >= 0).all(), "every vertex must be assigned a part"
    return parts


def partition(
    g: LocalGraph, method: str, *, target_size: int = 256, seed: int = 0
) -> np.ndarray:
    """Partition ``g`` with ``method`` ∈ PARTITIONERS; returns part ids.

    ``seed`` sets the scan order of the community methods (rabbit, louvain).
    """
    if method == "rabbit":
        return cap_sizes(g, labelprop_communities(g, seed=seed), target_size)
    if method == "louvain":
        return cap_sizes(g, louvain_communities(g, seed=seed), target_size)
    if method == "metis":
        return metis_like_parts(g, target_size=target_size)
    if method == "fennel":
        return fennel_parts(g, target_size=target_size)
    raise ValueError(f"unknown partitioner {method!r}")


PARTITIONERS = ("rabbit", "metis", "louvain", "fennel")


def edge_cut(g: LocalGraph, parts: np.ndarray) -> int:
    """Number of edges crossing parts (quality metric for tests/figures)."""
    return int(np.sum(parts[g.src] != parts[g.dst]))
