"""Rabbit order (Arai et al., IPDPS'16) stand-in.

Rabbit hierarchically merges communities and lays vertices out by a DFS
of the merge dendrogram, packing tightly-connected vertices into the
same cache lines. We reproduce the layout property with
label-propagation communities ordered by descending size, BFS-ordered
within each community — locality-oriented, order-of-positive-edges
agnostic (its M/|E| lands near 0.5, like the paper's Rabbit row).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph, bfs_order, order_to_positions
from repro.partition.labelprop import labelprop_communities


def rabbit_order(g: LocalGraph, *, seed: int = 0) -> np.ndarray:
    """Positions under community-clustered BFS layout."""
    labels = labelprop_communities(g, seed=seed)
    adj = g.undirected_adj()
    groups: dict[int, list[int]] = {}
    for v, l in enumerate(labels.tolist()):
        groups.setdefault(l, []).append(v)
    order: list[int] = []
    for _, vs in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        order += bfs_order(adj, sorted(vs, key=lambda v: -len(adj[v])), set(vs))
    return order_to_positions(order)
