"""Rabbit-Partition stand-in: label-propagation communities + size capping.

Rabbit order's partitioning phase hierarchically merges vertices into
cache-sized communities. We reproduce the property GoGraph needs — many
intra-subgraph edges, few inter-subgraph edges, bounded subgraph size —
with synchronous-ish label propagation over the undirected graph,
followed by :func:`repro.partition.api.cap_sizes` (split oversized
communities by BFS chunks, bin-pack small ones). See DESIGN.md §4.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph


def labelprop_communities(
    g: LocalGraph, *, iters: int = 8, seed: int = 0
) -> np.ndarray:
    """Community label per vertex via asynchronous label propagation.

    Vertices adopt the most frequent label among undirected neighbors
    (ties → smallest label) in a seeded random scan order; deterministic
    in ``seed``.
    """
    rng = np.random.default_rng(seed)
    adj = g.undirected_adj()
    labels = list(range(g.n))
    order = np.arange(g.n)
    for _ in range(iters):
        rng.shuffle(order)
        changed = 0
        for v in order.tolist():
            if not adj[v]:
                continue
            counts: dict[int, int] = {}
            for u in adj[v]:
                lu = labels[u]
                counts[lu] = counts.get(lu, 0) + 1
            top = max(counts.values())
            best = min(lu for lu, c in counts.items() if c == top)
            if best != labels[v]:
                labels[v] = best
                changed += 1
        if changed == 0:
            break
    return np.array(labels, dtype=np.int64)
