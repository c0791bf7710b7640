"""Louvain stand-in: single-level local-move modularity optimization.

Full Louvain is multilevel; GoGraph only consumes the community
assignment, so one level of modularity-gain local moves (the inner loop
of Louvain phase 1) preserves the relevant behaviour: communities chosen
by modularity rather than plain label frequency.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph


def louvain_communities(
    g: LocalGraph, *, iters: int = 8, seed: int = 0
) -> np.ndarray:
    """Community labels via modularity-gain local moves (one Louvain level)."""
    rng = np.random.default_rng(seed)
    adj = g.undirected_adj()
    deg = [float(len(a)) for a in adj]
    two_m = max(sum(deg), 1.0)
    labels = list(range(g.n))
    comm_deg = deg.copy()  # Σ degrees per community (labels start singleton)
    order = np.arange(g.n)
    for _ in range(iters):
        rng.shuffle(order)
        moved = 0
        for v in order.tolist():
            if not adj[v]:
                continue
            lv = labels[v]
            # edges from v into each neighboring community
            k_in: dict[int, float] = {}
            for u in adj[v]:
                lu = labels[u]
                k_in[lu] = k_in.get(lu, 0.0) + 1.0
            comm_deg[lv] -= deg[v]
            best_l, best_gain = lv, k_in.get(lv, 0.0) - comm_deg[lv] * deg[v] / two_m
            for l, kin in k_in.items():
                gain = kin - comm_deg[l] * deg[v] / two_m
                if gain > best_gain + 1e-12 or (
                    abs(gain - best_gain) <= 1e-12 and l < best_l
                ):
                    best_l, best_gain = l, gain
            comm_deg[best_l] += deg[v]
            if best_l != lv:
                labels[v] = best_l
                moved += 1
        if moved == 0:
            break
    return np.array(labels, dtype=np.int64)
