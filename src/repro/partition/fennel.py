"""Fennel streaming partitioner (Tsourakakis et al., WSDM'14).

Streams vertices in ID order; assigns each to the part maximizing
``|N(v) ∩ P_i| − α·γ·|P_i|^{γ−1}`` with γ=1.5, α=√k·m/n^1.5, under a
1.1·n/k load cap. Being streaming, it decides with partial knowledge —
the paper's Fig 13 shows exactly this makes it the weakest partitioner
inside GoGraph, which we reproduce.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph


def fennel_parts(g: LocalGraph, *, target_size: int) -> np.ndarray:
    """Stream-in-ID-order Fennel assignment into ⌈n/target_size⌉ parts."""
    n = g.n
    k = max(1, -(-n // max(1, target_size)))
    m = max(1, g.n_edges)
    gamma = 1.5
    alpha = np.sqrt(k) * m / max(1.0, n**gamma)
    cap = max(1.0, 1.1 * n / k)
    adj = g.undirected_adj()
    parts = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.float64)
    for v in range(n):
        neigh_in_part = np.zeros(k, dtype=np.float64)
        for u in adj[v]:
            pu = parts[u]
            if pu >= 0:
                neigh_in_part[pu] += 1.0
        score = neigh_in_part - alpha * gamma * np.power(sizes, gamma - 1.0)
        score[sizes >= cap] = -np.inf
        p = int(np.argmax(score))
        parts[v] = p
        sizes[p] += 1.0
    return parts
