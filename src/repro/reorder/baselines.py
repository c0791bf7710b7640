"""Lightweight reordering baselines (paper §V-A competitors).

All return *positions* (vid → ordinal, a permutation of 0..n−1).

* Default       — original IDs.
* Degree Sorting— vertices by descending total degree.
* Hub Sorting   — hubs (degree > average) sorted by descending degree at
                  the front; non-hubs keep their original relative order.
* Hub Clustering— hubs at the front in original relative order (no sort);
                  non-hubs after, original relative order.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph, order_to_positions


def default_order(g: LocalGraph) -> np.ndarray:
    """Original-ID processing order."""
    return np.arange(g.n, dtype=np.int64)


def degree_sort(g: LocalGraph) -> np.ndarray:
    """Descending total degree (ties → smaller vid first)."""
    order = np.lexsort((np.arange(g.n), -g.degree()))
    return order_to_positions(order)


def hub_sort(g: LocalGraph) -> np.ndarray:
    """Hubs (deg > avg) sorted desc at front; non-hubs keep relative order."""
    deg = g.degree()
    hubs = deg > deg.mean()
    hub_ids = np.flatnonzero(hubs)
    hub_order = hub_ids[np.lexsort((hub_ids, -deg[hub_ids]))]
    rest = np.flatnonzero(~hubs)
    return order_to_positions(np.concatenate([hub_order, rest]))


def hub_cluster(g: LocalGraph) -> np.ndarray:
    """Hubs at front in original relative order; non-hubs after."""
    deg = g.degree()
    hubs = deg > deg.mean()
    return order_to_positions(
        np.concatenate([np.flatnonzero(hubs), np.flatnonzero(~hubs)])
    )
