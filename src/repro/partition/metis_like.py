"""METIS stand-in: BFS-chunk balanced partitioning.

METIS produces balanced parts with low edge-cut via multilevel k-way
refinement. The property GoGraph consumes is "balanced + locality-aware";
chunking a breadth-first traversal of the undirected graph into equal
contiguous slices gives exactly that (neighbors land in the same or
adjacent chunks), at a fraction of the complexity. DESIGN.md §4.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph, bfs_order, order_to_positions


def metis_like_parts(g: LocalGraph, *, target_size: int) -> np.ndarray:
    """Balanced parts of ~``target_size`` via BFS chunking.

    The undirected BFS covers every component, starting each new one from
    the highest-degree unvisited vertex (ties → smaller vid).
    """
    adj = g.undirected_adj()
    order = bfs_order(adj, sorted(range(g.n), key=lambda v: -len(adj[v])))
    return order_to_positions(order) // max(1, target_size)
