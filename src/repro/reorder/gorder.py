"""Gorder (Wei et al., SIGMOD'16) — sliding-window locality maximization.

Greedy: repeatedly append the vertex with the highest score w.r.t. the
last ``window`` placed vertices, where score(u, v) counts sibling
relations (common in-neighbors) plus direct edges. We implement the
standard lazy max-heap formulation with incremental score updates as
vertices enter/leave the window; sibling expansion through in-neighbors
with out-degree above ``hub_cap`` is skipped (Gorder's own hub
mitigation), keeping each step near O(d̄²).

Gorder optimizes cache locality, not positive-edge count — the paper's
Table II shows its M/|E| ≈ 0.32 on CP; we reproduce that qualitative gap.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.local import LocalGraph, group_lists, order_to_positions


def gorder(g: LocalGraph, *, window: int = 5, hub_cap: int = 512) -> np.ndarray:
    """Positions (vid → ordinal) under Gorder's greedy window ordering."""
    n = g.n
    out_adj = group_lists(n, g.src, g.dst)  # each list in edge-array order
    in_adj = group_lists(n, g.dst, g.src)
    outdeg = [len(a) for a in out_adj]

    score = [0.0] * n
    placed = [False] * n
    heap: list[tuple[float, int]] = []

    def _bump(v: int, delta: float) -> None:
        if placed[v]:
            return
        score[v] += delta
        if delta > 0:
            heapq.heappush(heap, (-score[v], v))

    def _affect(v: int, delta: float) -> None:
        """Score change of candidates when v enters (+1) / leaves (−1) window."""
        for u in out_adj[v]:
            _bump(u, delta)
        for u in in_adj[v]:
            _bump(u, delta)
        for w in in_adj[v]:  # siblings: share in-neighbor w
            if outdeg[w] > hub_cap:
                continue
            for u in out_adj[w]:
                if u != v:
                    _bump(u, delta)

    deg = g.degree()
    order: list[int] = []
    win: list[int] = []
    # by_deg lists vertices by (degree desc, vid asc); the fallback cursor
    # only moves forward, since placed vertices never become unplaced
    by_deg = np.lexsort((np.arange(n), -deg)).tolist()
    cursor = 0
    pending = n

    v = by_deg[0]
    while True:
        placed[v] = True
        order.append(v)
        pending -= 1
        if pending == 0:
            break
        win.append(v)
        _affect(v, 1.0)
        if len(win) > window:
            old = win.pop(0)
            _affect(old, -1.0)
        # lazy pop: entries are stale if score changed since push
        v = -1
        while heap:
            negs, cand = heapq.heappop(heap)
            if not placed[cand] and -negs == score[cand] and score[cand] > 0:
                v = cand
                break
        if v < 0:  # no scored candidate — pick max-degree unplaced vertex
            while placed[by_deg[cursor]]:
                cursor += 1
            v = by_deg[cursor]

    return order_to_positions(order)
