"""Memory-access traces of iterative computation under a vertex order.

PageRank's inner loop reads, for each vertex v in processing order, the
states of v's in-neighbors and then writes v's own state. States live in
an array indexed by *position* (reordering relabels the layout — that is
the whole point of locality-oriented methods), 8 bytes per state, 64
bytes per line.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.local import LocalGraph

STATE_BYTES = 8
LINE_BYTES = 64
STATES_PER_LINE = LINE_BYTES // STATE_BYTES


def pagerank_trace(g: LocalGraph, positions: np.ndarray) -> np.ndarray:
    """Cache-line trace of one PageRank sweep in ``positions`` order.

    The vertex at position p reads its in-neighbours' lines (in edge
    order), then writes its own line. So in-edge j, counted in order of
    destination position, lands at slot ``j + p``, and p's own line at the
    number of in-edges up to and including p, plus p.
    """
    p_dst = positions[g.dst]
    by_dst = np.argsort(p_dst, kind="stable")
    out = np.empty(g.n_edges + g.n, dtype=np.int64)
    src_line = positions[g.src[by_dst]] // STATES_PER_LINE
    out[np.arange(g.n_edges) + p_dst[by_dst]] = src_line
    p = np.arange(g.n)
    out[np.cumsum(np.bincount(p_dst, minlength=g.n)) + p] = p // STATES_PER_LINE
    return out
