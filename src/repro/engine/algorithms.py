"""Monotonic iterative graph algorithms (paper §II, §III).

Each algorithm is an :class:`Algo`: a per-vertex update of the form

* ``sum``  : x_v = base_v + Σ_{(u,v)} coef(u,v) · x_u      (PageRank, PHP)
* ``min``  : x_v = min(x_v, min_{(u,v)} x_u + param(u,v))  (SSSP, BFS, CC)
* ``maxmin``: x_v = max(x_v, max_{(u,v)} min(x_u, param))  (SSWP)

All are monotone in the sense of Eq. 3, so Gauss–Seidel sweeps (Eq. 2)
converge to the same fixpoint as Jacobi (Eq. 1) in no more rounds —
the property GoGraph exploits.

``prepare(g)`` precomputes per-edge parameters (e.g. d/|OUT(u)| for
PageRank) and initial state; the same prepared form feeds the local
reference engine, the Spark sync engine and the Spark async engine.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.local import LocalGraph

INF = float("inf")


@dataclass(frozen=True)
class Prepared:
    """Algorithm instantiated on a concrete graph."""

    kind: str  # 'sum' | 'min' | 'maxmin'
    init: np.ndarray  # initial state per vertex (float64)
    base: np.ndarray  # additive base per vertex (sum-kind only)
    param: np.ndarray  # per-edge parameter aligned with g.src/g.dst
    fixed: dict[int, float]  # vertices whose state is clamped (e.g. PHP source)
    tol: float  # convergence threshold on max |Δx| per round
    graph: LocalGraph | None = None  # edge arrays ``param`` aligns with, if not g's


@dataclass(frozen=True)
class Algo:
    """Named algorithm + its instantiation rule."""

    name: str
    kind: str
    needs_source: bool
    _prep: callable = field(repr=False)

    def prepare(self, g: LocalGraph, source: int | None = None) -> Prepared:
        if self.needs_source and source is None:
            source = g.highest_out_degree_vertex()
        return self._prep(g, source)


def _pagerank(g: LocalGraph, _src, d: float = 0.85) -> Prepared:
    outdeg = np.maximum(g.out_degree(), 1)
    return Prepared(
        kind="sum",
        init=np.zeros(g.n),
        base=np.full(g.n, 1.0 - d),
        param=d / outdeg[g.src],
        fixed={},
        tol=1e-6,
    )


def _php(g: LocalGraph, source: int, c: float = 0.85) -> Prepared:
    outw = np.maximum(g.out_weight(), 1e-12)
    init = np.zeros(g.n)
    init[source] = 1.0
    return Prepared(
        kind="sum",
        init=init,
        base=np.zeros(g.n),
        param=c * g.w / outw[g.src],
        fixed={source: 1.0},
        tol=1e-6,
    )


def _sssp(g: LocalGraph, source: int) -> Prepared:
    init = np.full(g.n, INF)
    init[source] = 0.0
    return Prepared(
        kind="min", init=init, base=np.zeros(g.n), param=g.w, fixed={}, tol=0.0
    )


def _bfs(g: LocalGraph, source: int) -> Prepared:
    init = np.full(g.n, INF)
    init[source] = 0.0
    return Prepared(
        kind="min",
        init=init,
        base=np.zeros(g.n),
        param=np.ones(g.n_edges),
        fixed={},
        tol=0.0,
    )


def _cc(g: LocalGraph, _src) -> Prepared:
    # Weakly-connected components: propagate min label along *symmetrized*
    # edges. The engines consume the prepared edge arrays, so symmetrize here.
    src = np.concatenate([g.src, g.dst])
    dst = np.concatenate([g.dst, g.src])
    g2 = LocalGraph(n=g.n, src=src, dst=dst, w=np.zeros(len(src)), name=g.name)
    return Prepared(
        kind="min",
        init=np.arange(g.n, dtype=np.float64),
        base=np.zeros(g.n),
        param=np.zeros(2 * g.n_edges),
        fixed={},
        tol=0.0,
        graph=g2,
    )


def _sswp(g: LocalGraph, source: int) -> Prepared:
    init = np.zeros(g.n)
    init[source] = INF
    return Prepared(
        kind="maxmin",
        init=init,
        base=np.zeros(g.n),
        param=g.w,
        fixed={source: INF},
        tol=0.0,
    )


ALGOS: dict[str, Algo] = {
    "pagerank": Algo("pagerank", "sum", False, _pagerank),
    "php": Algo("php", "sum", True, _php),
    "sssp": Algo("sssp", "min", True, _sssp),
    "bfs": Algo("bfs", "min", True, _bfs),
    "cc": Algo("cc", "min", False, _cc),
    "sswp": Algo("sswp", "maxmin", True, _sswp),
}


def make_algo(name: str) -> Algo:
    """Look up an algorithm spec by name (pagerank/php/sssp/bfs/cc/sswp)."""
    return ALGOS[name]


def effective_graph(g: LocalGraph, prep: Prepared) -> LocalGraph:
    """Graph whose edge arrays align with ``prep.param`` (CC symmetrizes)."""
    return prep.graph if prep.graph is not None else g
