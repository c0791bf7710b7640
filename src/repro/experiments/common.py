"""Shared experiment plumbing: graph loading, order computation, runs.

Scales: ``bench`` (DESIGN.md §2 stand-in sizes, used by benchmarks/jobs)
and ``test`` (10× smaller, used by smoke tests of the harnesses).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.algorithms import make_algo
from repro.engine.reference import RunResult, gauss_seidel, jacobi
from repro.graphs.gen import dataset_graph
from repro.graphs.local import LocalGraph
from repro.reorder.api import METHODS, assert_permutation, compute_order

if TYPE_CHECKING:
    import pandas as pd

SCALES = {"bench": 1.0, "test": 0.1}
TABLE2_ALGOS = ("pagerank", "sssp", "bfs", "php")
GRAPHS = ("IC", "SK", "GL", "WK", "CP", "LJ")


def load_graph(name: str, scale: str = "bench") -> LocalGraph:
    """Stand-in dataset by paper abbreviation at a named scale."""
    return dataset_graph(name, scale=SCALES[scale])


def order_for(g: LocalGraph, method: str, **kw) -> np.ndarray:
    """Positions for a reorder method, permutation-checked."""
    pos = compute_order(g, method, **kw)
    assert_permutation(pos, g.n)
    return pos


def require_converged(r: RunResult, algo_name: str, max_rounds: int) -> RunResult:
    """A run stopped at its cap has no round count to report: refuse it."""
    if not r.converged:
        raise RuntimeError(
            f"{algo_name} did not converge within max_rounds={max_rounds}"
        )
    return r


def run_async(g: LocalGraph, algo_name: str, pos: np.ndarray, *, max_rounds: int = 500) -> RunResult:
    """Async (Eq. 2) run under an order (fast reference engine)."""
    r = gauss_seidel(g, make_algo(algo_name), pos, max_rounds=max_rounds)
    return require_converged(r, algo_name, max_rounds)


def run_sync(g: LocalGraph, algo_name: str, *, max_rounds: int = 500) -> RunResult:
    """Sync (Eq. 1) run (fast reference engine)."""
    r = jacobi(g, make_algo(algo_name), max_rounds=max_rounds)
    return require_converged(r, algo_name, max_rounds)


def markdown_table(df: pd.DataFrame, float_fmt: str = "{:.2f}") -> str:
    """Render a DataFrame as a GitHub markdown table (no index)."""
    def fmt(v):
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(fmt(row[c]) for c in cols) + " |")
    return "\n".join(lines)
