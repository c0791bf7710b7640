"""The paper's tables and figures by name (DESIGN.md §3).

Each entry maps a scale name (``common.SCALES``) to the tables its harness
yields, in print order, as ``(title, DataFrame, float_fmt)``; ``title`` is
None for a table printed without a heading. ``jobs/run.py`` prints them and
``benchmarks/bench_paper_shapes.py`` checks the paper's shape on them.
"""
from __future__ import annotations

from typing import Callable

import pandas as pd

from repro.experiments.async_impact import async_impact
from repro.experiments.cache import cache_misses, partition_effect
from repro.experiments.common import SCALES
from repro.experiments.convergence import convergence, gograph_time_fraction
from repro.experiments.degrees import degrees_experiment
from repro.experiments.memuse import memory_usage
from repro.experiments.overall import gograph_speedups, overall
from repro.experiments.partition_methods import partition_methods
from repro.experiments.table1 import table1
from repro.experiments.table2 import PAPER_TABLE2, table2

Table = tuple[str | None, pd.DataFrame, str]


def _table2(scale: str) -> list[Table]:
    df = table2(scale)
    paper = pd.DataFrame(list(PAPER_TABLE2.values()), columns=df.columns[1:])
    paper.insert(0, "method", list(PAPER_TABLE2))
    return [
        (None, df, "{:.2f}"),
        ("paper Table II (M, M/|E|, PR, SSSP, BFS, PHP):", paper, "{:g}"),
    ]


def _fig5_6(scale: str) -> list[Table]:
    df = overall(scale)
    return [
        (None, df, "{:.4f}"),
        ("GoGraph vs competitors (paper Fig 5/6 headline):", gograph_speedups(df), "{:.2f}"),
    ]


def _fig7(scale: str) -> list[Table]:
    df = convergence(scale)
    return [
        (None, df, "{:.4f}"),
        (
            "GoGraph time fraction vs average of others (paper: 0.59 avg, 0.37 min):",
            gograph_time_fraction(df),
            "{:.2f}",
        ),
    ]


EXPERIMENTS: dict[str, Callable[[str], list[Table]]] = {
    "table1": lambda scale: [(None, table1(scale), "{:.2f}")],
    "table2": _table2,
    "fig5_6": _fig5_6,
    "fig7": _fig7,
    "fig8": lambda scale: [(None, async_impact(scale), "{:.4f}")],
    "fig9_10": lambda scale: [
        (None, cache_misses(scale), "{:.3f}"),
        (None, partition_effect(scale), "{:.1f}"),
    ],
    "fig11": lambda scale: [(None, memory_usage(scale), "{:.3f}")],
    # scale sizes the BA graphs as it does the stand-ins: bench is n = 10,000
    "fig12": lambda scale: [
        (None, degrees_experiment(n=int(10_000 * SCALES[scale])), "{:.4f}")
    ],
    "fig13": lambda scale: [(None, partition_methods(scale), "{:.3f}")],
}
