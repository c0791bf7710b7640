"""Fig 7 (as table) — convergence speed comparison.

The paper tracks dist_t = |Σ_v x* − Σ_v x_t| over time for PageRank and
SSSP on CP and LJ; GoGraph reaches the converged state in 59% of the
average time of the other orders (37% minimum). We compute dist per
round from the engines' per-round state sums, convert rounds → time via
one per-round wall-clock per (graph, algorithm), and report the time to
bring dist within 0.1% of its initial value. That wall-clock is measured
once, under the Default order: ``per_round_time`` sweeps the graph
relabelled into position order, so every order does the same updates
front to back through memory, and timing each order apart would only
compare the noise of separate few-millisecond sweeps. GoGraph's time
fraction is therefore its ratio of ``rounds_to_eps``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engine.algorithms import make_algo
from repro.engine.reference import fixpoint, per_round_time
from repro.experiments.common import load_graph, order_for, run_async
from repro.reorder.api import METHODS

PAPER_FIG7 = {"gograph_time_frac_avg": 0.59, "gograph_time_frac_min": 0.37}


def convergence(
    scale: str = "bench",
    graphs: tuple[str, ...] = ("CP", "LJ"),
    algos: tuple[str, ...] = ("pagerank", "sssp"),
    rel_eps: float = 1e-3,
) -> pd.DataFrame:
    """Rounds & est. time for dist_t to fall to rel_eps × dist_0."""
    rows = []
    for gname in graphs:
        g = load_graph(gname, scale)
        for algo_name in algos:
            algo = make_algo(algo_name)
            s_star = float(np.nansum(np.where(np.isfinite(xs := fixpoint(g, algo)), xs, 0.0)))
            per_round = per_round_time(g, algo, order_for(g, "default"), sweeps=2)
            for method in METHODS:
                pos = order_for(g, method)
                r = run_async(g, algo_name, pos)
                dists = [abs(s_star - s) for s in r.sums]
                d0 = max(dists[0], 1e-30) if dists else 1e-30
                hit = next(
                    (i + 1 for i, d in enumerate(dists) if d <= rel_eps * d0),
                    r.rounds,
                )
                rows.append(
                    {
                        "graph": gname,
                        "algo": algo_name,
                        "method": method,
                        "rounds_to_eps": hit,
                        "time_to_eps_s": hit * per_round,
                    }
                )
    df = pd.DataFrame(rows)
    return df


def gograph_time_fraction(df: pd.DataFrame) -> pd.DataFrame:
    """GoGraph's time-to-convergence as a fraction of the others' average."""
    out = []
    for (gname, algo), grp in df.groupby(["graph", "algo"]):
        gg = float(grp.loc[grp["method"] == "gograph", "time_to_eps_s"].iloc[0])
        others = grp.loc[grp["method"] != "gograph", "time_to_eps_s"].mean()
        out.append(
            {
                "graph": gname,
                "algo": algo,
                "gograph_time_frac": round(gg / max(others, 1e-30), 2),
            }
        )
    return pd.DataFrame(out)
