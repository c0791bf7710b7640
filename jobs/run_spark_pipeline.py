"""End-to-end Spark demo: GoGraph ordering via applyInPandas, then the
Spark sync (Eq. 1) vs async (Eq. 2) engines on the CP stand-in.

Usage: spark-submit jobs/run_spark_pipeline.py [--scale test|bench]
"""
import argparse

import numpy as np

from repro.core.metric import metric_m_spark
from repro.core.gograph import gograph_positions_spark
from repro.engine.spark_async import run_async_spark
from repro.engine.spark_sync import MAX_ROUNDS, run_sync_spark
from repro.experiments.common import SCALES, load_graph, require_converged
from repro.graphs.gen import edges_to_spark
from repro.session import get_session

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="test", choices=list(SCALES))
    ap.add_argument("--graph", default="IC", help="dataset abbreviation (Table I)")
    ap.add_argument("--algo", default="bfs")
    ap.add_argument("--blocks", type=int, default=2)
    args = ap.parse_args()
    spark = get_session("gograph-pipeline")
    g = load_graph(args.graph, args.scale)
    edf = edges_to_spark(spark, g)
    pos_df = gograph_positions_spark(spark, edf, g.n)
    m = metric_m_spark(edf, pos_df)
    print(f"graph {args.graph}: |V|={g.n} |E|={g.n_edges}  M(GoGraph)={m} ({m/g.n_edges:.2f} of |E|)")
    pos = (
        pos_df.toPandas().sort_values("vid")["pos"].to_numpy()
    )
    runs = (
        run_sync_spark(spark, g, args.algo),
        run_async_spark(spark, g, args.algo, pos, n_blocks=args.blocks),
    )
    # both runs stop at the engines' default round cap
    sync, asy = (require_converged(r, args.algo, MAX_ROUNDS) for r in runs)
    print(f"{args.algo}: sync rounds={sync.rounds}  async+GoGraph rounds={asy.rounds}")
    assert np.allclose(
        np.nan_to_num(sync.x, posinf=1e30), np.nan_to_num(asy.x, posinf=1e30), atol=1e-4
    ), "sync and async must agree at the fixpoint"
    spark.stop()
