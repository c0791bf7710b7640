"""Asynchronous (Eq. 2 / Gauss–Seidel) iterative engine on Spark.

Positions are cut into ``n_blocks`` contiguous blocks. A round sweeps
blocks in ascending position order; each block's update is a single
``applyInPandas`` group that runs the *sequential* in-position sweep
(:func:`repro.engine.reference.sweep`) over the block's in-edges joined
with the *current* global states, updating those joined states in place:

* in-neighbors in earlier blocks were already rewritten this round →
  their joined state is the this-round value;
* in-neighbors earlier in this block's own sweep were just overwritten
  by it;
* in-neighbors in later blocks still hold last round's value.

That is exactly Eq. 2 for **any** ``n_blocks`` — block count only sets
the dataflow granularity (tests assert block-count invariance and
parity with the local reference engine, including round counts).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.engine.algorithms import effective_graph, make_algo
from repro.engine.reference import RunResult, sweep
from repro.graphs.local import LocalGraph


def run_async_spark(
    spark: SparkSession,
    g: LocalGraph,
    algo_name: str,
    positions: np.ndarray,
    *,
    n_blocks: int = 4,
    source: int | None = None,
    max_rounds: int = 300,
) -> RunResult:
    """Run Eq. 2 under ``positions`` to convergence."""
    t0 = time.perf_counter()
    algo = make_algo(algo_name)
    prep = algo.prepare(g, source)
    eg = effective_graph(g, prep)
    kind = prep.kind

    block = (positions.astype(np.int64) * n_blocks) // g.n
    fixed_vals = np.full(g.n, np.nan)
    for v, fv in prep.fixed.items():
        fixed_vals[v] = fv

    vert_pdf = pd.DataFrame(
        {
            "blk": block,
            "role": 0,
            "vid": np.arange(g.n, dtype=np.int64),
            "pos": positions.astype(np.int64),
            "base": prep.base,
            "fixed": fixed_vals,
            "src": -1,
            "param": 0.0,
        }
    )
    edge_pdf = pd.DataFrame(
        {
            "blk": block[eg.dst],
            "role": 1,
            "vid": eg.dst,
            "pos": 0,
            "base": 0.0,
            "fixed": np.nan,
            "src": eg.src,
            "param": prep.param,
        }
    )
    static = spark.createDataFrame(
        pd.concat([vert_pdf, edge_pdf], ignore_index=True)
    ).localCheckpoint(eager=True)

    def _block_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        verts = pdf[pdf["role"] == 0].sort_values("pos")
        edges = pdf[pdf["role"] == 1]
        order = verts["vid"].astype(int).tolist()
        src, dst = edges["src"].astype(int).tolist(), edges["vid"].astype(int).tolist()
        x = dict(zip(src, edges["src_val"].astype(float).tolist()))
        x.update(zip(order, verts["cur_val"].astype(float).tolist()))
        base = dict(zip(order, verts["base"].astype(float).tolist()))
        fixed = set(verts.loc[verts["fixed"].notna(), "vid"].astype(int).tolist())
        in_adj: dict[int, list[tuple[int, float]]] = {v: [] for v in order}
        for u, v, p in zip(src, dst, edges["param"].astype(float).tolist()):
            in_adj[v].append((u, p))
        sweep(kind, order, in_adj, x, x, base, fixed)
        return pd.DataFrame({"vid": order, "val": [x[v] for v in order]})

    states = spark.createDataFrame(
        pd.DataFrame(
            {"vid": np.arange(g.n, dtype=np.int64), "val": prep.init}
        )
    ).localCheckpoint(eager=True)

    vid_block = spark.createDataFrame(
        pd.DataFrame({"vid": np.arange(g.n, dtype=np.int64), "vblk": block})
    ).localCheckpoint(eager=True)

    deltas: list[float] = []
    rounds = 0
    converged = False
    for _ in range(max_rounds):
        round_start = states
        for b in range(n_blocks):
            blk_static = static.where(F.col("blk") == b)
            # join current state of edge sources and round-start value of verts
            joined = (
                blk_static.join(
                    states.select(
                        F.col("vid").alias("src"), F.col("val").alias("src_val")
                    ),
                    "src",
                    "left",
                )
                .join(
                    states.select("vid", F.col("val").alias("cur_val")), "vid", "left"
                )
            )
            updated = joined.groupBy("blk").applyInPandas(
                _block_fn, "vid long, val double"
            )
            states = (
                states.join(vid_block, "vid")
                .where(F.col("vblk") != b)
                .select("vid", "val")
                .unionByName(updated)
            ).localCheckpoint(eager=True)
        d = (
            round_start.alias("o")
            .join(states.alias("n"), "vid")
            .select(
                F.when(F.col("o.val") == F.col("n.val"), F.lit(0.0))
                .otherwise(F.abs(F.col("o.val") - F.col("n.val")))
                .alias("d")
            )
            .agg(F.max("d"))
            .collect()[0][0]
        )
        if d is None or d <= prep.tol:
            converged = True
            break
        deltas.append(float(d))
        rounds += 1

    pdf = states.toPandas().sort_values("vid")
    return RunResult(
        rounds, pdf["val"].to_numpy(), converged, deltas, time.perf_counter() - t0
    )
