"""Asynchronous (Eq. 2 / Gauss–Seidel) iterative engine on Spark.

Positions are cut into ``n_blocks`` contiguous blocks. A round sweeps
blocks in ascending position order; each block's update cogroups the
block's states with its in-edges joined to the *current* global states,
and one ``applyInPandas`` call runs the *sequential* in-position sweep
(:func:`repro.engine.reference.sweep`) over them, updating the joined
states in place:

* in-neighbors in earlier blocks were already rewritten this round →
  their joined state is the this-round value;
* in-neighbors earlier in this block's own sweep were just overwritten
  by it;
* in-neighbors in later blocks still hold last round's value.

That is exactly Eq. 2 for **any** ``n_blocks`` — block count only sets
the dataflow granularity (tests assert block-count invariance and
parity with the local reference engine, including round counts).

A vertex is written only in its own block's step, where it still holds
its round-start value, so the ``d`` its sweep records is its change over
the round, and :func:`spark_sync.iterate` reads the round's delta from it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.engine.reference import RunResult, sweep
from repro.engine.spark_sync import checkpoint, frame, iterate, prepare
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
    prep, eg, fixed = prepare(g, algo_name, source)
    kind = prep.kind
    pos = positions.astype(np.int64)
    block = (pos * n_blocks) // g.n
    vid = np.arange(g.n, dtype=np.int64)
    states = frame(
        spark, vid=vid, blk=block, pos=pos, base=prep.base, fixed=fixed, val=prep.init, d=0.0
    )
    edges = frame(spark, blk=block[eg.dst], dst=eg.dst, src=eg.src, param=prep.param)

    def _block_fn(verts: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame:
        verts = verts.sort_values("pos")
        order = verts["vid"].tolist()
        old = verts["val"].to_numpy()
        src, dst = edges["src"].tolist(), edges["dst"].tolist()
        x = dict(zip(src, edges["src_val"].tolist()))
        x.update(zip(order, old.tolist()))
        base = dict(zip(order, verts["base"].tolist()))
        fixed = set(verts.loc[verts["fixed"].notna(), "vid"].tolist())
        in_adj: dict[int, list[tuple[int, float]]] = {v: [] for v in order}
        for u, v, p in zip(src, dst, edges["param"].tolist()):
            in_adj[v].append((u, p))
        sweep(kind, order, in_adj, x, x, base, fixed)
        new = np.array([x[v] for v in order])
        with np.errstate(invalid="ignore"):  # inf - inf
            return verts.assign(val=new, d=np.where(new == old, 0.0, np.abs(new - old)))

    # Plan pieces that do not depend on the states, built once per run:
    # each costs py4j round trips, and a step would rebuild them per block.
    schema = states.schema
    src_states = (F.col("vid").alias("src"), F.col("val").alias("src_val"))
    blocks = [
        (F.col("blk") == b, F.col("blk") != b, edges.where(F.col("blk") == b))
        for b in range(n_blocks)
    ]

    def step(states: DataFrame) -> DataFrame:
        for in_block, rest, block_edges in blocks:
            in_edges = block_edges.join(states.select(*src_states), "src")
            updated = (
                states.where(in_block)
                .groupBy("blk")
                .cogroup(in_edges.groupBy("blk"))
                .applyInPandas(_block_fn, schema)
            )
            states = checkpoint(states.where(rest).unionByName(updated))
        return states

    return iterate(states, step, prep.tol, max_rounds)
