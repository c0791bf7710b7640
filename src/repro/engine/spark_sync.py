"""The Spark engines' one block step and round loop, and the synchronous
(Eq. 1 / Jacobi) engine on them.

A block step cogroups each block of positions' states with its in-edges
joined to the step's input states, and one ``applyInPandas`` call per
block runs :func:`repro.engine.reference.sweep` over them. Eq. 2
(:mod:`repro.engine.spark_async`) takes one step per block, and the sweep
reads the joined states in place; Eq. 1 takes one step over every block,
and the sweep reads a round-start snapshot of them. Each step records
every vertex's change in a column ``d``, and :func:`iterate` runs rounds
until the largest ``d`` is within tolerance, counted as the reference
engine counts them (the final detection sweep is not), so tests can
assert equal rounds.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.engine.algorithms import effective_graph, make_algo
from repro.engine.reference import RunResult, sweep
from repro.graphs.local import LocalGraph

#: Blocks per round: Eq. 1 groups its one step by them, and Eq. 2 takes
#: one step per block unless told otherwise.
N_BLOCKS = 4
#: The Spark engines' default round cap.
MAX_ROUNDS = 300


def frame(spark: SparkSession, **columns) -> DataFrame:
    """A checkpointed DataFrame of numpy columns."""
    return spark.createDataFrame(pd.DataFrame(columns)).localCheckpoint(eager=True)


def checkpoint(states: DataFrame) -> DataFrame:
    """``states`` computed and cut from its lineage, on at most the default
    parallelism of partitions, with no size estimate.

    A checkpoint keeps the size estimate of its plan, and Spark estimates a
    join or cogroup as the product of its sides, so states read twice per
    step would square their estimate each step: past ~20 steps, planning
    spends minutes multiplying big integers. Rows passed through an RDD
    carry no estimate. ``coalesce`` merges, without a shuffle, the partition
    the Eq. 2 union adds per block step.
    """
    spark = states.sparkSession
    rows = states.rdd.coalesce(spark.sparkContext.defaultParallelism)
    return spark.createDataFrame(rows, states.schema).localCheckpoint(eager=True)


def iterate(
    states: DataFrame, step: Callable[[DataFrame], DataFrame], tol: float, max_rounds: int
) -> RunResult:
    """Run ``step`` (states → checkpointed states with ``vid``, ``val`` and
    ``d``) until the largest per-vertex change ``d`` is ≤ ``tol``."""
    deltas: list[float] = []
    rounds = 0
    converged = False
    for _ in range(max_rounds):
        states = step(states)
        d = states.agg(F.max("d")).collect()[0][0]
        if d is None or d <= tol:
            converged = True
            break
        deltas.append(float(d))
        rounds += 1
    pdf = states.select("vid", "val").toPandas().sort_values("vid")
    return RunResult(rounds, pdf["val"].to_numpy(), converged, deltas)


def run_blocks(
    spark: SparkSession,
    g: LocalGraph,
    algo_name: str,
    positions: np.ndarray,
    n_blocks: int,
    *,
    eq2: bool,
    source: int | None,
    max_rounds: int,
) -> RunResult:
    """Run F(·) to convergence in block steps over ``n_blocks`` contiguous
    blocks of ``positions``: Eq. 2 if ``eq2``, else Eq. 1.

    A vertex is written only in its own block's sweep, so its ``d`` is its
    change over the round. Neither result depends on ``n_blocks``.
    """
    prep = make_algo(algo_name).prepare(g, source)
    eg = effective_graph(g, prep)
    kind = prep.kind
    fixed = np.full(g.n, np.nan)  # NaN where a vertex is not fixed
    fixed[list(prep.fixed)] = list(prep.fixed.values())
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
        sweep(kind, order, in_adj, x, x if eq2 else dict(x), base, fixed)
        new = np.array([x[v] for v in order])
        with np.errstate(invalid="ignore"):  # inf - inf
            return verts.assign(val=new, d=np.where(new == old, 0.0, np.abs(new - old)))

    # Plan pieces that do not depend on the states, built once per run:
    # each costs py4j round trips, and a step would rebuild them per block.
    schema = states.schema
    src_states = (F.col("vid").alias("src"), F.col("val").alias("src_val"))
    # Eq. 2 steps through the blocks in order; Eq. 1's one step covers all.
    groups = [F.col("blk") == b for b in range(n_blocks)] if eq2 else [F.lit(True)]
    steps = [(in_step, ~in_step, edges.where(in_step)) for in_step in groups]

    def step(states: DataFrame) -> DataFrame:
        for in_step, rest, step_edges in steps:
            in_edges = step_edges.join(states.select(*src_states), "src")
            updated = (
                states.where(in_step)
                .groupBy("blk")
                .cogroup(in_edges.groupBy("blk"))
                .applyInPandas(_block_fn, schema)
            )
            states = checkpoint(states.where(rest).unionByName(updated))
        return states

    return iterate(states, step, prep.tol, max_rounds)


def run_sync_spark(
    spark: SparkSession,
    g: LocalGraph,
    algo_name: str,
    *,
    source: int | None = None,
    max_rounds: int = MAX_ROUNDS,
) -> RunResult:
    """Run Eq. 1 to convergence; returns rounds and final states."""
    vid = np.arange(g.n)
    return run_blocks(
        spark, g, algo_name, vid, N_BLOCKS, eq2=False, source=source, max_rounds=max_rounds
    )
