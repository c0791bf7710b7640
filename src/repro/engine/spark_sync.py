"""Synchronous (Eq. 1 / Jacobi) iterative engine on Spark DataFrames,
and the round loop both Spark engines share.

Classic Pregel-style superstep: join edge messages with source states,
aggregate per destination, apply F(·) and record each vertex's change in
a column ``d``. :func:`iterate` runs steps until the largest ``d`` drops
to the algorithm's tolerance, reading it from the checkpointed states
without a join to the previous round.

Round-counting semantics match the reference engine exactly (the final
detection sweep is not counted), so tests can assert equal rounds.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.engine.algorithms import Prepared, effective_graph, make_algo
from repro.engine.reference import RunResult
from repro.graphs.local import LocalGraph

# kind -> (x_src, param, val, m) -> (message aggregate m, new value before `fixed`)
_OPS = {
    "sum": lambda x, p, v, m: (F.sum(x * p), F.col("base") + F.coalesce(m, F.lit(0.0))),
    "min": lambda x, p, v, m: (F.min(x + p), F.least(v, F.coalesce(m, F.lit(float("inf"))))),
    "maxmin": lambda x, p, v, m: (
        F.max(F.least(x, p)),
        F.greatest(v, F.coalesce(m, F.lit(float("-inf")))),
    ),
}


def prepare(g: LocalGraph, algo_name: str, source) -> tuple[Prepared, LocalGraph, np.ndarray]:
    """The algorithm's prepared inputs, its effective graph, and the fixed
    values as an array (NaN where a vertex is not fixed)."""
    prep = make_algo(algo_name).prepare(g, source)
    fixed = np.full(g.n, np.nan)
    for v, fv in prep.fixed.items():
        fixed[v] = fv
    return prep, effective_graph(g, prep), fixed


def frame(spark: SparkSession, **columns) -> DataFrame:
    """A checkpointed DataFrame of numpy columns."""
    return spark.createDataFrame(pd.DataFrame(columns)).localCheckpoint(eager=True)


def change(old: Column, new: Column) -> Column:
    """|old − new|, with inf == inf counted as no change."""
    return F.when(old == new, F.lit(0.0)).otherwise(F.abs(old - new))


def checkpoint(states: DataFrame) -> DataFrame:
    """``states`` computed and cut from its lineage, on at most the default
    parallelism of partitions, with no size estimate.

    A checkpoint keeps the size estimate of its plan, and Spark estimates a
    join or cogroup as the product of its sides, so states read twice per
    step would square their estimate each step: past ~20 steps, planning
    spends minutes multiplying big integers. Rows passed through an RDD
    carry no estimate. ``coalesce`` merges, without a shuffle, the partition
    the async engine's union adds per block-step.
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


def run_sync_spark(
    spark: SparkSession,
    g: LocalGraph,
    algo_name: str,
    *,
    source: int | None = None,
    max_rounds: int = 300,
) -> RunResult:
    """Run Eq. 1 to convergence; returns rounds and final states."""
    prep, eg, fixed = prepare(g, algo_name, source)
    vid = np.arange(g.n, dtype=np.int64)
    edges = frame(spark, src=eg.src, dst=eg.dst, param=prep.param)
    vertices = frame(spark, vid=vid, base=prep.base, fixed=fixed)
    message, new_val = _OPS[prep.kind](*map(F.col, ("x_src", "param", "val", "m")))
    val = F.coalesce(F.col("fixed"), new_val)
    # Built once per run: each Column call is a py4j round trip.
    src_states = (F.col("vid").alias("src"), F.col("val").alias("x_src"))
    message = message.alias("m")
    out = ("vid", val.alias("val"), change(F.col("val"), val).alias("d"))

    def step(states: DataFrame) -> DataFrame:
        agg = edges.join(states.select(*src_states), "src").groupBy("dst").agg(message)
        return checkpoint(
            vertices.join(agg, vertices.vid == agg.dst, "left").join(states, "vid").select(*out)
        )

    return iterate(frame(spark, vid=vid, val=prep.init), step, prep.tol, max_rounds)
