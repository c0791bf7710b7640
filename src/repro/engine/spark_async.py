"""Asynchronous (Eq. 2 / Gauss–Seidel) iterative engine on Spark.

Positions are cut into ``n_blocks`` contiguous blocks, and a round takes
one block step (:func:`repro.engine.spark_sync.run_blocks`) per block, in
ascending position order. The step's sweep,
:func:`repro.engine.reference.sweep`, reads the joined states in place:

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

import numpy as np
from pyspark.sql import SparkSession

from repro.engine.reference import RunResult
from repro.engine.spark_sync import MAX_ROUNDS, N_BLOCKS, run_blocks
from repro.graphs.local import LocalGraph


def run_async_spark(
    spark: SparkSession,
    g: LocalGraph,
    algo_name: str,
    positions: np.ndarray,
    *,
    n_blocks: int = N_BLOCKS,
    source: int | None = None,
    max_rounds: int = MAX_ROUNDS,
) -> RunResult:
    """Run Eq. 2 under ``positions`` to convergence."""
    return run_blocks(
        spark, g, algo_name, positions, n_blocks, eq2=True, source=source, max_rounds=max_rounds
    )
