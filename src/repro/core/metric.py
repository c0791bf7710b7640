"""Metric function M(O) (paper Eq. 7): the number of positive edges —
edges whose source precedes its destination in the processing order.

Two implementations: a Spark DataFrame one (join positions, count) used
by jobs/benchmarks, and a numpy one for the local harness. Tests check
them against each other and against a DuckDB SQL oracle.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.local import LocalGraph

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession


def metric_m_local(g: LocalGraph, positions: np.ndarray) -> int:
    """M(O) = |{(u,v) ∈ E : p(u) < p(v)}| on a local graph."""
    return int(np.sum(positions[g.src] < positions[g.dst]))


def positions_to_spark(spark: SparkSession, positions: np.ndarray) -> DataFrame:
    """Positions array (vid → ordinal) → DataFrame(vid long, pos long)."""
    import pandas as pd

    return spark.createDataFrame(
        pd.DataFrame(
            {"vid": np.arange(len(positions), dtype=np.int64), "pos": positions.astype(np.int64)}
        )
    )


def metric_m_spark(edges_df: DataFrame, pos_df: DataFrame) -> int:
    """M(O) via DataFrame joins — pos_df has columns (vid, pos)."""
    from pyspark.sql import functions as F

    src_pos = pos_df.select(
        F.col("vid").alias("src"), F.col("pos").alias("p_src")
    )
    dst_pos = pos_df.select(
        F.col("vid").alias("dst"), F.col("pos").alias("p_dst")
    )
    return (
        edges_df.join(src_pos, "src")
        .join(dst_pos, "dst")
        .where(F.col("p_src") < F.col("p_dst"))
        .count()
    )
