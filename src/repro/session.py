"""The one SparkSession builder: jobs (``spark-submit jobs/<name>.py``),
the test suite's ``spark`` fixture in ``conftest.py`` and perfbench all
start their session here.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_session(app: str = "repro-job") -> SparkSession:
    """Session with the repro defaults (broadcast joins disabled).

    Broadcast joins are off so that joins exercise the shuffle path at
    these small scales. The UI keeps every job and stage, so that counts
    read from ``statusTracker()`` do not undercount once a session passes
    Spark's default of 1,000 retained stages.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .getOrCreate()
    )
