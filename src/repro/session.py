"""The one SparkSession builder: jobs (``spark-submit jobs/<name>.py``),
the test suite's ``spark`` fixture in ``conftest.py`` and perfbench all
start their session here.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_session(app: str = "repro-job") -> SparkSession:
    """Session with the repro defaults (broadcast joins and DataFrame
    debugging disabled).

    Broadcast joins are off so that joins exercise the shuffle path at
    these small scales. The UI keeps every job and stage, so that counts
    read from ``statusTracker()`` do not undercount once a session passes
    Spark's default of 1,000 retained stages.

    ``spark.python.sql.dataFrameDebugging.enabled`` is off. PySpark turns
    it on by default, and then every Column and DataFrame call (``F.col``,
    ``where``, ``join``, ``alias``, ...) first records its Python call site
    in the JVM: a session lookup, a conf read and a set/clear pair, all
    py4j round trips, plus a stack walk that tries to import IPython and
    ipykernel. The first such call in a process imports IPython when it is
    installed (about 530 modules, 0.5 s and 26 MB of driver memory), and
    the failing ipykernel import repeats on every later call. The call
    site only adds context to Spark's error messages, which nothing here
    reads. PySpark caches the setting at the first Column call made while
    a session is active, so it must be set when the session is built.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
