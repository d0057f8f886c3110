"""The SparkSession settings shared by the test suite and the jobs.

Launch settings (master, driver memory, driver host) are not set here: the
test suite passes them in ``PYSPARK_SUBMIT_ARGS`` before the JVM starts, and
``jobs/_common.get_spark`` sets them on the builder.
"""
from __future__ import annotations

import os


def spark_builder(app: str):
    """``SparkSession.builder`` for ``app`` with the per-session settings:
    shuffle partitions (``SPARK_SHUFFLE_PARTITIONS``, default 64), Arrow
    for pandas conversion, and broadcast joins disabled, so that joins
    exercise the shuffle path at small scale (a query that wants a
    broadcast join sets the threshold back for itself)."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )
