"""Dataset, network and compression statistics — the Tables 5, 6 and 8
harness.

Computed with Spark aggregations over the canonical DataFrames so the same
numbers the paper tabulates for its proprietary datasets are reported for
the synthetic stand-ins (EXPERIMENTS.md records both side by side).
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.compress_job import compress_dataset, ratio_summary
from repro.core.config import DATASET_CONFIGS
from repro.roadnet.graph import RoadNetwork
from repro.ted.ted_job import ted_compress_dataset
from repro.trajgen import DATASET_PROFILES
from repro.trajgen.spark_io import dataset_df


def table6_stats(spark: SparkSession, net: RoadNetwork) -> dict:
    """Road network row: #edges, #vertices, average out-degree."""
    rows = [(u, len(vs)) for u, vs in net.adj.items()]
    df = spark.createDataFrame(rows, schema="vertex long, out_degree int")
    agg = df.agg(
        F.count("vertex").alias("n_vertices"),
        F.sum("out_degree").alias("n_edges"),
        F.avg(F.when(F.col("out_degree") > 0, F.col("out_degree"))).alias(
            "avg_out_degree"
        ),
    ).collect()[0]
    return {
        "n_edges": int(agg.n_edges),
        "n_vertices": int(agg.n_vertices),
        "avg_out_degree": float(agg.avg_out_degree),
        "max_out_degree": net.max_out_degree,
    }


def table5_stats(
    spark: SparkSession, instances: DataFrame, times: DataFrame, ts: int
) -> dict:
    """Trajectory dataset row: NCUT storage, #trajectories, #instances per
    trajectory (avg/min/max), #edges per trajectory (avg/min/max), default
    sample interval.

    Storage follows the paper's input accounting (DESIGN.md §2.5): 32-bit
    timestamps and edge entries, 1-bit flags, 64-bit doubles for relative
    distances and probabilities.
    """
    per_inst = instances.select(
        "traj_id",
        F.size("e").alias("n_entries"),
        F.expr("size(filter(e, x -> x > 0))").alias("n_edges"),
        F.size("d").alias("n_points"),
    )
    inst_agg = (
        per_inst.groupBy("traj_id")
        .agg(
            F.count("*").alias("n_inst"),
            F.avg("n_edges").alias("avg_edges"),
            F.min("n_edges").alias("min_edges"),
            F.max("n_edges").alias("max_edges"),
            F.sum(32 * (F.col("n_entries") + 1)).alias("e_bits"),
            F.sum(F.col("n_entries")).alias("tp_bits"),
            F.sum(64 * F.col("n_points") + 64).alias("dp_bits"),
        )
    )
    t_bits = times.select(
        "traj_id", (32 * (F.size("deltas") + 1)).alias("t_bits")
    )
    joined = inst_agg.join(t_bits, on="traj_id", how="inner")
    agg = joined.agg(
        F.count("*").alias("n_traj"),
        F.avg("n_inst").alias("avg_inst"),
        F.min("n_inst").alias("min_inst"),
        F.max("n_inst").alias("max_inst"),
        F.avg("avg_edges").alias("avg_edges"),
        F.min("min_edges").alias("min_edges"),
        F.max("max_edges").alias("max_edges"),
        (
            F.sum("e_bits") + F.sum("tp_bits") + F.sum("dp_bits") + F.sum("t_bits")
        ).alias("storage_bits"),
    ).collect()[0]
    return {
        "storage_mb": float(agg.storage_bits) / 8 / 1024 / 1024,
        "n_traj": int(agg.n_traj),
        "instances_avg": float(agg.avg_inst),
        "instances_min": int(agg.min_inst),
        "instances_max": int(agg.max_inst),
        "edges_avg": float(agg.avg_edges),
        "edges_min": int(agg.min_edges),
        "edges_max": int(agg.max_edges),
        "default_sample_interval_s": ts,
    }


def table8_stats(spark: SparkSession, name: str, n_traj: int | None = None) -> dict:
    """One Table 8 row pair: UTCQ and TED compress the same cached dataset.

    Returns ``n_inst`` and, under ``"UTCQ"`` and ``"TED"``, each method's
    :func:`repro.core.compress_job.ratio_summary` plus ``job_s``, the wall
    time of its Spark job (the aggregation triggers it).
    """
    cfg = DATASET_CONFIGS[name]
    instances, times, net = dataset_df(spark, DATASET_PROFILES[name], n_traj=n_traj)
    instances = instances.cache()
    times = times.cache()
    out: dict = {"n_inst": instances.count()}
    times.count()
    for method, job in (("UTCQ", compress_dataset), ("TED", ted_compress_dataset)):
        t0 = time.perf_counter()
        summary = ratio_summary(job(spark, instances, times, net, cfg))
        out[method] = {**summary, "job_s": time.perf_counter() - t0}
    instances.unpersist()
    times.unpersist()
    return out
