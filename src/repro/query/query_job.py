"""Probabilistic range query as a distributed DataFrame job.

Index filtering and the Lemma 4 probability-mass pruning run in Spark SQL
over the StIU spatial index DataFrame and the compressed rows' typed
``insts`` column (the quantized probabilities the engine sums); only the
surviving trajectories' rows are shipped into an ``applyInPandas``
refinement kernel (Lemma 2/3 + exact interpolation via the same code path
as the driver-side engine, reading the row's typed ``tindex``).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.config import UTCQConfig
from repro.core.compress_job import ct_from_row, network_grid
from repro.query.queries import TrajIndexEntry, UTCQEngine
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import Rect


def range_query_job(
    spark: SparkSession,
    compressed_df: DataFrame,
    sindex: DataFrame,
    net: RoadNetwork,
    cfg: UTCQConfig,
    rect: Rect,
    tq: int,
    alpha: float,
) -> list[int]:
    """range(Tu, RE, t_q, α) with Spark-SQL index filtering (Definition 12)."""
    grid = network_grid(net, cfg.grid_n)
    cells = grid.cells_near(rect, net.max_edge_length)

    # Index filtering: candidate (traj, instance) pairs.
    cand = (
        sindex.filter(F.col("region").isin(cells))
        .filter((F.col("t_enter") <= tq) & (F.col("t_exit") >= tq))
        .filter((F.col("kind") == "nonref") | (F.col("fv_id") != -1))
        .select("traj_id", "inst_id")
        .distinct()
    )

    # Lemma 4 in SQL: join instance probabilities (from the compressed
    # rows) and drop trajectories whose candidate mass cannot reach α.
    probs = compressed_df.select(
        "traj_id", F.inline("insts")
    ).select("traj_id", "inst_id", "prob")
    survivors = (
        cand.join(probs, on=["traj_id", "inst_id"], how="inner")
        .groupBy("traj_id")
        .agg(
            F.sum("prob").alias("mass"),
            F.collect_list("inst_id").alias("inst_ids"),
        )
        .filter(F.col("mass") >= alpha)
        .select("traj_id", "inst_ids")
    )

    # Refinement kernel on surviving rows only; it reads no spatial tuples.
    bc_net = spark.sparkContext.broadcast(net)
    to_refine = survivors.join(
        compressed_df.drop("sindex"), on="traj_id", how="inner"
    )

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        network = bc_net.value
        g = network_grid(network, cfg.grid_n)
        out = []
        for row in pdf.itertuples():
            ct = ct_from_row(row)
            entry = TrajIndexEntry(ct, list(row.tindex), [])
            eng = UTCQEngine(network, cfg, g, {ct.traj_id: entry})
            ok = eng.refine_range(
                ct.traj_id, [int(i) for i in row.inst_ids], rect, tq, alpha
            )
            out.append({"traj_id": ct.traj_id, "qualifies": ok})
        return pd.DataFrame(out, columns=["traj_id", "qualifies"])

    refined = to_refine.groupBy("traj_id").applyInPandas(
        lambda pdf: kernel(pdf), schema="traj_id long, qualifies boolean"
    )
    return sorted(
        r.traj_id for r in refined.filter("qualifies").select("traj_id").collect()
    )
