"""TED baseline compression as a two-stage Spark job.

Stage 1 (`groupBy(traj_id).applyInPandas`): per-trajectory TED encoding —
time pairs once per trajectory, per-instance original and E/D/T′/p bit
sizes, and the E bitstrings for the matrix stage.

Stage 2 (`groupBy(e_len).applyInPandas`): the multiple-bases matrix
compression over ALL instances of each code length — this global regrouping
(a full shuffle of every E code) is TED's matrix-preparation step that the
paper identifies as its time/memory bottleneck.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.config import UTCQConfig, Widths
from repro.core.model import original_bits
from repro.roadnet.graph import RoadNetwork
from repro.ted.matrix import compress_group
from repro.ted.ted_encode import (
    TED_PAIR_BITS,
    e_bitstring,
    ted_instance_sizes,
    ted_time_pairs,
)
from repro.trajgen.spark_io import group_to_ted

STAGE1_SCHEMA = (
    "traj_id long, inst_id int, e_len int, e_code string, "
    "orig_t long, comp_t long, orig_e long, comp_e_pre long, "
    "orig_d long, comp_d long, orig_tp long, comp_tp long, "
    "orig_p long, comp_p long, encode_ms double"
)

STAGE2_SCHEMA = (
    "traj_id long, inst_id int, comp_e long, matrix_ms double"
)


def ted_compress_dataset(
    spark: SparkSession,
    instances: DataFrame,
    times: DataFrame,
    net: RoadNetwork,
    cfg: UTCQConfig,
) -> DataFrame:
    """Run both TED stages; returns per-instance rows with final sizes and
    the accounting columns of a UTCQ row (``comp_meta`` 0, ``compress_ms``),
    so that ``compress_job.ratio_summary`` reads either."""
    o = net.max_out_degree
    be = Widths.of(0, cfg, o).be  # the edge-number width does not depend on m

    def stage1(pdf: pd.DataFrame) -> pd.DataFrame:
        return _encode_group(pdf, cfg, o)

    def stage2(pdf: pd.DataFrame) -> pd.DataFrame:
        t0 = time.perf_counter()
        res = compress_group(pdf["e_code"].tolist(), be)
        ms = (time.perf_counter() - t0) * 1e3
        n = len(pdf)
        return pd.DataFrame(
            {
                "traj_id": pdf["traj_id"].values,
                "inst_id": pdf["inst_id"].values,
                "comp_e": [
                    r + (res["dict_bits"] + n - 1) // n for r in res["rows"]
                ],
                "matrix_ms": [ms / n] * n,
            }
        )

    encoded = (
        instances.join(times, on="traj_id", how="inner")
        .groupBy("traj_id")
        .applyInPandas(stage1, schema=STAGE1_SCHEMA)
    )
    matrixed = encoded.groupBy("e_len").applyInPandas(stage2, schema=STAGE2_SCHEMA)
    # Final per-instance sizes: stage-1 columns + post-matrix E bits (+32
    # for the start vertex, which bypasses the matrix).
    return (
        encoded.drop("e_code")
        .join(matrixed, on=["traj_id", "inst_id"], how="inner")
        .withColumn("comp_e", F.col("comp_e") + F.lit(32))
        .withColumn("comp_meta", F.lit(0).cast("long"))
        .withColumn("compress_ms", F.col("encode_ms") + F.col("matrix_ms"))
    )


def _encode_group(
    pdf: pd.DataFrame, cfg: UTCQConfig, max_out_degree: int
) -> pd.DataFrame:
    traj = group_to_ted(pdf)
    # Like UTCQ's compress_ms, encode_ms leaves out reading the rows.
    t_start = time.perf_counter()
    m = traj.num_points
    wd = Widths.of(m, cfg, max_out_degree)
    # TED compresses each instance as an independent accurate trajectory,
    # so every instance stores its own time pairs.
    comp_t = TED_PAIR_BITS * len(ted_time_pairs(traj.timestamps()))

    rows = []
    for inst_id, ted in enumerate(traj.teds):
        sizes = ted_instance_sizes(ted, wd)
        code = e_bitstring(ted, wd.be)
        orig = original_bits(ted, m)
        rows.append(
            {
                "traj_id": traj.traj_id,
                "inst_id": inst_id,
                "e_len": len(code),
                "e_code": code,
                **{f"orig_{c.lower()}": bits for c, bits in orig.items()},
                "comp_t": comp_t,
                "comp_e_pre": sizes["E"],
                "comp_d": sizes["D"],
                "comp_tp": sizes["Tp"],
                "comp_p": sizes["p"],
            }
        )
    ms = (time.perf_counter() - t_start) * 1e3
    out = pd.DataFrame(rows)
    out["encode_ms"] = ms / len(rows)
    return out
