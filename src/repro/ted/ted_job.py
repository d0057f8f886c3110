"""TED baseline compression as a two-stage Spark job.

Stage 1 (`groupBy(traj_id).applyInPandas`): per-trajectory TED encoding —
time pairs once per trajectory, per-instance E/D/T′/p bit sizes, and the E
bitstrings for the matrix stage.

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

from repro.bits import bits_needed
from repro.core.config import UTCQConfig
from repro.roadnet.graph import RoadNetwork
from repro.ted.matrix import compress_group
from repro.ted.ted_encode import (
    TED_PAIR_BITS,
    e_bitstring,
    encode_instance_payload,
    ted_instance_sizes,
    ted_time_pairs,
)
from repro.trajgen.spark_io import group_to_ted

STAGE1_SCHEMA = (
    "traj_id long, inst_id int, m int, e_len int, e_code string, "
    "payload binary, "
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
    """Run both TED stages; returns per-instance rows with final sizes."""
    be = bits_needed(net.max_out_degree + 1)
    encoded = _stage1(instances, times, net, cfg)

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

    matrixed = encoded.groupBy("e_len").applyInPandas(stage2, schema=STAGE2_SCHEMA)
    # Final per-instance sizes: stage-1 columns + post-matrix E bits (+32
    # for the start vertex, which bypasses the matrix).
    out = (
        encoded.drop("e_code", "payload")
        .join(matrixed, on=["traj_id", "inst_id"], how="inner")
        .withColumn("comp_e", F.col("comp_e") + F.lit(32))
    )
    return out


def ted_compressed_payloads(
    spark: SparkSession,
    instances: DataFrame,
    times: DataFrame,
    net: RoadNetwork,
    cfg: UTCQConfig,
) -> DataFrame:
    """Per-instance self-contained payloads for the TED query baseline."""
    return _stage1(instances, times, net, cfg).select(
        "traj_id", "inst_id", "payload"
    )


def _stage1(
    instances: DataFrame, times: DataFrame, net: RoadNetwork, cfg: UTCQConfig
) -> DataFrame:
    """Stage 1: one :func:`_encode_group` call per trajectory."""
    be = bits_needed(net.max_out_degree + 1)
    joined = instances.join(times, on="traj_id", how="inner")

    def stage1(pdf: pd.DataFrame) -> pd.DataFrame:
        return _encode_group(pdf, be, cfg.eta_d, cfg.eta_p)

    return joined.groupBy("traj_id").applyInPandas(stage1, schema=STAGE1_SCHEMA)


def _encode_group(
    pdf: pd.DataFrame, be: int, eta_d: float, eta_p: float
) -> pd.DataFrame:
    t_start = time.perf_counter()
    traj = group_to_ted(pdf)
    m = traj.num_points
    comp_t = TED_PAIR_BITS * len(ted_time_pairs(traj.timestamps()))
    orig_t = 32 * m

    rows = []
    n_inst = len(traj.teds)
    for inst_id, ted in enumerate(traj.teds):
        sizes = ted_instance_sizes(ted, m, be, eta_d, eta_p)
        code = e_bitstring(ted, be)
        rows.append(
            {
                "traj_id": traj.traj_id,
                "inst_id": inst_id,
                "m": m,
                "e_len": len(code),
                "e_code": code,
                "payload": encode_instance_payload(ted, be, eta_d, eta_p),
                # TED compresses each instance as an independent accurate
                # trajectory, so every instance stores its own time pairs
                # (the raw input also lists timestamps per instance).
                "orig_t": orig_t,
                "comp_t": comp_t,
                "orig_e": sizes["orig_E"],
                "comp_e_pre": sizes["E"],
                "orig_d": sizes["orig_D"],
                "comp_d": sizes["D"],
                "orig_tp": sizes["orig_Tp"],
                "comp_tp": sizes["Tp"],
                "orig_p": sizes["orig_p"],
                "comp_p": sizes["p"],
                "encode_ms": 0.0,
            }
        )
    ms = (time.perf_counter() - t_start) * 1e3
    for row in rows:
        row["encode_ms"] = ms / max(1, n_inst)
    return pd.DataFrame(rows)


def ted_ratio_summary(final: DataFrame) -> dict:
    """Table-8-style ratios for the TED baseline."""
    agg = final.agg(
        F.sum("orig_t").alias("orig_t"),
        F.sum("comp_t").alias("comp_t"),
        F.sum("orig_e").alias("orig_e"),
        F.sum("comp_e").alias("comp_e"),
        F.sum("orig_d").alias("orig_d"),
        F.sum("comp_d").alias("comp_d"),
        F.sum("orig_tp").alias("orig_tp"),
        F.sum("comp_tp").alias("comp_tp"),
        F.sum("orig_p").alias("orig_p"),
        F.sum("comp_p").alias("comp_p"),
        F.sum("encode_ms").alias("encode_ms"),
        F.sum("matrix_ms").alias("matrix_ms"),
    ).collect()[0]

    def ratio(o, c):
        return float(o) / float(c) if c else float("inf")

    orig_sum = sum(agg[f"orig_{k}"] for k in ("t", "e", "d", "tp", "p"))
    comp_sum = sum(agg[f"comp_{k}"] for k in ("t", "e", "d", "tp", "p"))
    return {
        "Total": ratio(orig_sum, comp_sum),
        "T": ratio(agg["orig_t"], agg["comp_t"]),
        "E": ratio(agg["orig_e"], agg["comp_e"]),
        "D": ratio(agg["orig_d"], agg["comp_d"]),
        "Tp": ratio(agg["orig_tp"], agg["comp_tp"]),
        "p": ratio(agg["orig_p"], agg["comp_p"]),
        "orig_bits": int(orig_sum),
        "comp_bits": int(comp_sum),
        "kernel_ms": float(agg["encode_ms"]) + float(agg["matrix_ms"]),
    }
