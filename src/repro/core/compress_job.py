"""UTCQ compression as a distributed DataFrame job (§3, framework).

``compress_dataset`` joins the instance rows with the shared time rows
(shuffle join — ``repro.spark_session.spark_builder`` disables broadcast
joins), groups by ``traj_id``, reads each group into its TED form with
``spark_io.group_to_ted`` and runs :func:`compress_and_index`, the whole
per-trajectory pipeline (pivot selection → FJD → Algorithm 1 → referential
representation → bit packing → StIU tuples), inside ``applyInPandas``;
``UTCQEngine.from_trajectories`` runs the same function on the driver.
One output row per uncertain trajectory carries the blob, per-component
bit accounting and typed columns for the readers: ``insts`` (per instance
its reference, quantized probability and the two bit offsets partial
decoding seeks), and the StIU tuples ``tindex``/``sindex``.  Ratios and
index DataFrames are derived with plain Spark SQL.
"""
from __future__ import annotations

import time
from collections import namedtuple

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.config import UTCQConfig
from repro.core.encoder import CompressedTrajectory, compress_ted
from repro.core.model import TedTrajectory
from repro.query import stiu
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import Rect, SpatialGrid
from repro.trajgen.spark_io import group_to_ted

#: What a reader needs of each instance: its reference, its probability and
#: the bit offsets of its p field and of its D (or ComD) section.
INSTANCE_SCHEMA = (
    "array<struct<inst_id:int,ref_id:int,prob:double,start:long,d_start:long>>"
)

COMPRESSED_SCHEMA = (
    "traj_id long, ts int, m int, n_inst int, n_refs int, "
    "blob binary, nbits long, "
    "orig_t long, orig_e long, orig_d long, orig_tp long, orig_p long, "
    "comp_t long, comp_e long, comp_d long, comp_tp long, comp_p long, "
    f"comp_meta long, insts {INSTANCE_SCHEMA}, "
    f"tindex {stiu.TEMPORAL_TUPLE_SCHEMA}, sindex {stiu.SPATIAL_TUPLE_SCHEMA}, "
    "compress_ms double"
)


def network_grid(net: RoadNetwork, grid_n: int) -> SpatialGrid:
    """The n×n grid over the network bounding box (§5.2)."""
    xs = [c[0] for c in net.coords.values()]
    ys = [c[1] for c in net.coords.values()]
    bbox = Rect(min(xs), min(ys), max(xs) + 1e-9, max(ys) + 1e-9)
    return SpatialGrid(bbox, grid_n, grid_n)


def compress_dataset(
    spark: SparkSession,
    instances: DataFrame,
    times: DataFrame,
    net: RoadNetwork,
    cfg: UTCQConfig,
) -> DataFrame:
    """UTCQ-compress every uncertain trajectory; one output row each."""
    bc_net = spark.sparkContext.broadcast(net)
    grid = network_grid(net, cfg.grid_n)
    duration_s = cfg.time_partition_min * 60

    joined = instances.join(times, on="traj_id", how="inner")

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        return _compress_group(pdf, bc_net.value, grid, duration_s, cfg)

    return joined.groupBy("traj_id").applyInPandas(kernel, schema=COMPRESSED_SCHEMA)


def compress_and_index(
    net: RoadNetwork,
    grid: SpatialGrid,
    duration_s: int,
    traj: TedTrajectory,
    cfg: UTCQConfig,
) -> tuple[CompressedTrajectory, list[dict], list[dict]]:
    """The per-trajectory kernel: the compressed trajectory and its
    temporal and spatial StIU tuples (the paper builds the index during
    compression)."""
    ct = compress_ted(net, traj, cfg)
    temporal, spatial = stiu.build_traj_tuples(net, grid, duration_s, traj, ct)
    return ct, temporal, spatial


def _compress_group(
    pdf: pd.DataFrame,
    net: RoadNetwork,
    grid: SpatialGrid,
    duration_s: int,
    cfg: UTCQConfig,
) -> pd.DataFrame:
    traj = group_to_ted(pdf)
    t_start = time.perf_counter()
    ct, temporal, spatial = compress_and_index(net, grid, duration_s, traj, cfg)
    compress_ms = (time.perf_counter() - t_start) * 1e3

    row = {
        "traj_id": traj.traj_id,
        "ts": traj.ts,
        "m": ct.m,
        "n_inst": len(traj.teds),
        "n_refs": len({r for r in ct.ref_of.values()}),
        "blob": ct.blob,
        "nbits": ct.nbits,
        "orig_t": ct.orig_bits["T"],
        "orig_e": ct.orig_bits["E"],
        "orig_d": ct.orig_bits["D"],
        "orig_tp": ct.orig_bits["Tp"],
        "orig_p": ct.orig_bits["p"],
        "comp_t": ct.comp_bits["T"],
        "comp_e": ct.comp_bits["E"],
        "comp_d": ct.comp_bits["D"],
        "comp_tp": ct.comp_bits["Tp"],
        "comp_p": ct.comp_bits["p"],
        "comp_meta": ct.comp_bits["meta"],
        "insts": [
            {
                "inst_id": i,
                "ref_id": ct.ref_of[i],
                "prob": ct.probs[i],
                "start": ct.inst_offsets[i]["start"],
                "d_start": ct.inst_offsets[i]["d_start"],
            }
            for i in sorted(ct.ref_of)
        ],
        "tindex": temporal,
        "sindex": spatial,
        "compress_ms": compress_ms,
    }
    return pd.DataFrame([row])


def ct_from_row(row) -> CompressedTrajectory:
    """Rebuild a :class:`CompressedTrajectory` from a compressed-DF row: a
    ``Row``, a pandas row or one of :func:`collect_rows`; its ``insts``
    elements are ``Row``s or dicts.  It carries what querying reads: no
    size accounting (the row's ``orig_*``/``comp_*`` columns hold it), no
    ``delta_offsets`` (the temporal tuples hold them) and only
    ``start``/``d_start`` per instance."""
    insts = row.insts
    return CompressedTrajectory(
        traj_id=int(row.traj_id),
        ts=int(row.ts),
        m=int(row.m),
        blob=bytes(row.blob),
        nbits=int(row.nbits),
        inst_offsets={
            i["inst_id"]: {"start": i["start"], "d_start": i["d_start"]}
            for i in insts
        },
        ref_of={i["inst_id"]: i["ref_id"] for i in insts},
        probs={i["inst_id"]: i["prob"] for i in insts},
    )


def collect_rows(df: DataFrame):
    """Collect ``df`` to the driver through Arrow, one namedtuple per row.

    Scalar and array-of-struct columns become Python values field by
    field; an array-of-struct value becomes a list of dicts whose keys are
    shared strings.  That is
    about twice as fast as ``toPandas`` (which builds each struct through
    Arrow scalars) and keeps the loaded index smaller."""
    table = df.toArrow()
    Row = namedtuple("Row", table.column_names)
    for batch in table.to_batches():
        yield from map(Row._make, zip(*map(_py_values, batch.columns)))


def _py_values(arr: pa.Array) -> list:
    t = arr.type
    if not (pa.types.is_list(t) and pa.types.is_struct(t.value_type)):
        return arr.to_numpy(zero_copy_only=False).tolist()
    names = [f.name for f in t.value_type]
    fields = [
        f.to_numpy(zero_copy_only=False).tolist() for f in arr.flatten().flatten()
    ]
    dicts = [dict(zip(names, v)) for v in zip(*fields)]
    out, i = [], 0
    for n in pc.list_value_length(arr).to_numpy(zero_copy_only=False).tolist():
        out.append(dicts[i : i + n])
        i += n
    return out


def ratio_summary(compressed: DataFrame) -> dict:
    """Table-8-style per-component compression ratios via Spark aggregation,
    for the rows of either compressor: UTCQ's (one per trajectory) or the
    TED job's (one per instance, ``comp_meta`` 0).

    T′ for UTCQ counts the trimmed reference bits plus factor streams; the
    'Total' ratio includes the container metadata in the denominator.
    """
    agg = compressed.agg(
        *[
            F.sum(c).alias(c)
            for c in (
                "orig_t", "orig_e", "orig_d", "orig_tp", "orig_p",
                "comp_t", "comp_e", "comp_d", "comp_tp", "comp_p",
                "comp_meta", "compress_ms",
            )
        ]
    ).collect()[0]

    def ratio(o, c):
        return float(o) / float(c) if c else float("inf")

    orig_sum = sum(agg[f"orig_{k}"] for k in ("t", "e", "d", "tp", "p"))
    comp_sum = (
        sum(agg[f"comp_{k}"] for k in ("t", "e", "d", "tp", "p")) + agg["comp_meta"]
    )
    return {
        "Total": ratio(orig_sum, comp_sum),
        "T": ratio(agg["orig_t"], agg["comp_t"]),
        "E": ratio(agg["orig_e"], agg["comp_e"]),
        "D": ratio(agg["orig_d"], agg["comp_d"]),
        "Tp": ratio(agg["orig_tp"], agg["comp_tp"]),
        "p": ratio(agg["orig_p"], agg["comp_p"]),
        "orig_bits": int(orig_sum),
        "comp_bits": int(comp_sum),
        "kernel_ms": float(agg["compress_ms"]),
    }
