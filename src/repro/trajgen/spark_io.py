"""Spark IO for NCUT datasets: explicit schemas, distributed generation,
and the expanded point tables the DuckDB oracle queries.

The canonical DataFrame layout (DESIGN.md §3):

* ``instances(traj_id, inst_id, prob, sv, e, tflag, d)`` — one row per
  uncertain-trajectory instance in improved-TED form;
* ``times(traj_id, t0, ts, deltas)`` — the shared SIAR time sequence.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.model import TedTrajectory, TedTuple, UncertainTrajectory
from repro.roadnet.generator import NETWORK_PROFILES, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.trajgen.profiles import DATASET_PROFILES, DatasetProfile
from repro.trajgen.uncertain import generate_trajectory

INSTANCES_SCHEMA = T.StructType(
    [
        T.StructField("traj_id", T.LongType(), False),
        T.StructField("inst_id", T.IntegerType(), False),
        T.StructField("prob", T.DoubleType(), False),
        T.StructField("sv", T.LongType(), False),
        T.StructField("e", T.ArrayType(T.IntegerType()), False),
        T.StructField("tflag", T.ArrayType(T.IntegerType()), False),
        T.StructField("d", T.ArrayType(T.DoubleType()), False),
    ]
)

TIMES_SCHEMA = T.StructType(
    [
        T.StructField("traj_id", T.LongType(), False),
        T.StructField("t0", T.LongType(), False),
        T.StructField("ts", T.IntegerType(), False),
        T.StructField("deltas", T.ArrayType(T.IntegerType()), False),
    ]
)


def trajectories_to_pandas(
    net: RoadNetwork, trajs: list[UncertainTrajectory]
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Model objects → (instances, times) pandas frames in TED form."""
    inst_rows = []
    time_rows = []
    for traj in trajs:
        time_rows.append(
            {
                "traj_id": traj.traj_id,
                "t0": traj.t0,
                "ts": traj.ts,
                "deltas": list(traj.deltas),
            }
        )
        for i, t in enumerate(traj.to_ted(net).teds):
            inst_rows.append(
                {
                    "traj_id": traj.traj_id,
                    "inst_id": i,
                    "prob": t.prob,
                    "sv": t.sv,
                    "e": list(t.entries),
                    "tflag": list(t.tflag),
                    "d": list(t.d),
                }
            )
    return pd.DataFrame(inst_rows), pd.DataFrame(time_rows)


def dataset_df(
    spark: SparkSession,
    profile: DatasetProfile | str,
    n_traj: int | None = None,
    partitions: int | None = None,
) -> tuple[DataFrame, DataFrame, RoadNetwork]:
    """Distributed dataset generation: ``spark.range`` over trajectory ids,
    ``mapInPandas`` with the road network broadcast to the executors."""
    if isinstance(profile, str):
        profile = DATASET_PROFILES[profile]
    net = grid_network(NETWORK_PROFILES[profile.network])
    n = profile.n_traj if n_traj is None else n_traj
    bc_net = spark.sparkContext.broadcast(net)
    prof = profile

    def gen_instances(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        network = bc_net.value
        for pdf in batches:
            rows_i, _ = _gen_rows(network, prof, pdf["id"].tolist())
            yield rows_i

    def gen_times(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        network = bc_net.value
        for pdf in batches:
            _, rows_t = _gen_rows(network, prof, pdf["id"].tolist())
            yield rows_t

    ids = spark.range(n, numPartitions=partitions)
    instances = ids.mapInPandas(gen_instances, schema=INSTANCES_SCHEMA)
    times = ids.mapInPandas(gen_times, schema=TIMES_SCHEMA)
    return instances, times, net


def _gen_rows(
    net: RoadNetwork, profile: DatasetProfile, ids: list[int]
) -> tuple[pd.DataFrame, pd.DataFrame]:
    trajs = [generate_trajectory(net, profile, int(tid)) for tid in ids]
    return trajectories_to_pandas(net, trajs)


def group_to_ted(pdf: pd.DataFrame) -> TedTrajectory:
    """One trajectory's instance rows joined with its time row → its TED
    form, instances sorted by ``inst_id``.  The compressors'
    ``applyInPandas`` kernels read their groups through this alone."""
    pdf = pdf.sort_values("inst_id")
    if pdf["inst_id"].tolist() != list(range(len(pdf))):
        raise ValueError("inst_id of one trajectory must run 0..n-1")
    teds = [
        TedTuple(
            int(r.sv),
            [int(x) for x in r.e],
            [int(x) for x in r.tflag],
            [float(x) for x in r.d],
            float(r.prob),
        )
        for r in pdf.itertuples()
    ]
    first = pdf.iloc[0]
    return TedTrajectory(
        int(first["traj_id"]),
        int(first["t0"]),
        [int(x) for x in first["deltas"]],
        int(first["ts"]),
        teds,
    )


def expand_points(
    net: RoadNetwork, trajs: list[UncertainTrajectory]
) -> pd.DataFrame:
    """Oracle table: one row per (instance, sample point) with absolute
    timestamp, edge, network distance, and point coordinates."""
    rows = []
    for traj in trajs:
        tss = traj.timestamps()
        for i, inst in enumerate(traj.instances):
            for k, (e_idx, rd) in enumerate(zip(inst.point_edge_idx, inst.rds)):
                u, v = inst.path[e_idx]
                (x1, y1), (x2, y2) = net.coords[u], net.coords[v]
                rows.append(
                    {
                        "traj_id": traj.traj_id,
                        "inst_id": i,
                        "seq": k,
                        "t": tss[k],
                        "u": u,
                        "v": v,
                        "ndist": rd * net.edge_length(u, v),
                        "rd": rd,
                        "x": x1 + rd * (x2 - x1),
                        "y": y1 + rd * (y2 - y1),
                        "prob": inst.prob,
                    }
                )
    return pd.DataFrame(rows)
