"""Spark range-query job vs driver-side engine vs TED baseline."""
import pytest

from repro.core.compress_job import compress_dataset, network_grid
from repro.core.config import DATASET_CONFIGS
from repro.query.queries import UTCQEngine
from repro.query.query_job import range_query_job
from repro.query.stiu import index_dataframes
from repro.roadnet import grid_network
from repro.roadnet.grid import Rect
from repro.ted.ted_query import TEDBaselineEngine
from repro.trajgen import DATASET_PROFILES, generate_dataset
from repro.trajgen.spark_io import (
    INSTANCES_SCHEMA,
    TIMES_SCHEMA,
    trajectories_to_pandas,
)

CFG = DATASET_CONFIGS["test"]


@pytest.fixture(scope="module")
def setup(spark):
    net = grid_network("test")
    trajs = generate_dataset(net, DATASET_PROFILES["test"], n_traj=18)
    inst_pdf, times_pdf = trajectories_to_pandas(net, trajs)
    instances = spark.createDataFrame(inst_pdf, schema=INSTANCES_SCHEMA)
    times = spark.createDataFrame(times_pdf, schema=TIMES_SCHEMA)
    compressed = compress_dataset(spark, instances, times, net, CFG).cache()
    compressed.count()
    _, sindex = index_dataframes(compressed)
    sindex = sindex.cache()
    engine = UTCQEngine.from_compressed_df(compressed, net, CFG)
    ted = TEDBaselineEngine.from_trajectories(
        net, CFG, network_grid(net, CFG.grid_n), trajs
    )
    return net, trajs, compressed, sindex, engine, ted


QUERIES = [
    (Rect(0, 0, 700, 700), 0.3),
    (Rect(100, 100, 420, 380), 0.5),
    (Rect(300, 300, 700, 700), 0.1),
]


class TestSparkRangeJob:
    def test_matches_driver_engine(self, spark, setup):
        net, trajs, compressed, sindex, engine, _ = setup
        times = [trajs[0].t0 + 30, trajs[5].t0 + 60, trajs[11].t0]
        checked = 0
        for rect, alpha in QUERIES:
            for tq in times:
                got = range_query_job(
                    spark, compressed, sindex, net, CFG, rect, tq, alpha
                )
                exp = engine.range(rect, tq, alpha)
                assert got == exp, (rect, tq, alpha)
                checked += 1
        assert checked == 9

    def test_ted_baseline_agrees(self, setup):
        net, trajs, _, _, engine, ted = setup
        for rect, alpha in QUERIES:
            for tq in (trajs[2].t0 + 45, trajs[8].t0 + 10):
                assert ted.range(rect, tq, alpha) == engine.range(rect, tq, alpha)

    def test_ted_where_when_agree(self, setup):
        net, trajs, _, _, engine, ted = setup
        for traj in trajs[:8]:
            t = traj.t0 + 25
            a = engine.where(traj.traj_id, t, 0.2)
            b = ted.where(traj.traj_id, t, 0.2)
            assert len(a) == len(b)
            for ra, rb in zip(sorted(a), sorted(b)):
                assert ra[:3] == rb[:3]
                assert abs(ra[3] - rb[3]) < 1e-6
            edge = traj.instances[0].path[0]
            wa = engine.when(traj.traj_id, edge, 0.5, 0.2)
            wb = ted.when(traj.traj_id, edge, 0.5, 0.2)
            assert len(wa) == len(wb)
            for (ia, ta), (ib, tb) in zip(sorted(wa), sorted(wb)):
                assert ia == ib and abs(ta - tb) < 1e-6
