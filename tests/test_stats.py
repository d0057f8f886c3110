"""Tables 5/6 statistics module tests (with DuckDB oracle cross-checks)."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.roadnet import grid_network
from repro.stats import table5_stats, table6_stats
from repro.trajgen import DATASET_PROFILES, generate_dataset
from repro.trajgen.spark_io import (
    INSTANCES_SCHEMA,
    TIMES_SCHEMA,
    trajectories_to_pandas,
)


@pytest.fixture(scope="module")
def data(spark):
    net = grid_network("test")
    trajs = generate_dataset(net, DATASET_PROFILES["test"], n_traj=20)
    inst_pdf, times_pdf = trajectories_to_pandas(net, trajs)
    instances = spark.createDataFrame(inst_pdf, schema=INSTANCES_SCHEMA)
    times = spark.createDataFrame(times_pdf, schema=TIMES_SCHEMA)
    return net, trajs, instances, times, inst_pdf


class TestTable6:
    def test_matches_network(self, spark):
        net = grid_network("test")
        s = table6_stats(spark, net)
        assert s["n_vertices"] == len(net.coords)
        assert s["n_edges"] == len(net.lengths)
        assert s["max_out_degree"] == net.max_out_degree
        assert s["avg_out_degree"] == pytest.approx(net.avg_out_degree())


class TestTable5:
    def test_counts(self, spark, data):
        net, trajs, instances, times, _ = data
        s = table5_stats(spark, instances, times, 10)
        assert s["n_traj"] == len(trajs)
        n_inst = sum(len(t.instances) for t in trajs)
        avg = n_inst / len(trajs)
        assert s["instances_avg"] == pytest.approx(avg)
        assert s["default_sample_interval_s"] == 10

    def test_edge_stats(self, spark, data):
        net, trajs, instances, times, _ = data
        s = table5_stats(spark, instances, times, 10)
        lens = [len(i.path) for t in trajs for i in t.instances]
        assert s["edges_min"] == min(lens)
        assert s["edges_max"] == max(lens)

    def test_storage_positive(self, spark, data):
        net, trajs, instances, times, _ = data
        s = table5_stats(spark, instances, times, 10)
        assert s["storage_mb"] > 0

    def test_instance_agg_oracle(self, spark, data):
        """The per-trajectory instance-count aggregation vs DuckDB."""
        _, _, instances, _, inst_pdf = data
        got = (
            instances.groupBy("traj_id")
            .agg(F.count("*").alias("n_inst"))
            .select("traj_id", "n_inst")
        )
        flat = inst_pdf[["traj_id", "inst_id"]]
        assert_equivalent(
            got,
            "SELECT traj_id, count(*) AS n_inst FROM inst GROUP BY traj_id",
            inst=flat,
        )
