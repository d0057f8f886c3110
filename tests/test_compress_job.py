"""End-to-end Spark compression job tests on the tiny test dataset."""
import pytest

from repro.core.compress_job import (
    _compress_group,
    compress_dataset,
    ct_from_row,
    network_grid,
    ratio_summary,
)
from repro.core.config import DATASET_CONFIGS
from repro.core.decoder import decode_trajectory
from repro.core.encoder import compress_trajectory
from repro.core.model import instance_to_ted
from repro.oracle import assert_equivalent
from repro.query.queries import UTCQEngine
from repro.query.stiu import SPATIAL_TUPLE_SCHEMA, index_dataframes
from repro.roadnet import grid_network
from repro.trajgen import DATASET_PROFILES, generate_dataset
from repro.trajgen.spark_io import dataset_df, trajectories_to_pandas

CFG = DATASET_CONFIGS["test"]


@pytest.fixture(scope="module")
def net():
    return grid_network("test")


@pytest.fixture(scope="module")
def trajs(net):
    return generate_dataset(net, DATASET_PROFILES["test"], n_traj=25)


@pytest.fixture(scope="module")
def dfs(spark, net, trajs):
    inst_pdf, times_pdf = trajectories_to_pandas(net, trajs)
    from repro.trajgen.spark_io import INSTANCES_SCHEMA, TIMES_SCHEMA

    instances = spark.createDataFrame(inst_pdf, schema=INSTANCES_SCHEMA)
    times = spark.createDataFrame(times_pdf, schema=TIMES_SCHEMA)
    return instances, times


@pytest.fixture(scope="module")
def compressed(spark, dfs, net):
    instances, times = dfs
    df = compress_dataset(spark, instances, times, net, CFG).cache()
    df.count()
    return df


class TestJob:
    def test_one_row_per_trajectory(self, compressed, trajs):
        assert compressed.count() == len(trajs)
        ids = {r.traj_id for r in compressed.select("traj_id").collect()}
        assert ids == {t.traj_id for t in trajs}

    def test_ratios_positive(self, compressed):
        summary = ratio_summary(compressed)
        for k in ("Total", "T", "E", "D", "Tp", "p"):
            assert summary[k] > 1.0, (k, summary)

    def test_referential_tp_beats_one(self, compressed):
        # TED's T' ratio is 1 by construction; UTCQ must beat it.  (The
        # margin is small on the tiny test profile — see EXPERIMENTS.md for
        # the benchmark-scale numbers and the Tp accounting note.)
        assert ratio_summary(compressed)["Tp"] > 1.05

    def test_instance_counts(self, compressed, trajs):
        got = {r.traj_id: r.n_inst for r in compressed.collect()}
        for t in trajs:
            assert got[t.traj_id] == len(t.instances)


class TestLossless:
    def test_full_roundtrip_all_trajectories(self, compressed, net, trajs):
        by_id = {t.traj_id: t for t in trajs}
        for row in compressed.collect():
            ct = ct_from_row(row)
            dec = decode_trajectory(ct, CFG, net.max_out_degree)
            traj = by_id[row.traj_id]
            assert dec.t0 == traj.t0
            assert dec.deltas == traj.deltas
            assert set(dec.teds) == set(range(len(traj.instances)))
            for i, inst in enumerate(traj.instances):
                expect = instance_to_ted(net, inst)
                assert dec.teds[i].sv == expect.sv
                assert dec.teds[i].entries == expect.entries
                assert dec.teds[i].tflag == expect.tflag
                for a, b in zip(dec.teds[i].d, expect.d):
                    assert abs(a - b) <= CFG.eta_d
                assert abs(dec.teds[i].prob - inst.prob) <= CFG.eta_p


class TestTypedRow:
    def test_only_blob_is_binary_and_no_string_holds_serialized_data(
        self, compressed
    ):
        from pyspark.sql.types import ArrayType, BinaryType, StringType, StructType

        def leaves(dtype, name):
            if isinstance(dtype, ArrayType):
                return leaves(dtype.elementType, name)
            if isinstance(dtype, StructType):
                return [
                    leaf
                    for f in dtype.fields
                    for leaf in leaves(f.dataType, f"{name}.{f.name}")
                ]
            return [(name, dtype)]

        fields = [
            leaf for f in compressed.schema.fields for leaf in leaves(f.dataType, f.name)
        ]
        assert [n for n, t in fields if isinstance(t, BinaryType)] == ["blob"]
        assert [n for n, t in fields if isinstance(t, StringType)] == ["sindex.kind"]
        _, sindex = index_dataframes(compressed)
        kinds = {r.kind for r in sindex.select("kind").distinct().collect()}
        assert kinds == {"ref", "nonref"}

    def test_spatial_tuple_fields_are_the_ones_queries_read(
        self, compressed, net, trajs
    ):
        import re

        fields = [
            "inst_id", "ref_id", "kind", "region",
            "fv_id", "p_max", "t_enter", "t_exit",
        ]
        _, sindex = index_dataframes(compressed)
        assert sindex.columns == ["traj_id"] + fields
        assert re.findall(r"(\w+):", SPATIAL_TUPLE_SCHEMA) == fields
        engine = UTCQEngine.from_trajectories(net, CFG, trajs[:2])
        for e in engine.entries.values():
            assert e.spatial
            assert all(list(s) == fields for s in e.spatial)

    def test_row_probs_equal_decoded_probs(self, compressed, net):
        for row in compressed.collect():
            ct = ct_from_row(row)
            dec = decode_trajectory(ct, CFG, net.max_out_degree)
            assert ct.probs == {i: t.prob for i, t in dec.teds.items()}

    def test_engine_from_rows_matches_driver_side_engine(
        self, compressed, net, trajs
    ):
        got = UTCQEngine.from_compressed_df(compressed, net, CFG).entries
        want = UTCQEngine.from_trajectories(net, CFG, trajs).entries
        assert sorted(got) == sorted(want)
        for tid, w in want.items():
            g = got[tid]
            assert (g.ct.blob, g.ct.nbits) == (w.ct.blob, w.ct.nbits)
            assert g.ct.ref_of == w.ct.ref_of
            assert g.ct.probs == w.ct.probs
            assert g.ct.inst_offsets == w.ct.inst_offsets
            assert g.temporal == w.temporal
            assert g.spatial == w.spatial


class TestRowReader:
    def test_rows_in_reverse_inst_id_order_give_the_same_blob(self, net, trajs):
        # A group's rows reach the kernel in no set order; the row reader
        # sorts them by inst_id.
        multi = [t for t in trajs if len(t.instances) > 1][:3]
        assert multi
        inst_pdf, times_pdf = trajectories_to_pandas(net, multi)
        joined = inst_pdf.merge(times_pdf, on="traj_id")
        grid = network_grid(net, CFG.grid_n)
        duration_s = CFG.time_partition_min * 60
        for t in multi:
            pdf = joined[joined["traj_id"] == t.traj_id]
            fwd = _compress_group(pdf, net, grid, duration_s, CFG).iloc[0]
            rev = _compress_group(pdf.iloc[::-1], net, grid, duration_s, CFG).iloc[0]
            assert rev["blob"] == fwd["blob"] == compress_trajectory(net, t, CFG).blob
            for col in ("nbits", "insts", "tindex", "sindex"):
                assert rev[col] == fwd[col], col
        # Instance ids are positions in the blob, so a gap is rejected.
        with pytest.raises(ValueError):
            _compress_group(pdf.iloc[1:], net, grid, duration_s, CFG)


class TestAggregationOracle:
    def test_ratio_sums_match_duckdb(self, spark, compressed):
        """The Spark size aggregation behind Table 8 checked against DuckDB."""
        cols = [
            "traj_id", "orig_t", "orig_e", "orig_d", "orig_tp", "orig_p",
            "comp_t", "comp_e", "comp_d", "comp_tp", "comp_p", "comp_meta",
        ]
        plain = compressed.select(*cols)
        spark_sums = plain.groupBy().sum(*cols[1:]).toDF(*[f"s_{c}" for c in cols[1:]])
        sql = (
            "SELECT "
            + ", ".join(f"sum({c}) AS s_{c}" for c in cols[1:])
            + " FROM comp"
        )
        assert_equivalent(spark_sums, sql, comp=plain)


class TestIndexDataFrames:
    def test_explode(self, compressed, trajs):
        tindex, sindex = index_dataframes(compressed)
        assert tindex.count() >= len(trajs)  # ≥1 interval per trajectory
        assert sindex.count() > 0
        tcols = set(tindex.columns)
        assert {"traj_id", "interval_id", "t_start", "t_no", "t_pos"} <= tcols
        scols = set(sindex.columns)
        assert {"traj_id", "inst_id", "kind", "region", "p_max"} <= scols

    def test_temporal_tuples_reference_real_timestamps(self, compressed, trajs):
        tindex, _ = index_dataframes(compressed)
        by_id = {t.traj_id: set(t.timestamps()) for t in trajs}
        for r in tindex.collect():
            assert r.t_start in by_id[r.traj_id]
            iv = r.t_start // (CFG.time_partition_min * 60)
            assert iv == r.interval_id

    def test_spatial_ref_tuples_have_probability_aggregates(self, compressed):
        _, sindex = index_dataframes(compressed)
        refs = sindex.filter("kind = 'ref'").collect()
        assert refs
        for r in refs:
            assert 0.0 <= r.p_max <= 1.0

    def test_distributed_generation_matches_driver(self, spark, net, trajs):
        inst_df, times_df, net2 = dataset_df(spark, "test", n_traj=25)
        assert net2.adj == net.adj
        inst_pdf = inst_df.orderBy("traj_id", "inst_id").toPandas()
        exp_pdf, _ = trajectories_to_pandas(net, trajs)
        exp_pdf = exp_pdf.sort_values(["traj_id", "inst_id"]).reset_index(drop=True)
        assert len(inst_pdf) == len(exp_pdf)
        assert inst_pdf["sv"].tolist() == exp_pdf["sv"].tolist()
        assert [list(x) for x in inst_pdf["e"]] == [list(x) for x in exp_pdf["e"]]
