"""TED baseline tests: Table 2 time pairs, matrix stage, Spark job."""
import pytest

from repro.core.compress_job import ratio_summary
from repro.core.config import DATASET_CONFIGS, Widths
from repro.core.encoder import compress_trajectory
from repro.core.model import instance_to_ted
from repro.examples.fig2 import fig2_network, fig2_trajectory
from repro.oracle import assert_equivalent
from repro.roadnet import grid_network
from repro.ted.matrix import compress_group, radix_pack_bits
from repro.ted.ted_encode import (
    TED_PAIR_BITS,
    decode_instance_payload,
    e_bitstring,
    encode_instance_payload,
    ted_time_pairs,
)
from repro.ted.ted_job import ted_compress_dataset
from repro.trajgen import DATASET_PROFILES, generate_dataset
from repro.trajgen.spark_io import (
    INSTANCES_SCHEMA,
    TIMES_SCHEMA,
    trajectories_to_pandas,
)

CFG = DATASET_CONFIGS["test"]


def ted_time_decode(pairs: list[tuple[int, int]]) -> list[int]:
    """Inverse of ``ted_time_pairs``: TED's T is lossless."""
    if not pairs:
        return []
    out: list[int] = []
    for (i, ti), (j, tj) in zip(pairs[:-1], pairs[1:]):
        step = (tj - ti) // (j - i)
        out.extend(ti + (k - i) * step for k in range(i, j))
    out.append(pairs[-1][1])
    return out


class TestTimePairs:
    def test_table2_sequence(self):
        tss = fig2_trajectory().timestamps()
        pairs = ted_time_pairs(tss)
        assert [i for i, _ in pairs] == [0, 1, 2, 3, 4, 6]
        assert pairs[0] == (0, tss[0])
        assert pairs[-1] == (6, tss[6])

    def test_roundtrip_table2(self):
        tss = fig2_trajectory().timestamps()
        assert ted_time_decode(ted_time_pairs(tss)) == tss

    def test_constant_interval_keeps_two(self):
        tss = [100, 110, 120, 130, 140]
        pairs = ted_time_pairs(tss)
        assert [i for i, _ in pairs] == [0, 4]
        assert ted_time_decode(pairs) == tss

    def test_every_interval_changes(self):
        tss = [0, 10, 25, 30, 50]
        pairs = ted_time_pairs(tss)
        assert ted_time_decode(pairs) == tss
        assert len(pairs) == 5

    def test_short_sequences(self):
        assert ted_time_pairs([]) == []
        assert ted_time_pairs([7]) == [(0, 7)]
        assert ted_time_decode(ted_time_pairs([7, 19])) == [7, 19]

    def test_paper_ratio_example(self):
        # §4.4: TED's ratio on the running example is 32·7/(29·6) = 1.29.
        tss = fig2_trajectory().timestamps()
        comp = TED_PAIR_BITS * len(ted_time_pairs(tss))
        assert 32 * 7 / comp == pytest.approx(1.29, abs=0.01)


class TestEBitstring:
    def test_fig2_codes(self):
        net = fig2_network()
        ted = instance_to_ted(net, fig2_trajectory().instances[0])
        be = Widths.of(len(ted.d), CFG, net.max_out_degree).be
        code = e_bitstring(ted, be)
        assert len(code) == be * len(ted.entries)
        assert set(code) <= {"0", "1"}
        # first entry (1) in 3 bits
        assert code[:3] == "001"


class TestMatrix:
    def test_empty(self):
        assert compress_group([])["total_bits"] == 0

    def test_identical_codes_compress(self):
        codes = ["00101100" * 4] * 30  # realistic 32-bit codes, identical
        res = compress_group(codes)
        assert res["n_bases"] == 1
        assert res["total_bits"] < 32 * 30

    def test_random_codes_never_expand(self):
        import random

        rng = random.Random(0)
        codes = [
            "".join(rng.choice("01") for _ in range(24)) for _ in range(100)
        ]
        res = compress_group(codes)
        assert res["total_bits"] <= 24 * 100

    def test_high_bits_zero_observation(self):
        # Long codes with mostly-zero high bits and few low-bit variants:
        # exactly TED's motivation for the bases.
        codes = [("0" * 28) + format(i % 4, "04b") for i in range(60)]
        res = compress_group(codes)
        assert res["n_bases"] >= 1
        assert res["total_bits"] < 32 * 60

    def test_lossless(self):
        import random

        rng = random.Random(1)
        codes = [
            "".join(rng.choice("01") for _ in range(12)) for _ in range(30)
        ]
        # Mixed-radix packing: the digits give back every row's entries,
        # and a packed row fits in the bits the radix plan charges.
        be = 3
        rows = [[int(c[i : i + be], 2) for i in range(0, 12, be)] for c in codes]
        radix = [max(col) + 1 for col in zip(*rows)]
        per_row = radix_pack_bits([r - 1 for r in radix])
        for entries in rows:
            packed = 0
            for v, rx in zip(entries, radix):
                packed = packed * rx + v
            assert packed < 1 << per_row
            digits = []
            for rx in reversed(radix):
                packed, v = divmod(packed, rx)
                digits.append(v)
            assert digits[::-1] == entries

    def test_row_accounting(self):
        codes = ["001100110011"] * 16
        res = compress_group(codes)
        assert len(res["rows"]) == 16
        if not res.get("fallback"):
            assert res["total_bits"] == res["dict_bits"] + sum(res["rows"])


class TestPayload:
    def test_roundtrip(self):
        net = fig2_network()
        traj = fig2_trajectory()
        wd = Widths.of(traj.num_points, CFG, net.max_out_degree)
        for inst in traj.instances:
            ted = instance_to_ted(net, inst)
            back = decode_instance_payload(encode_instance_payload(ted, wd), wd)
            assert back.sv == ted.sv
            assert back.entries == ted.entries
            assert back.tflag == ted.tflag
            for a, b in zip(back.d, ted.d):
                assert abs(a - b) <= CFG.eta_d
            assert abs(back.prob - ted.prob) <= CFG.eta_p


class TestTedJob:
    @pytest.fixture(scope="class")
    def final(self, spark):
        net = grid_network("test")
        trajs = generate_dataset(net, DATASET_PROFILES["test"], n_traj=20)
        inst_pdf, times_pdf = trajectories_to_pandas(net, trajs)
        instances = spark.createDataFrame(inst_pdf, schema=INSTANCES_SCHEMA)
        times = spark.createDataFrame(times_pdf, schema=TIMES_SCHEMA)
        df = ted_compress_dataset(spark, instances, times, net, CFG).cache()
        df.count()
        return df, trajs

    @pytest.fixture(scope="class")
    def rows(self, final):
        return final[0].collect()

    def test_row_per_instance(self, final):
        df, trajs = final
        assert df.count() == sum(len(t.instances) for t in trajs)

    def test_ratios(self, final, rows):
        df, _ = final
        s = ratio_summary(df)
        assert s["Tp"] == pytest.approx(1.0)  # bitmap compression omitted
        assert s["p"] == pytest.approx(64 / 9, abs=0.01)
        assert s["D"] == pytest.approx(64 / 7, abs=0.01)
        assert s["Total"] > 1.0
        assert s["T"] > 1.0
        orig = sum(r[f"orig_{k}"] for r in rows for k in ("t", "e", "d", "tp", "p"))
        comp = sum(
            r[f"comp_{k}"] for r in rows for k in ("t", "e", "d", "tp", "p", "meta")
        )
        assert s["Total"] == orig / comp

    def test_original_bits_match_utcq(self, final, rows):
        # Both compressors count the same original size per trajectory.
        _, trajs = final
        got: dict[int, dict[str, int]] = {}
        for r in rows:
            acc = got.setdefault(r.traj_id, dict.fromkeys(("T", "E", "D", "Tp", "p"), 0))
            for c in acc:
                acc[c] += r[f"orig_{c.lower()}"]
        net = grid_network("test")
        for traj in trajs:
            want = compress_trajectory(net, traj, CFG).orig_bits
            assert {**got[traj.traj_id], "meta": 0} == want

    def test_matrix_helps_e(self, final):
        df, _ = final
        import pyspark.sql.functions as F

        row = df.agg(
            F.sum("comp_e_pre").alias("pre"), F.sum("comp_e").alias("post")
        ).collect()[0]
        # post includes the 32-bit SV which pre also includes; the matrix
        # stage must not expand the entry bits.
        assert row.post <= row.pre

    def test_sum_oracle(self, spark, final):
        df, _ = final
        plain = df.select("traj_id", "orig_e", "comp_e")
        got = plain.groupBy().sum("orig_e", "comp_e").toDF("s_orig", "s_comp")
        assert_equivalent(
            got,
            "SELECT sum(orig_e) AS s_orig, sum(comp_e) AS s_comp FROM ted",
            ted=plain,
        )
