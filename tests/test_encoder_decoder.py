"""UTCQ binary encoder/decoder round-trip tests (Fig. 2 trajectory)."""
import pytest

from repro.bits import BitReader, decode_delta
from repro.core.config import UTCQConfig, Widths
from repro.core.decoder import decode_instance_partial, decode_trajectory
from repro.core.encoder import compress_trajectory, encode_trajectory
from repro.core.model import (
    Instance,
    UncertainTrajectory,
    instance_to_ted,
    siar_timestamps,
)
from repro.core.refselect import ReferenceAssignment
from repro.examples.fig2 import V1, V2, V3, V4, fig2_network, fig2_trajectory

CFG = UTCQConfig(n_pivots=1, eta_d=1 / 128, eta_p=1 / 512)


@pytest.fixture(scope="module")
def net():
    return fig2_network()


@pytest.fixture(scope="module")
def traj():
    return fig2_trajectory()


@pytest.fixture(scope="module")
def ct(net, traj):
    return compress_trajectory(net, traj, CFG)


@pytest.fixture(scope="module")
def decoded(ct, net):
    return decode_trajectory(ct, CFG, net.max_out_degree)


class TestRoundTrip:
    def test_time_lossless(self, decoded, traj):
        assert decoded.t0 == traj.t0
        assert decoded.deltas == traj.deltas
        assert decoded.timestamps() == traj.timestamps()

    def test_all_instances_present(self, decoded, traj):
        assert set(decoded.teds) == {0, 1, 2}

    def test_e_lossless(self, decoded, net, traj):
        for i, inst in enumerate(traj.instances):
            expect = instance_to_ted(net, inst)
            assert decoded.teds[i].sv == expect.sv
            assert decoded.teds[i].entries == expect.entries

    def test_tflag_lossless(self, decoded, net, traj):
        for i, inst in enumerate(traj.instances):
            expect = instance_to_ted(net, inst)
            assert decoded.teds[i].tflag == expect.tflag

    def test_d_within_bound(self, decoded, net, traj):
        for i, inst in enumerate(traj.instances):
            expect = instance_to_ted(net, inst)
            for a, b in zip(decoded.teds[i].d, expect.d):
                assert abs(a - b) <= CFG.eta_d

    def test_p_within_bound(self, decoded, traj):
        for i, inst in enumerate(traj.instances):
            assert abs(decoded.teds[i].prob - inst.prob) <= CFG.eta_p

    def test_reference_assignment_example2(self, ct, decoded):
        # Example 2: Tu¹₁ is the reference for both other instances.
        assert ct.ref_of == {0: 0, 1: 0, 2: 0}
        assert decoded.ref_of == ct.ref_of


class TestSizeAccounting:
    def test_widths(self, ct, net):
        # §4.4 on Fig. 2: o = 4 (edge numbers 0..4 with the extra-point 0s),
        # η_D = 1/128, η_p = 1/512 and m = 7 sample points.
        wd = Widths.of(ct.m, CFG, net.max_out_degree)
        assert wd == Widths(m=7, be=3, bd=7, bp=9, bm=3)

    def test_blob_length_matches_components(self, ct):
        assert ct.nbits == sum(ct.comp_bits.values())
        assert len(ct.blob) == (ct.nbits + 7) // 8

    def test_orig_bits(self, ct, traj, net):
        m = traj.num_points
        teds = [instance_to_ted(net, i) for i in traj.instances]
        # raw NCUT input stores the time sequence once per instance
        assert ct.orig_bits["T"] == 32 * m * 3
        assert ct.orig_bits["E"] == sum(32 * (1 + len(t.entries)) for t in teds)
        assert ct.orig_bits["Tp"] == sum(len(t.tflag) for t in teds)
        assert ct.orig_bits["D"] == 64 * m * 3
        assert ct.orig_bits["p"] == 64 * 3

    def test_compresses(self, ct):
        assert sum(ct.comp_bits.values()) < sum(ct.orig_bits.values())

    def test_t_compression_matches_paper_arithmetic(self, ct):
        # §4.4: deltas ⟨0,1,0,−1,0,0⟩ cost 12 bits, t0 costs 17; the
        # paper's 7.72 ratio example counts ONE stored copy of the raw
        # time sequence (32·7 bits).
        assert ct.comp_bits["T"] == 17 + 12
        assert (32 * 7) / ct.comp_bits["T"] == pytest.approx(7.72, abs=0.01)

    def test_nonref_e_cheaper_than_ref_e(self, ct, net, traj):
        # Referential representation: the two non-references' E cost less
        # than the reference's explicit encoding.
        teds = [instance_to_ted(net, i) for i in traj.instances]
        ref_bits = 32 + 16 + 3 * len(teds[0].entries)
        nonref_bits = ct.comp_bits["E"] - ref_bits
        assert nonref_bits < ref_bits


class TestPartialDecoding:
    def test_delta_offsets(self, ct, traj):
        assert len(ct.delta_offsets) == traj.num_points - 1
        # Decode from the 3rd delta onward using the recorded offset.
        r = BitReader(ct.blob, ct.nbits)
        r.seek(ct.delta_offsets[2])
        assert [decode_delta(r) for _ in range(4)] == traj.deltas[2:]

    def test_timestamps_from_anchor(self, traj):
        full = traj.timestamps()
        rebuilt = siar_timestamps(full[2], traj.ts, traj.deltas[2:])
        assert rebuilt == full[2:]

    def test_inst_offsets_kinds(self, ct):
        # Each instance records the two offsets partial decoding seeks: its
        # p field and its D (reference) or ComD (non-reference) section.
        for i in (0, 1, 2):
            off = ct.inst_offsets[i]
            assert sorted(off) == ["d_start", "start"]
            assert 0 < off["start"] < off["d_start"] < ct.nbits


class TestEdgeCases:
    def test_single_instance_trajectory(self, net, traj):
        import copy

        t = copy.deepcopy(traj)
        t.instances = [t.instances[0]]
        t.instances[0].prob = 1.0
        ct1 = compress_trajectory(net, t, CFG)
        dec = decode_trajectory(ct1, CFG, net.max_out_degree)
        assert set(dec.teds) == {0}
        assert dec.ref_of == {0: 0}

    def test_standalone_refs_with_different_sv(self, net, traj):
        import copy

        t = copy.deepcopy(traj)
        # Force a different start vertex on instance 1 so SF = 0 for its
        # pairs → instance 1 ends standalone.
        v9, v8 = 228480, 228479
        t.instances[1].path = [(v9, v8), (v8, 228478), (228478, 228477)]
        t.instances[1].point_edge_idx = [0, 1, 1, 1, 2, 2, 2]
        t.instances[1].rds = [0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3]
        ct1 = compress_trajectory(net, t, CFG)
        assert ct1.ref_of[1] == 1
        dec = decode_trajectory(ct1, CFG, net.max_out_degree)
        assert dec.teds[1].sv == v9

    def test_two_entry_nonref_keeps_empty_tflag(self, net):
        # A non-reference with two E entries has an empty trimmed T′, coded
        # as zero ComT′ factors — the same code as "T′ of the reference".
        ref = Instance(0.6, [(V1, V2), (V2, V3), (V3, V4)], [0, 2], [0.5, 0.25])
        two = Instance(0.4, [(V1, V2), (V2, V3)], [0, 1], [0.5, 0.25])
        t = UncertainTrajectory(7, 1000, [0], 240, [ref, two])
        teds = [instance_to_ted(net, i) for i in t.instances]
        assert len(teds[1].entries) == 2 and teds[0].trimmed_tflag()
        ct2 = encode_trajectory(
            net, t.to_ted(net), ReferenceAssignment({0: [1]}), CFG
        )
        full = decode_trajectory(ct2, CFG, net.max_out_degree)
        cache = {}
        no_d = decode_instance_partial(
            ct2, CFG, net.max_out_degree, 1, cache, need_d=False
        )
        with_d = decode_instance_partial(ct2, CFG, net.max_out_degree, 1, cache)
        for got in (full.teds[1], no_d, with_d):
            assert (got.sv, got.entries, got.tflag) == (
                teds[1].sv, teds[1].entries, teds[1].tflag
            )
        assert no_d.d == [] and full.teds[1].d == with_d.d
        assert all(abs(a - b) <= CFG.eta_d for a, b in zip(with_d.d, teds[1].d))
