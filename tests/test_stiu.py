"""StIU index construction tests (§5.2) on the Fig. 2 fixture."""
import pytest

from repro.bits import BitReader, decode_delta
from repro.core.compress_job import network_grid
from repro.core.config import UTCQConfig
from repro.core.encoder import compress_trajectory
from repro.core.model import instance_to_ted, ted_path
from repro.examples.fig2 import fig2_network, fig2_trajectory
from repro.query.stiu import build_traj_tuples, index_size_bits, visits_of

CFG = UTCQConfig(n_pivots=1, grid_n=8, time_partition_min=15)


@pytest.fixture(scope="module")
def built():
    net = fig2_network()
    traj = fig2_trajectory()
    ct = compress_trajectory(net, traj, CFG)
    teds = {i: instance_to_ted(net, inst) for i, inst in enumerate(traj.instances)}
    grid = network_grid(net, CFG.grid_n)
    temporal, spatial = build_traj_tuples(
        net, grid, CFG.time_partition_min * 60, traj.to_ted(net), ct
    )
    return net, traj, ct, teds, grid, temporal, spatial


class TestHelpers:
    def test_path_vertices(self, built):
        net, traj, *_ = built
        ted = instance_to_ted(net, traj.instances[0])
        verts, _ = ted_path(net, ted)
        assert verts[0] == 185190
        assert verts[-1] == 228479
        assert len(verts) == 8

    def test_visits_first_only(self, built):
        net, traj, ct, teds, grid, *_ = built
        verts, _ = ted_path(net, teds[0])
        visits = visits_of(net, grid, verts)
        regions = [r for r, _, _ in visits]
        assert len(regions) == len(set(regions))  # first visit per region


class TestTemporalTuples:
    def test_partition_duration_15min(self, built):
        *_, temporal, _ = built
        # Tu¹ spans 5:03:25–5:27:25 → 15-min partitions 20 (5:00) and 21
        # (5:15).
        assert [t["interval_id"] for t in temporal] == [20, 21]

    def test_t_start_values(self, built):
        _, traj, *_, temporal, _ = built
        tss = traj.timestamps()
        assert temporal[0]["t_start"] == tss[0]
        assert temporal[1]["t_start"] == tss[3]  # 5:15:26 is first in 5:15–5:30
        assert temporal[1]["t_no"] == 3

    def test_t_pos_decodes_remaining_deltas(self, built):
        _, traj, ct, *_ , temporal, _ = built
        tup = temporal[1]
        r = BitReader(ct.blob, ct.nbits)
        r.seek(tup["t_pos"])
        assert [decode_delta(r) for _ in range(3)] == traj.deltas[3:]


class TestSpatialTuples:
    def test_every_instance_covered(self, built):
        *_, spatial = built
        insts = {s["inst_id"] for s in spatial}
        assert insts == {0, 1, 2}

    def test_ref_tuples_aggregate_probs(self, built):
        _, _, ct, *_, spatial = built
        refs = [s for s in spatial if s["kind"] == "ref"]
        assert refs
        for s in refs:
            assert s["inst_id"] == 0  # Tu¹₁ is the only reference
            nonrefs = [
                t["inst_id"] for t in spatial
                if t["kind"] == "nonref" and t["region"] == s["region"]
            ]
            # p_max is the largest STORED p among the group's non-references
            # in the region (what the answers compare with α).
            assert s["p_max"] == max(
                (ct.probs[i] for i in nonrefs), default=0.0
            )

    def test_first_region_tuple_uses_sv(self, built):
        net, traj, ct, teds, grid, _, spatial = built
        sv_region = grid.cell_of(*net.coords[teds[0].sv])
        assert [
            s["fv_id"] for s in spatial
            if s["kind"] == "ref" and s["region"] == sv_region
        ] == [185190]

    def test_time_windows_contain_visit(self, built):
        _, traj, *_ , spatial = built
        tss = traj.timestamps()
        for s in spatial:
            assert tss[0] <= s["t_enter"] <= s["t_exit"] <= tss[-1]

    def test_nonref_tuples_reference_their_ref(self, built):
        *_, spatial = built
        for s in spatial:
            if s["kind"] == "nonref":
                assert s["ref_id"] == 0
                assert s["fv_id"] != -1  # an instance visits its own regions


class TestIndexSize:
    def test_size_accounting(self):
        assert index_size_bits(0, 0) == 0
        assert index_size_bits(2, 3) == 2 * 65 + 3 * 115
