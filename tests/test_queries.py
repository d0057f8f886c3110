"""UTCQ query engine tests: paper examples, equivalence with the reference
implementation on decoded data, and lemma-pruning soundness."""
import pytest

from repro.core.config import DATASET_CONFIGS, UTCQConfig
from repro.core.decoder import decode_trajectory
from repro.core.encoder import compress_trajectory
from repro.core.model import UncertainTrajectory, ted_to_instance
from repro.examples.fig2 import V2, V10, fig2_network, fig2_trajectory
from repro.query.queries import UTCQEngine
from repro.query.reference import (
    range_query_ref,
    when_query_ref,
    where_query_ref,
)
from repro.roadnet import grid_network
from repro.roadnet.grid import Rect
from repro.trajgen import DATASET_PROFILES, generate_dataset

CFG = DATASET_CONFIGS["test"]


def hms(h, m, s):
    return h * 3600 + m * 60 + s


def decoded_of(net, cfg, traj) -> UncertainTrajectory:
    """The decoded (η-quantized) trajectory — the exact-match oracle."""
    ct = compress_trajectory(net, traj, cfg)
    dec = decode_trajectory(ct, cfg, net.max_out_degree)
    insts = [ted_to_instance(net, dec.teds[i]) for i in sorted(dec.teds)]
    return UncertainTrajectory(traj.traj_id, dec.t0, dec.deltas, dec.ts, insts)


@pytest.fixture(scope="module")
def fig2_engine():
    net = fig2_network()
    cfg = UTCQConfig(n_pivots=1, grid_n=8, time_partition_min=15)
    return net, cfg, UTCQEngine.from_trajectories(net, cfg, [fig2_trajectory()])


class TestFig2Examples:
    def test_example3_where(self, fig2_engine):
        _, _, eng = fig2_engine
        res = eng.where(1, hms(5, 21, 25), 0.25)
        assert res == [(0, 228477, 228478, pytest.approx(150.0))]

    def test_example3_when(self, fig2_engine):
        _, _, eng = fig2_engine
        res = eng.when(1, (228477, 228478), 0.75, 0.25)
        assert res == [(0, pytest.approx(hms(5, 21, 25)))]

    def test_example4_range_hit(self, fig2_engine):
        _, _, eng = fig2_engine
        assert eng.range(Rect(0, -50, 600, 120), hms(5, 5, 25), 0.5) == [1]

    def test_example4_range_miss(self, fig2_engine):
        _, _, eng = fig2_engine
        assert eng.range(Rect(2000, 2000, 2500, 2500), hms(5, 5, 25), 0.5) == []

    def test_example5_lemma1_filters_nonrefs(self, fig2_engine):
        # when(Tu¹, ⟨(185191→185192), 0.25⟩, 0.5): p_max w.r.t. the region
        # is 0.2 < 0.5, so non-references are pruned; the reference itself
        # (p = 0.75) passes that edge.
        _, _, eng = fig2_engine
        with_l1 = eng.when(1, (185191, 185192), 0.25, 0.5, use_lemma1=True)
        without = eng.when(1, (185191, 185192), 0.25, 0.5, use_lemma1=False)
        assert with_l1 == without
        assert [i for i, _ in with_l1] == [0]

    def test_lemma1_bounds_with_the_stored_p(self, fig2_engine):
        # Tu¹₂ alone crosses (v2→v10).  With p = 0.199 it is stored as
        # 102/512 > 0.199; at α equal to that stored p it qualifies, so
        # Lemma 1 must not prune it on its unquantized p.
        net, cfg, _ = fig2_engine
        traj = fig2_trajectory()
        for inst, p in zip(traj.instances, (0.75, 0.199, 0.051)):
            inst.prob = p
        eng = UTCQEngine.from_trajectories(net, cfg, [traj])
        ct = eng.entries[1].ct
        assert ct.ref_of[1] == 0 and ct.probs[1] > 0.199
        alpha = ct.probs[1]
        with_l1 = eng.when(1, (V2, V10), 0.5, alpha, use_lemma1=True)
        without = eng.when(1, (V2, V10), 0.5, alpha, use_lemma1=False)
        assert with_l1 == without
        assert [i for i, _ in with_l1] == [1]

    def test_unknown_trajectory(self, fig2_engine):
        _, _, eng = fig2_engine
        assert eng.where(99, hms(5, 5, 25), 0.0) == []
        assert eng.when(99, (185190, 185191), 0.5, 0.0) == []

    def test_where_outside_span(self, fig2_engine):
        _, _, eng = fig2_engine
        assert eng.where(1, hms(4, 59, 0), 0.0) == []
        assert eng.where(1, hms(5, 28, 0), 0.0) == []

    def test_where_at_boundary_times(self, fig2_engine):
        _, _, eng = fig2_engine
        first = eng.where(1, hms(5, 3, 25), 0.25)
        assert first == [(0, 185190, 185191, pytest.approx(175.0))]
        last = eng.where(1, hms(5, 27, 25), 0.25)
        assert last == [(0, 228478, 228479, pytest.approx(175.0))]


class TestEquivalenceWithReference:
    """Engine results must EXACTLY match the reference implementation run
    on the decoded trajectories (same quantized data, same arithmetic)."""

    @pytest.fixture(scope="class")
    def setup(self):
        net = grid_network("test")
        trajs = generate_dataset(net, DATASET_PROFILES["test"], n_traj=20)
        eng = UTCQEngine.from_trajectories(net, CFG, trajs)
        decoded = {t.traj_id: decoded_of(net, CFG, t) for t in trajs}
        return net, trajs, eng, decoded

    def test_where_equivalence(self, setup):
        net, trajs, eng, decoded = setup
        checked = 0
        for traj in trajs:
            dec = decoded[traj.traj_id]
            tss = dec.timestamps()
            probe_ts = [tss[0], tss[-1], (tss[0] + tss[1]) // 2,
                        tss[len(tss) // 2], tss[0] - 100, tss[-1] + 100]
            for t in probe_ts:
                for alpha in (0.0, 0.2, 0.5):
                    got = eng.where(traj.traj_id, t, alpha)
                    exp = where_query_ref(net, dec, t, alpha)
                    assert _close_rows(got, exp), (traj.traj_id, t, alpha)
                    checked += 1
        assert checked > 100

    def test_when_equivalence(self, setup):
        net, trajs, eng, decoded = setup
        checked = 0
        for traj in trajs[:12]:
            dec = decoded[traj.traj_id]
            inst = dec.instances[0]
            probes = [
                (inst.path[0], 0.25),
                (inst.path[len(inst.path) // 2], 0.5),
                (inst.path[-1], 0.0),
            ]
            for edge, rd in probes:
                for alpha in (0.0, 0.3):
                    got = eng.when(traj.traj_id, edge, rd, alpha)
                    exp = when_query_ref(net, dec, edge, rd, alpha)
                    assert _close_rows(got, exp), (traj.traj_id, edge, rd)
                    checked += 1
        assert checked > 50

    def test_when_lemma1_equivalence(self, setup):
        net, trajs, eng, decoded = setup
        for traj in trajs[:10]:
            dec = decoded[traj.traj_id]
            edge = dec.instances[-1].path[-1]
            for alpha in (0.1, 0.4, 0.8):
                a = eng.when(traj.traj_id, edge, 0.5, alpha, use_lemma1=True)
                b = eng.when(traj.traj_id, edge, 0.5, alpha, use_lemma1=False)
                assert _close_rows(a, b)

    def test_range_equivalence(self, setup):
        net, trajs, eng, decoded = setup
        decs = list(decoded.values())
        xs = [c[0] for c in net.coords.values()]
        ys = [c[1] for c in net.coords.values()]
        rects = [
            Rect(min(xs), min(ys), max(xs), max(ys)),
            Rect(min(xs), min(ys), (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2),
            Rect(200, 200, 420, 430),
            Rect(0, 0, 90, 90),
        ]
        times = sorted(
            {decs[i].t0 + off for i in range(0, len(decs), 3) for off in (0, 35, 90)}
        )
        checked = 0
        for rect in rects:
            for tq in times[:6]:
                for alpha in (0.05, 0.4, 0.9):
                    got = eng.range(rect, tq, alpha)
                    exp = range_query_ref(net, decs, rect, tq, alpha)
                    assert got == exp, (rect, tq, alpha)
                    checked += 1
        assert checked >= 60

    def test_range_pruning_equivalence(self, setup):
        """Lemmas 2 and 4 on against off give the same answers."""
        net, trajs, eng, decoded = setup
        rect = Rect(100, 100, 500, 500)
        for tq in [t.t0 + 40 for t in trajs[:8]]:
            for alpha in (0.2, 0.6):
                assert eng.range(rect, tq, alpha, use_pruning=True) == eng.range(
                    rect, tq, alpha, use_pruning=False
                )

    def test_lemma4_prunes_candidates(self, setup):
        net, trajs, eng, decoded = setup
        rect = Rect(0, 0, 350, 350)
        tq = trajs[0].t0 + 30
        loose = eng.range_candidates(rect, tq, 0.0)
        tight = eng.range_candidates(rect, tq, 0.99)
        assert set(tight) <= set(loose)


def _close_rows(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(sorted(a), sorted(b)):
        if ra[:-1] != rb[:-1]:
            return False
        if abs(ra[-1] - rb[-1]) > 1e-6:
            return False
    return True
