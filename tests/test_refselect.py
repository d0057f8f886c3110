"""Algorithm 1 (greedy reference selection) tests — Example 2 outcome."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fjd import score_matrix
from repro.core.model import instance_to_ted
from repro.core.pivots import com_sl, select_pivots
from repro.core.refselect import ReferenceAssignment, select_references
from repro.examples.fig2 import fig2_network, fig2_trajectory


class TestExample2:
    def test_fig2_outcome(self):
        """Example 2: with piv₁ = Tu¹₃, Algorithm 1 returns reference Tu¹₁
        with Rrs = {Tu¹₂, Tu¹₃}."""
        net = fig2_network()
        teds = [instance_to_ted(net, i) for i in fig2_trajectory().instances]
        piv = teds[2].entries
        coms = [[com_sl(piv, t.entries) for t in teds]]
        sm = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
        asg = select_references(sm)
        assert asg.refs == {0: [1, 2]}

    def test_first_pick_is_global_max(self):
        net = fig2_network()
        teds = [instance_to_ted(net, i) for i in fig2_trajectory().instances]
        piv = teds[2].entries
        coms = [[com_sl(piv, t.entries) for t in teds]]
        sm = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
        mx = max(sm[w][v] for w in range(3) for v in range(3))
        assert sm[0][1] == pytest.approx(mx)  # SF(Tu¹₁, Tu¹₂) is the max


class TestAlgorithmProperties:
    def test_zero_matrix_all_standalone(self):
        sm = [[0.0] * 3 for _ in range(3)]
        asg = select_references(sm)
        assert asg.refs == {0: [], 1: [], 2: []}

    def test_single_instance(self):
        asg = select_references([[0.0]])
        assert asg.refs == {0: []}

    def test_chain_not_allowed(self):
        # 0 best represents 1, and 1 best represents 2 — but 1 becomes a
        # non-reference first, so 2 must fall back to 0 or standalone.
        sm = [
            [0.0, 0.9, 0.1],
            [0.0, 0.0, 0.8],
            [0.0, 0.0, 0.0],
        ]
        asg = select_references(sm)
        assert asg.refs == {0: [1, 2]}

    def test_non_reference_never_reference(self):
        sm = [
            [0.0, 0.9, 0.0],
            [0.0, 0.0, 0.8],
            [0.0, 0.0, 0.0],
        ]
        asg = select_references(sm)
        # 1 is taken by 0; 1's row is removed so 2 has no positive score.
        assert asg.refs == {0: [1], 2: []}

    def test_each_nonref_single_reference(self):
        sm = [
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ]
        asg = select_references(sm)
        asg.validate(3)
        nonrefs = [v for rrs in asg.refs.values() for v in rrs]
        assert len(nonrefs) == len(set(nonrefs))

    def test_two_groups(self):
        # Two same-SV clusters that do not mix.
        sm = [[0.0] * 4 for _ in range(4)]
        sm[0][1] = 0.9
        sm[2][3] = 0.8
        asg = select_references(sm)
        assert asg.refs == {0: [1], 2: [3]}

    def test_validate_rejects_double_assignment(self):
        with pytest.raises(ValueError):
            ReferenceAssignment({0: [1], 2: [1]}).validate(3)

    def test_validate_rejects_uncovered(self):
        with pytest.raises(ValueError):
            ReferenceAssignment({0: [1]}).validate(3)

    def test_larger_random_consistency(self):
        import random

        rng = random.Random(42)
        for n in (5, 9, 14):
            sm = [
                [0.0 if w == v else round(rng.random(), 3) for v in range(n)]
                for w in range(n)
            ]
            asg = select_references(sm)
            asg.validate(n)


def rescan_select_references(sm: list[list[float]]) -> dict[int, list[int]]:
    """Oracle: Algorithm 1 as a full rescan of SM per pick, O(n³).

    Each pick takes the strict-``>`` row-major maximum of the live entries;
    ``alive[w][v]`` mirrors "SM[w][v] ∈ SM" and the diagonal entries stand
    for the not-yet-assigned markers checked at lines 11–13.
    """
    n = len(sm)
    refs: dict[int, list[int]] = {}
    alive = [[True] * n for _ in range(n)]
    while True:
        best, bw, bv = 0.0, -1, -1
        for w in range(n):
            for v in range(n):
                if alive[w][v] and w != v and sm[w][v] > best:
                    best, bw, bv = sm[w][v], w, v
        if bw < 0:  # SM exhausted or current maximum is 0
            break
        if bw not in refs:
            refs[bw] = []
            # line 7: remove SM[v'][w] — w can no longer be a non-reference
            for vp in range(n):
                alive[vp][bw] = False
        refs[bw].append(bv)
        # line 9: remove SM[w'][v] and SM[v][w''] — v has its reference and
        # can never become a reference (single-order compression).
        for wp in range(n):
            alive[wp][bv] = False
            alive[bv][wp] = False
    for w in range(n):
        if alive[w][w] and w not in refs:
            refs[w] = []
    return refs


@st.composite
def tie_heavy_matrices(draw):
    n = draw(st.integers(1, 30))
    scores = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    return [[0.0 if w == v else draw(scores) for v in range(n)] for w in range(n)]


@given(tie_heavy_matrices())
def test_matches_rescan_oracle(sm):
    """The one-sort pass makes the rescan's picks: the same references, and
    each Rrs in pick order (the encoder writes non-references in that order)."""
    assert select_references(sm).refs == rescan_select_references(sm)
