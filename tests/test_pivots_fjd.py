"""Pivot representation + FJD tests — §4.3 examples, Example 1 verbatim."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fjd import fjd, score_matrix, sim
from repro.core.model import instance_to_ted
from repro.core.pivots import com_sl, select_pivots
from repro.examples.fig2 import fig2_network, fig2_trajectory


@pytest.fixture(scope="module")
def teds():
    net = fig2_network()
    return [instance_to_ted(net, i) for i in fig2_trajectory().instances]


class TestComSL:
    def test_paper_example_tu11(self, teds):
        # ComE(Tu¹₁, piv₁) = ⟨(0,8),(5,1)⟩ with piv₁ = Tu¹₃.
        piv = teds[2].entries
        assert com_sl(piv, teds[0].entries) == [(0, 8), (5, 1)]

    def test_paper_example_tu12(self, teds):
        # ComE(Tu¹₂, piv₁) = ⟨(0,1),(0,1),(2,6),(5,1)⟩.
        piv = teds[2].entries
        assert com_sl(piv, teds[1].entries) == [(0, 1), (0, 1), (2, 6), (5, 1)]

    def test_self_is_single_factor(self, teds):
        piv = teds[2].entries
        assert com_sl(piv, piv) == [(0, len(piv))]

    def test_omitted_factor_counts(self):
        # Symbol 9 absent from pivot: omitted but counted (None).
        assert com_sl([1, 2], [1, 9, 2]) == [(0, 1), None, (1, 1)]


class TestExample1:
    """Example 1: FJD(Tu¹₁ → Tu¹₂, piv₁) = 1/2 with all four sim values."""

    def test_sims(self, teds):
        piv = teds[2].entries
        com_w = com_sl(piv, teds[0].entries)  # ⟨(0,8),(5,1)⟩
        com_v = com_sl(piv, teds[1].entries)  # ⟨(0,1),(0,1),(2,6),(5,1)⟩
        assert sim(com_v[0], com_w) == pytest.approx(1 / 8)
        assert sim(com_v[1], com_w) == pytest.approx(1 / 8)
        assert sim(com_v[2], com_w) == pytest.approx(3 / 4)
        assert sim(com_v[3], com_w) == pytest.approx(1.0)

    def test_fjd_value(self, teds):
        piv = teds[2].entries
        com_w = com_sl(piv, teds[0].entries)
        com_v = com_sl(piv, teds[1].entries)
        assert fjd(com_w, com_v) == pytest.approx(1 / 2)

    def test_fjd_not_symmetric_in_general(self, teds):
        # Reversed, sim((0,8)) = 6/8 and sim((5,1)) = 1 (the L = 1 factor
        # wins the tie at overlap 1), so FJD(Tu¹₂ → Tu¹₁) = 1.75/4 = 7/16.
        piv = teds[2].entries
        com_w = com_sl(piv, teds[0].entries)
        com_v = com_sl(piv, teds[1].entries)
        assert fjd(com_w, com_v) == 1 / 2
        assert fjd(com_v, com_w) == 7 / 16

    def test_fjd_bounds(self, teds):
        piv = teds[2].entries
        coms = [com_sl(piv, t.entries) for t in teds]
        for a in coms:
            for b in coms:
                assert 0.0 <= fjd(a, b) <= 1.0

    def test_fjd_identical_is_one(self, teds):
        piv = teds[2].entries
        c = com_sl(piv, teds[0].entries)
        assert fjd(c, c) == pytest.approx(1.0)


class TestScoreMatrix:
    def test_example2_entry(self, teds):
        # SM[0][1] = Tu¹₁.p · FJD = 0.75 · 1/2 = 3/8 (Example 2 matrix).
        piv = teds[2].entries
        coms = [[com_sl(piv, t.entries) for t in teds]]
        sm = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
        assert sm[0][1] == pytest.approx(3 / 8)

    def test_diagonal_zero(self, teds):
        piv = teds[2].entries
        coms = [[com_sl(piv, t.entries) for t in teds]]
        sm = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
        assert all(sm[i][i] == 0.0 for i in range(3))

    def test_different_sv_zero(self, teds):
        piv = teds[2].entries
        coms = [[com_sl(piv, t.entries) for t in teds]]
        svs = [teds[0].sv, 999_999, teds[2].sv]
        sm = score_matrix([t.prob for t in teds], svs, coms)
        assert sm[0][1] == 0.0 and sm[1][0] == 0.0
        assert sm[0][2] > 0.0

    def test_multi_pivot_takes_max(self, teds):
        piv_a, piv_b = teds[2].entries, teds[0].entries
        coms = [
            [com_sl(piv_a, t.entries) for t in teds],
            [com_sl(piv_b, t.entries) for t in teds],
        ]
        sm_multi = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
        sm_a = score_matrix([t.prob for t in teds], [t.sv for t in teds], [coms[0]])
        sm_b = score_matrix([t.prob for t in teds], [t.sv for t in teds], [coms[1]])
        for w in range(3):
            for v in range(3):
                assert sm_multi[w][v] == pytest.approx(max(sm_a[w][v], sm_b[w][v]))


def _oracle(probs, svs, coms):
    """SM from the scalar Eq. 1–2, one pair at a time."""
    n = len(probs)
    return [
        [
            probs[w] * max(fjd(c[w], c[v]) for c in coms)
            if w != v and svs[w] == svs[v] else 0.0
            for v in range(n)
        ]
        for w in range(n)
    ]


# Small S/L ranges so that overlaps tie between factors of different L;
# None is an omitted factor, an empty list a representation with h = 0, and
# up to 12 factors so that the sum runs over more than 8 columns.
_factor = st.none() | st.tuples(st.integers(0, 6), st.integers(1, 4))


@st.composite
def _sm_inputs(draw):
    n = draw(st.integers(1, 25))
    n_piv = draw(st.integers(1, 3))
    coms = [
        [draw(st.lists(_factor, max_size=12)) for _ in range(n)]
        for _ in range(n_piv)
    ]
    svs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return probs, svs, coms


@settings(deadline=None)
@given(_sm_inputs())
def test_score_matrix_equals_scalar_oracle(args):
    assert score_matrix(*args) == _oracle(*args)


class TestSelectPivots:
    def test_counts(self, teds):
        seqs = [t.entries for t in teds]
        for k in (1, 2, 3, 5):
            pivots, coms = select_pivots(seqs, k)
            assert len(pivots) == min(k, 3)
            assert len(coms) == len(pivots)
            assert len(set(pivots)) == len(pivots)
            for rep in coms:
                assert len(rep) == 3

    def test_pivot_rep_of_itself(self, teds):
        seqs = [t.entries for t in teds]
        pivots, coms = select_pivots(seqs, 2)
        for p, rep in zip(pivots, coms):
            assert rep[p] == [(0, len(seqs[p]))]

    def test_empty(self):
        assert select_pivots([], 2) == ([], [])

    def test_single(self):
        pivots, coms = select_pivots([[1, 2, 3]], 3)
        assert pivots == [0]
        assert coms == [[[(0, 3)]]]
