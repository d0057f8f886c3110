"""Referential representation tests — Table 4 verbatim + lossless round trips."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import quantize
from repro.core.model import instance_to_ted
from repro.core.referential import (
    Factor,
    apply_d,
    apply_e,
    apply_tflag,
    diff_d,
    factorize_e,
    factorize_tflag,
)
from repro.examples.fig2 import fig2_network, fig2_trajectory

BD = 7  # the D width at η_D = 1/128


@pytest.fixture(scope="module")
def teds():
    net = fig2_network()
    return [instance_to_ted(net, i) for i in fig2_trajectory().instances]


class TestTable4:
    """Referential representation of Table 3 w.r.t. Ref¹₁ = Tu¹₁ (Table 4)."""

    def test_com_e_nref11(self, teds):
        # ComE(Nref¹₁₁, Ref¹₁) = ⟨(0,1,1), (2,7)⟩
        ref, nref = teds[0].entries, teds[1].entries
        fs = factorize_e(ref, nref)
        assert fs == [Factor(0, 1, 1), Factor(2, 7, None)]

    def test_com_e_nref12(self, teds):
        # ComE(Nref¹₁₂, Ref¹₁) = ⟨(0,8,2)⟩
        fs = factorize_e(teds[0].entries, teds[2].entries)
        assert fs == [Factor(0, 8, 2)]

    def test_com_d(self, teds):
        # ComD: ∅ for Nref¹₁₁ and ⟨(6, 0.5)⟩ for Nref¹₁₂
        assert diff_d(teds[0].d, teds[1].d, BD) == []
        assert diff_d(teds[0].d, teds[2].d, BD) == [(6, 0.5)]

    def test_com_tflag(self, teds):
        # ComT′: ⟨(1,2),(3,4)⟩ for Nref¹₁₁ and ∅ for Nref¹₁₂
        ref = teds[0].trimmed_tflag()
        fs = factorize_tflag(ref, teds[1].trimmed_tflag())
        assert [(f.s, f.l) for f in fs] == [(1, 2), (3, 4)]
        # the first factor's M is implicit (inferable), the last has none
        assert fs[0].m is None and fs[1].m is None
        assert factorize_tflag(ref, teds[2].trimmed_tflag()) == []

    def test_case_b_factor(self, teds):
        # §4.2 example: E(Tu¹₄) = ⟨3,2,1,2,2⟩ → first factor (9, 3):
        # outgoing number 3 does not occur in the 9-entry reference.
        fs = factorize_e(teds[0].entries, [3, 2, 1, 2, 2])
        assert fs[0] == Factor(9, None, 3)
        assert apply_e(teds[0].entries, fs) == [3, 2, 1, 2, 2]


class TestRoundTripsE:
    def test_table4_roundtrip(self, teds):
        ref = teds[0].entries
        for t in teds[1:]:
            fs = factorize_e(ref, t.entries)
            assert apply_e(ref, fs) == t.entries

    def test_identical(self):
        fs = factorize_e([1, 2, 3], [1, 2, 3])
        assert fs == [Factor(0, 3, None)]
        assert apply_e([1, 2, 3], fs) == [1, 2, 3]

    def test_nothing_shared(self):
        ref = [1, 1, 1]
        fs = factorize_e(ref, [2, 3])
        assert fs == [Factor(3, None, 2), Factor(3, None, 3)]
        assert apply_e(ref, fs) == [2, 3]

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
    )
    def test_property_roundtrip(self, ref, target):
        assert apply_e(ref, factorize_e(ref, target)) == target

    def test_last_factor_is_only_slm_without_m(self, teds):
        # Form (S,L) may only occur at the end of the factor list (§4.2 A).
        for t in teds[1:]:
            fs = factorize_e(teds[0].entries, t.entries)
            for f in fs[:-1]:
                assert f.l is None or f.m is not None


class TestRoundTripsTflag:
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=25),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=25),
    )
    def test_property_roundtrip(self, ref, target):
        assert apply_tflag(ref, factorize_tflag(ref, target)) == target

    def test_empty_means_copy(self):
        assert apply_tflag([1, 0, 1], []) == [1, 0, 1]

    def test_degenerate_single_bit_ref(self):
        # The implicit-M inference corner: ref = [1], target = [1, 0].
        ref, target = [1], [1, 0]
        assert apply_tflag(ref, factorize_tflag(ref, target)) == target

    def test_all_ones_ref_with_zero_target_bit(self):
        ref, target = [1, 1, 1, 1], [1, 0, 1, 1]
        assert apply_tflag(ref, factorize_tflag(ref, target)) == target


class TestD:
    def test_diff_positions(self):
        assert diff_d([0.1, 0.2, 0.3], [0.1, 0.25, 0.3], BD) == [(1, 0.25)]
        # values on the same η_D grid point are not a difference
        assert diff_d([0.1, 0.2], [0.1, 0.201], BD) == []

    def test_apply(self):
        assert apply_d([0.1, 0.2], [(0, 0.9)]) == [0.9, 0.2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diff_d([0.1], [0.1, 0.2], BD)

    @given(
        st.lists(st.floats(min_value=0, max_value=0.999), min_size=1, max_size=20),
        st.data(),
    )
    def test_property_roundtrip(self, ref, data):
        target = data.draw(
            st.lists(
                st.floats(min_value=0, max_value=0.999),
                min_size=len(ref),
                max_size=len(ref),
            )
        )
        got = apply_d(ref, diff_d(ref, target, BD))
        assert [quantize(x, BD) for x in got] == [quantize(x, BD) for x in target]
