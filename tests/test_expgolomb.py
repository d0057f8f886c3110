"""Improved Exp-Golomb tests, anchored on the paper's §4.4 worked example."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import BitReader, BitWriter, decode_delta, encode_delta


def encode_delta_stream(w: BitWriter, deltas) -> None:
    for d in deltas:
        encode_delta(w, d)


def delta_code_len(delta: int) -> int:
    """Length in bits of the codeword ``encode_delta`` writes for ``delta``."""
    w = BitWriter()
    encode_delta(w, delta)
    return len(w)


def decode_delta_stream(r: BitReader, n: int) -> list[int]:
    return [decode_delta(r) for _ in range(n)]


def bitstring(deltas) -> str:
    w = BitWriter()
    encode_delta_stream(w, deltas)
    r = BitReader(w.to_bytes(), len(w))
    return "".join(str(r.read_bit()) for _ in range(len(w)))


class TestPaperExample:
    """§4.4: ⟨5:03:25, 0, 1, 0, -1, 0, 0⟩ → ⟨…, 0, 1000, 0, 1010, 0, 0⟩."""

    def test_zero(self):
        assert bitstring([0]) == "0"

    def test_plus_one(self):
        assert bitstring([1]) == "1000"

    def test_minus_one(self):
        assert bitstring([-1]) == "1010"

    def test_full_siar_sequence(self):
        assert bitstring([0, 1, 0, -1, 0, 0]) == "0" + "1000" + "0" + "1010" + "0" + "0"

    def test_compression_ratio_example(self):
        # 32×7 / (12 + 17) = 7.72 with a 17-bit start-of-day timestamp.
        delta_bits = sum(delta_code_len(d) for d in [0, 1, 0, -1, 0, 0])
        assert delta_bits == 12
        ratio = (32 * 7) / (delta_bits + 17)
        assert ratio == pytest.approx(7.72, abs=0.01)


class TestGroups:
    def test_group_one(self):
        assert bitstring([2]) == "1001"
        assert bitstring([-2]) == "1011"

    def test_group_two(self):
        # |Δ| ∈ [3, 6]; Δ=3 → prefix '110', sign 0, offset 00.
        assert bitstring([3]) == "110" + "0" + "00"
        assert bitstring([6]) == "110" + "0" + "11"
        assert bitstring([-3]) == "110" + "1" + "00"

    def test_code_lengths(self):
        assert delta_code_len(0) == 1
        assert delta_code_len(1) == 4
        assert delta_code_len(-1) == 4
        assert delta_code_len(2) == 4
        assert delta_code_len(3) == 6
        assert delta_code_len(6) == 6
        assert delta_code_len(7) == 8

    def test_small_deltas_shorter_than_large(self):
        lens = [delta_code_len(d) for d in [0, 1, 3, 7, 15, 100, 1000]]
        assert lens == sorted(lens)


class TestRoundtrip:
    @pytest.mark.parametrize("delta", [0, 1, -1, 2, -2, 3, -6, 7, -15, 63, -64, 100, -300, 2**14])
    def test_single(self, delta):
        w = BitWriter()
        encode_delta(w, delta)
        r = BitReader(w.to_bytes(), len(w))
        assert decode_delta_stream(r, 1) == [delta]
        with pytest.raises(EOFError):
            r.read_bit()

    @given(st.lists(st.integers(min_value=-(2**15), max_value=2**15), max_size=100))
    def test_property_stream(self, deltas):
        w = BitWriter()
        encode_delta_stream(w, deltas)
        r = BitReader(w.to_bytes(), len(w))
        assert decode_delta_stream(r, len(deltas)) == deltas
        with pytest.raises(EOFError):
            r.read_bit()

    def test_decode_from_offset(self):
        """StIU t.pos semantics: decoding may start mid-stream."""
        deltas = [0, 5, -3, 0, 120, -1]
        w = BitWriter()
        encode_delta_stream(w, deltas)
        # offset of the 3rd delta
        off = delta_code_len(0) + delta_code_len(5)
        r = BitReader(w.to_bytes(), len(w))
        r.seek(off)
        assert decode_delta_stream(r, 4) == [-3, 0, 120, -1]
