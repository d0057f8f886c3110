"""Unit tests for the bit IO substrate."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import BitReader, BitWriter, bits_needed


class TestBitsNeeded:
    def test_small(self):
        assert bits_needed(1) == 1
        assert bits_needed(2) == 1
        assert bits_needed(3) == 2
        assert bits_needed(8) == 3
        assert bits_needed(9) == 4

    def test_zero_and_one_floor(self):
        assert bits_needed(0) == 1

    def test_powers_of_two(self):
        for k in range(1, 16):
            assert bits_needed(2**k) == k


class TestBitWriter:
    def test_empty(self):
        w = BitWriter()
        assert len(w) == 0
        assert w.to_bytes() == b""

    def test_single_bits(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bit(0)
        w.write_bit(1)
        assert len(w) == 3
        assert w.to_bytes() == bytes([0b10100000])

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        assert w.to_bytes() == bytes([0b10110000])

    def test_write_bits_width_check(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(4, 2)
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)

    def test_zero_width_ok(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert len(w) == 0

    def test_write_bools(self):
        w = BitWriter()
        w.write_bools([1, 0, 0, 1, 1])
        assert len(w) == 5
        r = BitReader(w.to_bytes(), len(w))
        assert r.read_bools(5) == [1, 0, 0, 1, 1]


class TestBitReader:
    def test_roundtrip_values(self):
        w = BitWriter()
        vals = [(5, 3), (0, 1), (1023, 10), (1, 1), (77, 7)]
        for v, width in vals:
            w.write_bits(v, width)
        r = BitReader(w.to_bytes(), len(w))
        for v, width in vals:
            assert r.read_bits(width) == v
        with pytest.raises(EOFError):
            r.read_bit()

    def test_eof(self):
        r = BitReader(b"\xff", 3)
        r.read_bits(3)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_seek_tell(self):
        w = BitWriter()
        w.write_bits(0b1100_1010, 8)
        r = BitReader(w.to_bytes(), len(w))
        r.seek(4)
        assert r.read_bits(4) == 0b1010
        r.seek(0)
        assert r.read_bits(2) == 0b11

    def test_nbits_beyond_data_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", 9)

    def test_seek_out_of_range(self):
        r = BitReader(b"\x00", 8)
        with pytest.raises(ValueError):
            r.seek(9)
        with pytest.raises(ValueError):
            r.seek(-1)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    def test_property_roundtrip_bools(self, bits):
        w = BitWriter()
        w.write_bools(bits)
        r = BitReader(w.to_bytes(), len(w))
        assert r.read_bools(len(bits)) == bits

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2**20 - 1)),
            max_size=50,
        )
    )
    def test_property_roundtrip_fixed_width(self, vals):
        w = BitWriter()
        for (v,) in vals:
            w.write_bits(v, 20)
        r = BitReader(w.to_bytes(), len(w))
        for (v,) in vals:
            assert r.read_bits(20) == v


def _pack(bits: list[int]) -> bytes:
    """Per-bit reference packing, MSB first, zero-padded to a byte."""
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        out[i >> 3] |= b << (7 - (i & 7))
    return bytes(out)


def _to_bits(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width - 1, -1, -1)]


_field = st.integers(0, 64).flatmap(
    lambda w: st.tuples(st.integers(0, 2**w - 1), st.just(w), st.booleans())
)


@given(st.lists(_field, max_size=40))
def test_write_bits_matches_per_bit_reference(fields):
    """Fields of 0–64 bits, each after an optional single ``write_bit``,
    so that they start at every bit offset."""
    w = BitWriter()
    bits: list[int] = []
    for value, width, lead in fields:
        if lead:
            w.write_bit(value & 1)
            bits.append(value & 1)
        w.write_bits(value, width)
        bits += _to_bits(value, width)
        with pytest.raises(ValueError):
            w.write_bits(2**width, width)
    assert len(w) == len(bits)
    assert w.to_bytes() == _pack(bits)


@given(st.data())
def test_read_bits_matches_per_bit_reference(data):
    """``read_bits`` of 0–64 bits mixed with ``read_bit`` and ``seek``;
    a read past ``nbits`` raises ``EOFError``."""
    bits = data.draw(st.lists(st.integers(0, 1), max_size=300))
    nbits = data.draw(st.integers(max(0, len(bits) - 7), len(bits)))
    r = BitReader(_pack(bits), nbits)
    pos = 0
    for _ in range(data.draw(st.integers(0, 30))):
        op = data.draw(st.sampled_from(("bits", "bit", "seek")))
        if op == "seek":
            pos = data.draw(st.integers(0, nbits))
            r.seek(pos)
        elif op == "bit":
            if pos == nbits:
                with pytest.raises(EOFError):
                    r.read_bit()
            else:
                assert r.read_bit() == bits[pos]
                pos += 1
        else:
            width = data.draw(st.integers(0, 64))
            if pos + width > nbits:
                with pytest.raises(EOFError):
                    r.read_bits(width)
                r.seek(pos)
            else:
                want = int("".join(map(str, bits[pos:pos + width])) or "0", 2)
                assert r.read_bits(width) == want
                pos += width
