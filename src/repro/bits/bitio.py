"""Append-only bit writer and random-access bit reader.

All UTCQ / TED binary payloads are packed MSB-first into a ``bytearray``.
A multi-bit field is written and read a whole byte run at a time (one
``int.to_bytes`` / ``int.from_bytes``), not bit by bit.
``BitReader`` supports seeking to an arbitrary bit offset, which is what the
StIU temporal tuples (``t_pos``) and the per-instance ``start``/``d_start``
offsets point at to enable partial decompression.
"""
from __future__ import annotations


def bits_needed(n: int) -> int:
    """Number of bits needed to represent values in ``[0, n)``; ≥1.

    ``bits_needed(8) == 3`` — mirrors the paper's ⌈log₂ o⌉ accounting for an
    alphabet of size ``n``.
    """
    if n <= 1:
        return 1
    return (n - 1).bit_length()


class BitWriter:
    """MSB-first bit appender."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._nbits = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def write_bit(self, b: int) -> None:
        if self._nbits % 8 == 0:
            self._buf.append(0)
        if b:
            self._buf[-1] |= 0x80 >> (self._nbits % 8)
        self._nbits += 1

    def write_bits(self, value: int, width: int) -> None:
        """Write ``value`` as a ``width``-bit big-endian unsigned integer."""
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        # Re-emit the open last byte's bits, then ``value``, then zero
        # padding to the next byte boundary, as one big-endian integer.
        used = self._nbits % 8
        head = self._buf.pop() >> (8 - used) if used else 0
        pad = -(used + width) % 8
        n = (used + width + pad) // 8
        self._buf += ((head << (width + pad)) | (value << pad)).to_bytes(n, "big")
        self._nbits += width

    def write_bools(self, bits) -> None:
        """Write an iterable of 0/1 flags, one bit each."""
        for b in bits:
            self.write_bit(1 if b else 0)

    def to_bytes(self) -> bytes:
        return bytes(self._buf)


class BitReader:
    """MSB-first bit reader with ``seek`` over a bytes payload."""

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        self._data = data
        self._nbits = len(data) * 8 if nbits is None else nbits
        if not 0 <= self._nbits <= len(data) * 8:
            raise ValueError(f"{self._nbits} bits do not fit in {len(data)} bytes")
        self._pos = 0

    def seek(self, bitpos: int) -> None:
        if not 0 <= bitpos <= self._nbits:
            raise ValueError(f"seek {bitpos} out of range [0, {self._nbits}]")
        self._pos = bitpos

    def read_bit(self) -> int:
        if self._pos >= self._nbits:
            raise EOFError("bit stream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read a ``width``-bit big-endian unsigned integer."""
        end = self._pos + width
        if end > self._nbits:
            raise EOFError("bit stream exhausted")
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[self._pos >> 3:last], "big")
        value = (chunk >> ((last << 3) - end)) & ((1 << width) - 1)
        self._pos = end
        return value

    def read_bools(self, n: int) -> list[int]:
        return [self.read_bit() for _ in range(n)]
