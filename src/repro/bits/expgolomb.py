"""Improved Exp-Golomb encoding for SIAR sample-interval deviations (§4.4).

The paper modifies Exp-Golomb (k = 0) to handle signed deviations
``Δt = (t_{i+1} − t_i) − Ts``.  Group ``j`` (j ≥ 0) covers
``[−2^{j+1}+2, −2^j+1] ∪ [2^j−1, 2^{j+1}−2]``; the offset of Δ inside the
group is ``|Δ| − (2^j − 1)``, and a sign bit (1 = negative) is written
immediately before the offset.

Codeword layout (reconstructed from the paper's worked example, which this
module reproduces exactly: 0 → ``0``, 1 → ``1000``, −1 → ``1010``):

    <j ones> <one 0> [<sign bit> <offset in j bits>]     (sign/offset absent
                                                          for group 0, Δ = 0)
"""
from __future__ import annotations

from repro.bits.bitio import BitReader, BitWriter


def _group(delta: int) -> int:
    """Group index j such that |delta| ∈ [2^j − 1, 2^{j+1} − 2]."""
    return (abs(delta) + 1).bit_length() - 1


def encode_delta(w: BitWriter, delta: int) -> None:
    j = _group(delta)
    for _ in range(j):
        w.write_bit(1)
    w.write_bit(0)
    if j == 0:
        return
    w.write_bit(1 if delta < 0 else 0)
    w.write_bits(abs(delta) - ((1 << j) - 1), j)


def decode_delta(r: BitReader) -> int:
    j = 0
    while r.read_bit() == 1:
        j += 1
    if j == 0:
        return 0
    neg = r.read_bit() == 1
    mag = r.read_bits(j) + ((1 << j) - 1)
    return -mag if neg else mag
