"""TED per-instance encoding (§2.2–2.3).

* Time: keep (i, t_i) pairs at the boundaries of maximal constant-interval
  runs (Table 2's ⟨(0, 5:03:25), (1, …), …, (6, …)⟩), 12 + 17 bits per pair.
* Edge sequence: 32-bit start vertex + ``be`` bits per entry (0-entries
  included); the entry bits then go through the matrix multiple-bases stage
  (`repro.ted.matrix`).
* D: PDDP quantization, ``bd`` bits per value.
* T′: raw bit-string (bitmap compression omitted → ratio 1).
* p: PDDP quantization, ``bp`` bits.

The widths are UTCQ's :class:`repro.core.config.Widths`, so Table 8
compares like with like.
"""
from __future__ import annotations

from repro.bits import BitReader, BitWriter, dequantize, quantize
from repro.core.config import Widths
from repro.core.model import TedTuple

TED_IDX_BITS = 12  # "each trajectory contains at most 2^12 timestamps" (§4.4)
TED_TIME_BITS = 17
TED_PAIR_BITS = TED_IDX_BITS + TED_TIME_BITS


def ted_time_pairs(timestamps: list[int]) -> list[tuple[int, int]]:
    """(i, t_i) pairs kept by TED: boundaries of constant-interval runs.

    Reproduces Table 2: ⟨5:03:25, 5:07:25, 5:11:26, 5:15:26, 5:19:25,
    5:23:25, 5:27:25⟩ → indices 0, 1, 2, 3, 4, 6.
    """
    m = len(timestamps)
    if m == 0:
        return []
    if m == 1:
        return [(0, timestamps[0])]
    pairs = [(0, timestamps[0])]
    d = timestamps[1] - timestamps[0]
    for i in range(2, m):
        cur = timestamps[i] - timestamps[i - 1]
        if cur != d:
            if pairs[-1][0] != i - 1:
                pairs.append((i - 1, timestamps[i - 1]))
            d = cur
    if pairs[-1][0] != m - 1:
        pairs.append((m - 1, timestamps[m - 1]))
    return pairs


def e_bitstring(ted: TedTuple, be: int) -> str:
    """The binary code of E (entries only, SV excluded) as a '0'/'1' string
    — the rows of the multiple-bases matrices."""
    w = BitWriter()
    for no in ted.entries:
        w.write_bits(no, be)
    data = w.to_bytes()
    n = len(w)
    return "".join(
        "1" if data[i >> 3] & (0x80 >> (i & 7)) else "0" for i in range(n)
    )


def ted_instance_sizes(ted: TedTuple, wd: Widths) -> dict[str, int]:
    """Per-instance compressed bit counts before the matrix stage."""
    return {
        "E": 32 + wd.be * len(ted.entries),
        "D": wd.bd * wd.m,
        "Tp": len(ted.tflag),
        "p": wd.bp,
    }


def encode_instance_payload(ted: TedTuple, wd: Widths) -> bytes:
    """Self-contained per-instance payload (used by the TED query baseline:
    full decompression is the only access path)."""
    w = BitWriter()
    w.write_bits(quantize(ted.prob, wd.bp), wd.bp)
    w.write_bits(ted.sv, 32)
    w.write_bits(len(ted.entries), 16)
    for no in ted.entries:
        w.write_bits(no, wd.be)
    w.write_bools(ted.tflag)
    for rd in ted.d:
        w.write_bits(quantize(rd, wd.bd), wd.bd)
    return w.to_bytes()


def decode_instance_payload(payload: bytes, wd: Widths) -> TedTuple:
    r = BitReader(payload)
    prob = dequantize(r.read_bits(wd.bp), wd.bp)
    sv = r.read_bits(32)
    ne = r.read_bits(16)
    entries = [r.read_bits(wd.be) for _ in range(ne)]
    tflag = r.read_bools(ne)
    d = [dequantize(r.read_bits(wd.bd), wd.bd) for _ in range(wd.m)]
    return TedTuple(sv, entries, tflag, d, prob)
