"""Decoding of UTCQ blobs — full and partial (§5 query support).

``decode_trajectory`` inverts :func:`repro.core.encoder.encode_trajectory`
losslessly for SV/E/T′/T and within η_D/η_p for D/p.
``decode_instance_partial`` starts from an instance's recorded bit offsets
(``start``/``d_start``) and decodes only what a query needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.bits import BitReader, bits_needed, decode_delta, dequantize
from repro.core.config import UTCQConfig, Widths
from repro.core.encoder import T0_BITS, CompressedTrajectory
from repro.core.model import TedTuple, siar_timestamps
from repro.core.referential import Factor, apply_d, apply_e, apply_tflag


@dataclass
class DecodedTrajectory:
    """Fully decoded NCUT in improved-TED form."""

    traj_id: int
    t0: int
    deltas: list[int]
    ts: int
    teds: dict[int, TedTuple]  # instance id → representation
    ref_of: dict[int, int] = field(default_factory=dict)

    def timestamps(self) -> list[int]:
        return siar_timestamps(self.t0, self.ts, self.deltas)


def _read_header(r: BitReader) -> tuple[int, int, int]:
    """The three header counters: (m, n_inst, n_refs)."""
    return decode_delta(r), decode_delta(r), decode_delta(r)


def _read_times(r: BitReader, m: int) -> tuple[int, list[int]]:
    """t0 and the m−1 SIAR deltas that follow the header."""
    t0 = r.read_bits(T0_BITS)
    return t0, [decode_delta(r) for _ in range(m - 1)]


def decode_timestamps(ct: CompressedTrajectory) -> list[int]:
    """The full time sequence, without touching any instance."""
    r = BitReader(ct.blob, ct.nbits)
    m, _, _ = _read_header(r)
    t0, deltas = _read_times(r, m)
    return siar_timestamps(t0, ct.ts, deltas)


def decode_trajectory(
    ct: CompressedTrajectory, cfg: UTCQConfig, max_out_degree: int
) -> DecodedTrajectory:
    """Sequentially parse a whole blob."""
    r = BitReader(ct.blob, ct.nbits)
    m, n_inst, n_refs = _read_header(r)
    w = Widths.of(m, cfg, max_out_degree)
    bi = bits_needed(n_inst)
    t0, deltas = _read_times(r, m)

    teds: dict[int, TedTuple] = {}
    ref_of: dict[int, int] = {}
    for _ in range(n_refs):
        ref_id = r.read_bits(bi)
        ref = teds[ref_id] = _read_reference(r, w, need_d=True)
        ref_of[ref_id] = ref_id
        n_nonrefs = decode_delta(r)
        for _ in range(n_nonrefs):
            nref_id = r.read_bits(bi)
            teds[nref_id] = _read_nonref(r, ref, w, need_d=True)
            ref_of[nref_id] = ref_id
    if len(teds) != n_inst:
        raise ValueError("blob truncated: instance count mismatch")
    return DecodedTrajectory(ct.traj_id, t0, deltas, ct.ts, teds, ref_of)


# ---- section readers: shared by full and partial decoding ---------------
# Each starts at an instance's p field and leaves ``r`` after its last
# section; with ``need_d=False`` it stops before the D section (``d`` comes
# back empty), and :func:`_read_d` decodes that section later.

def _read_reference(r: BitReader, w: Widths, need_d: bool) -> TedTuple:
    prob = dequantize(r.read_bits(w.bp), w.bp)
    sv = r.read_bits(32)
    ne = decode_delta(r)
    be = w.be
    entries = [r.read_bits(be) for _ in range(ne)]
    trimmed = r.read_bools(max(0, ne - 2))
    tflag = [1] + trimmed + [1] if ne >= 2 else [1] * ne
    d = _read_d(r, None, w) if need_d else []
    return TedTuple(sv, entries, tflag, d, prob)


def _read_nonref(
    r: BitReader, ref: TedTuple, w: Widths, need_d: bool
) -> TedTuple:
    prob = dequantize(r.read_bits(w.bp), w.bp)
    entries = apply_e(ref.entries, read_e_factors(r, len(ref.entries), w.be))
    ref_trim = ref.trimmed_tflag()
    t_factors = read_tflag_factors(r, len(ref_trim))
    # Two E entries leave an empty trimmed T′, coded as zero factors; zero
    # factors otherwise mean "same T′ as the reference".
    trimmed = [] if len(entries) == 2 else apply_tflag(ref_trim, t_factors)
    tflag = [1] + trimmed + [1]
    d = _read_d(r, ref, w) if need_d else []
    return TedTuple(ref.sv, entries, tflag, d, prob)


def _read_d(r: BitReader, ref: TedTuple | None, w: Widths) -> list[float]:
    """D of a reference (``ref`` None) or ComD against ``ref``."""
    bd = w.bd
    if ref is None:
        return [dequantize(r.read_bits(bd), bd) for _ in range(w.m)]
    return apply_d(ref.d, read_d_diffs(r, w.bm, bd))


def read_e_factors(r: BitReader, ref_len: int, be: int) -> list[Factor]:
    """Parse a ComE factor stream."""
    bs = bits_needed(ref_len + 1)
    h_total = decode_delta(r) + 1
    factors: list[Factor] = []
    for h in range(h_total):
        s = r.read_bits(bs)
        if s == ref_len:  # case B
            factors.append(Factor(s, None, r.read_bits(be)))
            continue
        l = r.read_bits(bs)
        if h < h_total - 1:
            factors.append(Factor(s, l, r.read_bits(be)))
        else:
            has_m = r.read_bit()
            factors.append(Factor(s, l, r.read_bits(be) if has_m else None))
    return factors


def read_tflag_factors(r: BitReader, ref_trim_len: int) -> list[Factor]:
    bt = bits_needed(ref_trim_len + 1)
    h_total = decode_delta(r)
    factors: list[Factor] = []
    for _ in range(h_total):
        s = r.read_bits(bt)
        l = r.read_bits(bt)
        m = r.read_bit() if r.read_bit() else None
        factors.append(Factor(s, l, m))
    return factors


def read_d_diffs(r: BitReader, bm: int, bd: int) -> list[tuple[int, float]]:
    k = decode_delta(r)
    return [(r.read_bits(bm), dequantize(r.read_bits(bd), bd)) for _ in range(k)]


# ---- partial decompression helpers (§5.2 index offsets) -----------------

def decode_instance_partial(
    ct: CompressedTrajectory,
    cfg: UTCQConfig,
    max_out_degree: int,
    inst_id: int,
    cache: dict[int, TedTuple] | None = None,
    need_d: bool = True,
) -> TedTuple:
    """Decode ONE instance by seeking its recorded section offsets —
    references directly, non-references through their reference only (no
    other group is touched).  ``cache`` memoizes instances across calls
    within one query.

    With ``need_d=False`` the D section is NOT decompressed (``d`` comes
    back empty) — this is what Lemma 2 exploits for range queries; a later
    call with ``need_d=True`` upgrades the cached entry by decoding only
    the D section via its offset.
    """
    if cache is None:
        cache = {}
    cached = cache.get(inst_id)
    if cached is not None and (cached.d or not need_d):
        return cached
    w = Widths.of(ct.m, cfg, max_out_degree)
    ref_id = ct.ref_of[inst_id]
    ref = None
    if ref_id != inst_id:
        ref = decode_instance_partial(
            ct, cfg, max_out_degree, ref_id, cache, need_d=need_d
        )
    off = ct.inst_offsets[inst_id]
    r = BitReader(ct.blob, ct.nbits)
    if cached is not None:  # upgrade: decode only the D section
        r.seek(off["d_start"])
        d = _read_d(r, ref, w)
        ted = TedTuple(cached.sv, cached.entries, cached.tflag, d, cached.prob)
    else:
        r.seek(off["start"])
        if ref is None:
            ted = _read_reference(r, w, need_d)
        else:
            ted = _read_nonref(r, ref, w, need_d)
    cache[inst_id] = ted
    return ted

