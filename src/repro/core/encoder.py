"""UTCQ binary compression of one uncertain trajectory (§4.4).

Pipeline per trajectory: pivot selection → FJD score matrix → Algorithm 1 →
referential representation of non-references → bit-packing.  The output
blob is self-describing (decodable sequentially) and the encoder returns
per-component bit counts (for Table 8 accounting) plus the bit offsets that
the StIU index stores for partial decompression.

Blob layout (MSB-first; ⟨n⟩ is one improved Exp-Golomb code):

    ⟨m⟩  ⟨n_inst⟩  ⟨n_refs⟩
    t0:17  ⟨SIAR delta⟩ × (m−1)
    repeat n_refs ×:
      inst_id:bi  p:bp  sv:32  ⟨|E|⟩  E: |E|×be  T′: |E|−2  D: m×bd
      ⟨n_nonrefs⟩
      repeat n_nonrefs ×:
        inst_id:bi  p:bp
        ComE:  ⟨H−1⟩  factors⟨S:bs [L:bs] [M:be]⟩ (case-B: S=|E_ref| then M;
               last factor: 1 flag bit for M presence)
        ComT′: ⟨H⟩  factors⟨S:bt L:bt flag:1 [M:1]⟩
        ComD:  ⟨K⟩  pairs⟨pos:bm rd:bd⟩

where bi = ⌈log₂ n_inst⌉, bp = ⌈log₂ 1/η_p⌉, bd = ⌈log₂ 1/η_D⌉, be =
⌈log₂ (o+1)⌉ (entries include the extra-point 0s), bs = ⌈log₂ (|E_ref|+1)⌉,
bt = ⌈log₂ (|T′_ref|+1)⌉, bm = ⌈log₂ m⌉.  Each instance records two offsets
for partial decompression: ``start`` (its p field, where the section readers
begin) and ``d_start`` (its D or ComD section).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.bits import (
    BitWriter,
    bits_for_bound,
    bits_needed,
    dequantize,
    encode_delta,
    quantize,
)
from repro.core.config import UTCQConfig
from repro.core.fjd import score_matrix
from repro.core.model import (
    TedTrajectory,
    TedTuple,
    UncertainTrajectory,
    original_bits,
)
from repro.core.pivots import select_pivots
from repro.core.referential import diff_d, factorize_e, factorize_tflag
from repro.core.refselect import ReferenceAssignment, select_references
from repro.roadnet.graph import RoadNetwork

T0_BITS = 17  # seconds-of-day start timestamp, as in the §4.4 example
COMPONENTS = ("T", "E", "D", "Tp", "p", "meta")


@dataclass
class CompressedTrajectory:
    """One compressed NCUT with size accounting and index offsets."""

    traj_id: int
    ts: int
    #: number of sample points (the blob's first header counter)
    m: int
    blob: bytes
    nbits: int
    orig_bits: dict[str, int]
    comp_bits: dict[str, int]
    #: bit position of each SIAR delta i (for the temporal index t.pos)
    delta_offsets: list[int] = field(default_factory=list)
    #: per instance id: bit offsets ``start`` (its p field) and
    #: ``d_start`` (its D or ComD section)
    inst_offsets: dict[int, dict[str, int]] = field(default_factory=dict)
    #: instance id → reference instance id (== itself for references)
    ref_of: dict[int, int] = field(default_factory=dict)
    #: instance id → probability, quantized as the blob stores it
    probs: dict[int, float] = field(default_factory=dict)

    @property
    def total_orig_bits(self) -> int:
        return sum(self.orig_bits.values())

    @property
    def total_comp_bits(self) -> int:
        return sum(self.comp_bits.values())


def compress_trajectory(
    net: RoadNetwork, traj: UncertainTrajectory, cfg: UTCQConfig
) -> CompressedTrajectory:
    """Compress ``traj`` through its improved-TED form."""
    return compress_ted(net, traj.to_ted(net), cfg)


def compress_ted(
    net: RoadNetwork, traj: TedTrajectory, cfg: UTCQConfig
) -> CompressedTrajectory:
    """Reference selection + referential binary encoding of one NCUT."""
    return encode_trajectory(net, traj, _select(traj.teds, cfg), cfg)


def _select(teds: list[TedTuple], cfg: UTCQConfig) -> ReferenceAssignment:
    seqs = [t.entries for t in teds]
    _, coms = select_pivots(seqs, cfg.n_pivots)
    sm = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
    return select_references(sm)


def encode_trajectory(
    net: RoadNetwork,
    traj: TedTrajectory,
    asg: ReferenceAssignment,
    cfg: UTCQConfig,
) -> CompressedTrajectory:
    teds = traj.teds
    m = traj.num_points
    if m < 2:
        raise ValueError("trajectories need at least two sample points")
    if len(teds) > 255 or m > 65535:
        raise ValueError("blob format limits exceeded")
    be = bits_needed(net.max_out_degree + 1)
    bd = bits_for_bound(cfg.eta_d)
    bp = bits_for_bound(cfg.eta_p)
    bm = bits_needed(m)

    w = BitWriter()
    comp = {c: 0 for c in COMPONENTS}
    orig = {c: 0 for c in COMPONENTS}
    for ted in teds:
        for c, bits in original_bits(ted, m).items():
            orig[c] += bits
    delta_offsets: list[int] = []
    inst_offsets: dict[int, dict[str, int]] = {}
    ref_of: dict[int, int] = {}
    probs: dict[int, float] = {}

    # ---- header (Exp-Golomb coded counters) -----------------------------
    bi = bits_needed(len(teds))  # instance-id field width
    start = len(w)
    encode_delta(w, m)
    encode_delta(w, len(teds))
    encode_delta(w, len(asg.refs))
    comp["meta"] += len(w) - start

    # ---- shared time sequence (SIAR + improved Exp-Golomb) --------------
    # Stored ONCE per uncertain trajectory (Definition 5), while the
    # original side counts one timestamp copy per instance (DESIGN.md §2).
    start = len(w)
    w.write_bits(traj.t0 % 86400, T0_BITS)
    for dlt in traj.deltas:
        delta_offsets.append(len(w))
        encode_delta(w, dlt)
    comp["T"] += len(w) - start

    # ---- references and their representation sets -----------------------
    for r in asg.reference_indices:
        ref = teds[r]
        _encode_reference(w, ref, r, bi, be, bd, bp, comp, inst_offsets)
        ref_of[r] = r
        probs[r] = dequantize(quantize(ref.prob, bp), bp)

        rrs = asg.refs[r]
        start = len(w)
        encode_delta(w, len(rrs))
        comp["meta"] += len(w) - start
        for v in rrs:
            nref = teds[v]
            _encode_nonref(w, ref, nref, v, bi, be, bd, bp, bm, comp, inst_offsets)
            ref_of[v] = r
            probs[v] = dequantize(quantize(nref.prob, bp), bp)

    return CompressedTrajectory(
        traj_id=traj.traj_id,
        ts=traj.ts,
        m=m,
        blob=w.to_bytes(),
        nbits=len(w),
        orig_bits=orig,
        comp_bits=comp,
        delta_offsets=delta_offsets,
        inst_offsets=inst_offsets,
        ref_of=ref_of,
        probs=probs,
    )


def _encode_reference(
    w: BitWriter,
    ref: TedTuple,
    inst_id: int,
    bi: int,
    be: int,
    bd: int,
    bp: int,
    comp: dict[str, int],
    inst_offsets: dict[int, dict[str, int]],
) -> None:
    ne = len(ref.entries)
    if ne > 65535:
        raise ValueError("edge sequence too long for blob format")
    w.write_bits(inst_id, bi)
    comp["meta"] += bi
    off: dict[str, int] = {"start": len(w)}
    w.write_bits(quantize(ref.prob, bp), bp)
    comp["p"] += bp

    w.write_bits(ref.sv, 32)
    lstart = len(w)
    encode_delta(w, ne)  # |E| length header is structure
    comp["meta"] += len(w) - lstart
    for no in ref.entries:
        w.write_bits(no, be)
    comp["E"] += 32 + be * ne

    trimmed = ref.trimmed_tflag()
    w.write_bools(trimmed)
    comp["Tp"] += len(trimmed)

    off["d_start"] = len(w)
    for rd in ref.d:
        w.write_bits(quantize(rd, bd), bd)
    comp["D"] += bd * len(ref.d)
    inst_offsets[inst_id] = off


def _encode_nonref(
    w: BitWriter,
    ref: TedTuple,
    nref: TedTuple,
    inst_id: int,
    bi: int,
    be: int,
    bd: int,
    bp: int,
    bm: int,
    comp: dict[str, int],
    inst_offsets: dict[int, dict[str, int]],
) -> None:
    w.write_bits(inst_id, bi)
    comp["meta"] += bi
    off: dict[str, int] = {"start": len(w)}
    w.write_bits(quantize(nref.prob, bp), bp)
    comp["p"] += bp

    # ComE — (S, L, M) factors; the count is Exp-Golomb coded (H−1, so the
    # common near-identical single-factor case costs 1 bit).
    e_factors = factorize_e(ref.entries, nref.entries)
    bs = bits_needed(len(ref.entries) + 1)
    cstart = len(w)
    encode_delta(w, len(e_factors) - 1)
    comp["meta"] += len(w) - cstart  # factor counts are structure, not E
    start = len(w)
    for h, f in enumerate(e_factors):
        if f.l is None:  # case B: (S=|E_ref|, M)
            w.write_bits(len(ref.entries), bs)
            w.write_bits(f.m, be)
            continue
        w.write_bits(f.s, bs)
        w.write_bits(f.l, bs)
        if h < len(e_factors) - 1:
            w.write_bits(f.m, be)
        else:
            w.write_bit(1 if f.m is not None else 0)
            if f.m is not None:
                w.write_bits(f.m, be)
    comp["E"] += len(w) - start

    # ComT′ — (S, L) with mostly-implicit M
    ref_trim = ref.trimmed_tflag()
    t_factors = factorize_tflag(ref_trim, nref.trimmed_tflag())
    bt = bits_needed(len(ref_trim) + 1)
    cstart = len(w)
    encode_delta(w, len(t_factors))  # ∅ (identical T′) costs one bit
    comp["meta"] += len(w) - cstart
    start = len(w)
    for f in t_factors:
        w.write_bits(f.s, bt)
        w.write_bits(f.l, bt)
        if f.m is not None:
            w.write_bit(1)
            w.write_bit(f.m)
        else:
            w.write_bit(0)
    comp["Tp"] += len(w) - start

    # ComD — (pos, rd) difference pairs; identical D costs one bit.
    diffs = diff_d(ref.d, nref.d, bd)
    off["d_start"] = len(w)
    cstart = len(w)
    encode_delta(w, len(diffs))
    comp["meta"] += len(w) - cstart
    start = len(w)
    for pos, rd in diffs:
        w.write_bits(pos, bm)
        w.write_bits(quantize(rd, bd), bd)
    comp["D"] += len(w) - start
    inst_offsets[inst_id] = off
