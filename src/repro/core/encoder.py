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

where be, bd, bp and bm are the fields of :class:`repro.core.config.Widths`
(one record for the encoder, the decoder and TED), bi = ⌈log₂ n_inst⌉,
bs = ⌈log₂ (|E_ref|+1)⌉ and bt = ⌈log₂ (|T′_ref|+1)⌉.  The writer charges
each run of bits to one Table 8 component as it writes it (instance ids and
the ⟨…⟩ counters are ``meta``, SV is ``E``), so ``comp_bits`` sums to
``nbits``.  Each instance records two offsets for partial decompression:
``start`` (its p field, where the section readers begin) and ``d_start``
(its D or ComD section).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.bits import BitWriter, bits_needed, dequantize, encode_delta, quantize
from repro.core.config import UTCQConfig, Widths
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
    orig_bits: dict[str, int] = field(default_factory=dict)
    comp_bits: dict[str, int] = field(default_factory=dict)
    #: bit position of each SIAR delta i (for the temporal index t.pos)
    delta_offsets: list[int] = field(default_factory=list)
    #: per instance id: bit offsets ``start`` (its p field) and
    #: ``d_start`` (its D or ComD section)
    inst_offsets: dict[int, dict[str, int]] = field(default_factory=dict)
    #: instance id → reference instance id (== itself for references)
    ref_of: dict[int, int] = field(default_factory=dict)
    #: instance id → probability, quantized as the blob stores it
    probs: dict[int, float] = field(default_factory=dict)


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


class _Writer(BitWriter):
    """A bit writer that charges each run of bits to one Table 8 component."""

    def __init__(self) -> None:
        super().__init__()
        self.comp = dict.fromkeys(COMPONENTS, 0)
        self._charged = 0

    def charge(self, component: str) -> None:
        """Charge every bit written since the last charge to ``component``."""
        self.comp[component] += len(self) - self._charged
        self._charged = len(self)


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
    wd = Widths.of(m, cfg, net.max_out_degree)
    bi = bits_needed(len(teds))  # instance-id field width

    orig = dict.fromkeys(COMPONENTS, 0)
    for ted in teds:
        for c, bits in original_bits(ted, m).items():
            orig[c] += bits
    w = _Writer()
    delta_offsets: list[int] = []
    inst_offsets: dict[int, dict[str, int]] = {}
    ref_of: dict[int, int] = {}

    # ---- header (Exp-Golomb coded counters) -----------------------------
    encode_delta(w, m)
    encode_delta(w, len(teds))
    encode_delta(w, len(asg.refs))
    w.charge("meta")

    # ---- shared time sequence (SIAR + improved Exp-Golomb) --------------
    # Stored ONCE per uncertain trajectory (Definition 5), while the
    # original side counts one timestamp copy per instance (DESIGN.md §2).
    w.write_bits(traj.t0 % 86400, T0_BITS)
    for dlt in traj.deltas:
        delta_offsets.append(len(w))
        encode_delta(w, dlt)
    w.charge("T")

    # ---- references and their representation sets -----------------------
    for r in asg.reference_indices:
        ref = teds[r]
        w.write_bits(r, bi)
        w.charge("meta")
        inst_offsets[r] = _encode_reference(w, ref, wd)
        ref_of[r] = r

        rrs = asg.refs[r]
        encode_delta(w, len(rrs))
        w.charge("meta")
        for v in rrs:
            w.write_bits(v, bi)
            w.charge("meta")
            inst_offsets[v] = _encode_nonref(w, ref, teds[v], wd)
            ref_of[v] = r

    return CompressedTrajectory(
        traj_id=traj.traj_id,
        ts=traj.ts,
        m=m,
        blob=w.to_bytes(),
        nbits=len(w),
        orig_bits=orig,
        comp_bits=w.comp,
        delta_offsets=delta_offsets,
        inst_offsets=inst_offsets,
        ref_of=ref_of,
        probs={i: dequantize(quantize(teds[i].prob, wd.bp), wd.bp) for i in ref_of},
    )


# ---- section writers: each starts at an instance's p field and returns the
# instance's ``start``/``d_start`` offsets ----------------------------------

def _encode_reference(w: _Writer, ref: TedTuple, wd: Widths) -> dict[str, int]:
    ne = len(ref.entries)
    if ne > 65535:
        raise ValueError("edge sequence too long for blob format")
    start = len(w)
    w.write_bits(quantize(ref.prob, wd.bp), wd.bp)
    w.charge("p")

    w.write_bits(ref.sv, 32)
    w.charge("E")
    encode_delta(w, ne)  # |E| length header is structure
    w.charge("meta")
    for no in ref.entries:
        w.write_bits(no, wd.be)
    w.charge("E")

    w.write_bools(ref.trimmed_tflag())
    w.charge("Tp")

    d_start = len(w)
    for rd in ref.d:
        w.write_bits(quantize(rd, wd.bd), wd.bd)
    w.charge("D")
    return {"start": start, "d_start": d_start}


def _encode_nonref(
    w: _Writer, ref: TedTuple, nref: TedTuple, wd: Widths
) -> dict[str, int]:
    start = len(w)
    w.write_bits(quantize(nref.prob, wd.bp), wd.bp)
    w.charge("p")

    # ComE — (S, L, M) factors; the count is Exp-Golomb coded (H−1, so the
    # common near-identical single-factor case costs 1 bit).
    e_factors = factorize_e(ref.entries, nref.entries)
    bs = bits_needed(len(ref.entries) + 1)
    encode_delta(w, len(e_factors) - 1)
    w.charge("meta")  # factor counts are structure, not E
    for h, f in enumerate(e_factors):
        if f.l is None:  # case B: (S=|E_ref|, M)
            w.write_bits(len(ref.entries), bs)
            w.write_bits(f.m, wd.be)
            continue
        w.write_bits(f.s, bs)
        w.write_bits(f.l, bs)
        if h < len(e_factors) - 1:
            w.write_bits(f.m, wd.be)
        else:
            w.write_bit(1 if f.m is not None else 0)
            if f.m is not None:
                w.write_bits(f.m, wd.be)
    w.charge("E")

    # ComT′ — (S, L) with mostly-implicit M
    ref_trim = ref.trimmed_tflag()
    t_factors = factorize_tflag(ref_trim, nref.trimmed_tflag())
    bt = bits_needed(len(ref_trim) + 1)
    encode_delta(w, len(t_factors))  # ∅ (identical T′) costs one bit
    w.charge("meta")
    for f in t_factors:
        w.write_bits(f.s, bt)
        w.write_bits(f.l, bt)
        if f.m is not None:
            w.write_bit(1)
            w.write_bit(f.m)
        else:
            w.write_bit(0)
    w.charge("Tp")

    # ComD — (pos, rd) difference pairs; identical D costs one bit.
    diffs = diff_d(ref.d, nref.d, wd.bd)
    d_start = len(w)
    encode_delta(w, len(diffs))
    w.charge("meta")
    for pos, rd in diffs:
        w.write_bits(pos, wd.bm)
        w.write_bits(quantize(rd, wd.bd), wd.bd)
    w.charge("D")
    return {"start": start, "d_start": d_start}
