"""Referential representation of non-references (§4.2, Table 4).

Three factor formats, one per information type:

* ``E`` — greedy longest-match (S, L, M) factors against the reference's
  edge sequence (FRESCO-style), with the paper's two rewrites:
  (A) the final factor drops M when the target ends on a match → (S, L);
  (B) a symbol absent from the reference becomes (S = |E(ref)|, M = no)
  with L omitted (implicitly 1 consumed target symbol).
* ``T′`` — (S, L) factors where the mismatched bit M is inferred as
  ``NOT ref[S+L]``; only a final factor that has an M keeps the explicit
  (S, L, M) form, and a target identical to the reference is ∅.
* ``D`` — (pos, rd) pairs at positions where the target's relative distance
  differs from the reference's once both are quantized (instances share the
  point count, so D sequences are equal length).

All three decompress losslessly (D up to the shared quantization applied to
both sides).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.bits import quantize


@dataclass(frozen=True)
class Factor:
    """One (S, L, M) factor.  ``m is None`` → form (S, L); ``l is None`` →
    case-B form (S, M) with S = |ref|."""

    s: int
    l: int | None
    m: int | None


def _longest_match(ref: list[int], target: list[int], start: int) -> tuple[int, int]:
    """(S, L): the longest prefix of ``target[start:]`` occurring in ``ref``.

    Ties on L choose the smallest S (first occurrence), matching the
    paper's examples (e.g. ComE(Tu¹₂, Ref¹₁) factor (0,1,1) uses S = 0).
    """
    best_s, best_l = 0, 0
    n, t = len(ref), len(target)
    for s in range(n):
        l = 0
        while s + l < n and start + l < t and ref[s + l] == target[start + l]:
            l += 1
        if l > best_l:
            best_s, best_l = s, l
    return best_s, best_l


def factorize_e(ref: list[int], target: list[int]) -> list[Factor]:
    """ComE(Nref, Ref): greedy (S, L, M) factorization with rewrites A/B."""
    factors: list[Factor] = []
    i = 0
    n = len(target)
    while i < n:
        s, l = _longest_match(ref, target, i)
        if l == 0:
            # Case B: symbol not present anywhere in the reference.
            factors.append(Factor(len(ref), None, target[i]))
            i += 1
            continue
        i += l
        if i < n:
            factors.append(Factor(s, l, target[i]))  # M consumes one symbol
            i += 1
        else:
            factors.append(Factor(s, l, None))  # Case A: trailing match
    return factors


def apply_e(ref: list[int], factors: list[Factor]) -> list[int]:
    """Inverse of :func:`factorize_e`."""
    out: list[int] = []
    for f in factors:
        if f.l is None:
            out.append(f.m)  # case B
            continue
        out.extend(ref[f.s : f.s + f.l])
        if f.m is not None:
            out.append(f.m)
    return out


def factorize_tflag(ref: list[int], target: list[int]) -> list[Factor]:
    """ComT′(Nref, Ref): (S, L) factors with M inferred from the reference.

    The mismatch bit after a factor is ``NOT ref[S+L]``, hence implicit;
    the final factor keeps an explicit M only when it exists (mirrors the
    paper's "keep the last factor in the form (S, L, M) when M exists").
    An identical target yields ∅.
    """
    if target == ref:
        return []
    factors: list[Factor] = []
    i = 0
    n = len(target)
    while i < n:
        s, l, _ = _longest_bit_match(ref, target, i)
        i += l
        if i < n:
            m = target[i]
            i += 1
            # ``m is None`` means "implicit": decodable as NOT ref[S+L].
            # The inference can only fail on degenerate references (match
            # running off the reference end); keep M explicit then, and
            # always on the final factor (paper: "we always keep the last
            # factor in the form (S, L, M) when M exists").
            implicit_ok = s + l < len(ref) and (1 - ref[s + l]) == m
            last = i >= n
            factors.append(Factor(s, l, m if (last or not implicit_ok) else None))
        else:
            factors.append(Factor(s, l, None))
    return factors


def _longest_bit_match(
    ref: list[int], target: list[int], start: int
) -> tuple[int, int, bool]:
    """Longest T′ match, constrained so the following bit is M-inferable.

    Returns ``(S, L, inferable)``.  A match ending exactly at the end of the
    reference cannot have its next bit inferred as ``NOT ref[S+L]``; such a
    match is only chosen when it consumes the rest of the target (case A,
    no M needed).  Otherwise the best *inferable* match is returned — greedy
    maximality then guarantees ``target[start+L] == NOT ref[S+L]``.  An
    L = 0 inferable factor encodes the single bit ``NOT ref[0]``.
    """
    n, t = len(ref), len(target)
    best_inf = (0, 0)  # (s, l) with s+l < n
    best_end = (0, 0)  # (s, l) with s+l == n
    for s in range(n):
        l = 0
        while s + l < n and start + l < t and ref[s + l] == target[start + l]:
            l += 1
        if s + l < n:
            if l > best_inf[1]:
                best_inf = (s, l)
        elif l > best_end[1]:
            best_end = (s, l)
    if best_end[1] > 0 and start + best_end[1] >= t and best_end[1] >= best_inf[1]:
        return best_end[0], best_end[1], False
    return best_inf[0], best_inf[1], True


def apply_tflag(ref: list[int], factors: list[Factor]) -> list[int]:
    """Inverse of :func:`factorize_tflag` (∅ → copy of the reference)."""
    if not factors:
        return list(ref)
    out: list[int] = []
    for idx, f in enumerate(factors):
        out.extend(ref[f.s : f.s + f.l])
        if f.m is not None:
            out.append(f.m)
        elif idx < len(factors) - 1:
            # implicit mismatched bit
            out.append(1 - ref[f.s + f.l])
    return out


def diff_d(
    ref: list[float], target: list[float], bd: int
) -> list[tuple[int, float]]:
    """ComD(Nref, Ref): (pos, rd) pairs where the sequences differ after
    ``bd``-bit quantization.  Both sides decode through the same η_D grid,
    so equality there is exact."""
    if len(ref) != len(target):
        raise ValueError("D sequences of one uncertain trajectory share length")
    return [
        (i, t)
        for i, (r, t) in enumerate(zip(ref, target))
        if quantize(r, bd) != quantize(t, bd)
    ]


def apply_d(ref: list[float], diffs: list[tuple[int, float]]) -> list[float]:
    out = list(ref)
    for pos, rd in diffs:
        out[pos] = rd
    return out
