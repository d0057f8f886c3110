"""Pivot selection and (S, L) pivot representation (§4.3).

Pivots approximate pairwise instance similarity cheaply: every instance's
edge sequence is factorized against each pivot with pure (S, L) longest
matches (format of [10]); a symbol absent from the pivot contributes an
*omitted* factor — no (S, L) stored, but the factor count still grows.
"""
from __future__ import annotations

from repro.core.referential import _longest_match


def com_sl(pivot: list[int], target: list[int]) -> list[tuple[int, int] | None]:
    """(S, L) factorization of ``target`` against ``pivot``.

    Returns one element per factor; ``None`` marks an omitted factor (the
    symbol does not occur in the pivot).  Reproduces the §4.3 examples:
    ComE(Tu¹₁, piv₁) = ⟨(0,8),(5,1)⟩ and
    ComE(Tu¹₂, piv₁) = ⟨(0,1),(0,1),(2,6),(5,1)⟩ for piv₁ = Tu¹₃.
    """
    out: list[tuple[int, int] | None] = []
    i = 0
    while i < len(target):
        s, l = _longest_match(pivot, target, i)
        if l == 0:
            out.append(None)
            i += 1
        else:
            out.append((s, l))
            i += l
    return out


def select_pivots(
    e_seqs: list[list[int]], n_pivots: int
) -> tuple[list[int], list[list[list[tuple[int, int] | None]]]]:
    """Greedy pivot selection (§4.3).

    i) represent all instances against an arbitrary first instance
    (instance 0, deterministic here); ii) the instance with the most factors
    becomes a pivot; iii) re-represent everything against the newest pivot;
    iv) repeat until ``n_pivots`` pivots are chosen.

    Returns ``(pivot_indices, coms)`` where ``coms[p][w]`` is the (S, L)
    representation of instance ``w`` w.r.t. pivot ``p`` — the inputs to the
    FJD similarity estimate.
    """
    n = len(e_seqs)
    if n == 0:
        return [], []
    n_pivots = max(1, min(n_pivots, n))
    # Probe round (step i): factorize everything against instance 0.
    rep = [com_sl(e_seqs[0], e) for e in e_seqs]
    pivots: list[int] = []
    coms: list[list[list[tuple[int, int] | None]]] = []
    for _ in range(n_pivots):
        cands = [w for w in range(n) if w not in pivots]
        if not cands:
            break
        # Step ii: the instance with the most factors is farthest away.
        nxt = max(cands, key=lambda w: len(rep[w]))
        pivots.append(nxt)
        # Step iii: re-represent all instances against the newest pivot.
        rep = [com_sl(e_seqs[nxt], e) for e in e_seqs]
        coms.append(rep)
    return pivots, coms
