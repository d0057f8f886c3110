"""Fine-grained Jaccard Distance and the reference score function (§4.3).

``FJD(Tu_w → Tu_v, piv)`` estimates how well ``Tu_w`` would represent
``Tu_v`` from their (S, L) pivot representations alone (Eq. 1–2);
``SF(w, v) = Tu_w.p · max_i FJD(w → v, piv_i)`` then scores candidate
references, favouring high-probability instances (faster decompression of
likely query answers).
"""
from __future__ import annotations

SLFactor = tuple[int, int] | None


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    """|[S_a, S_a+L_a) ∩ [S_b, S_b+L_b)| — the paper's Ma_h ∩ Ma_h'."""
    return max(min(a[0] + a[1], b[0] + b[1]) - max(a[0], b[0]), 0)


def sim(
    factor_v: SLFactor, com_w: list[SLFactor]
) -> float:
    """Eq. 2: similarity of one factor of v against all factors of w.

    ``L^{iw}_max`` is the length of the w-factor attaining the maximal
    overlap (minimum length among ties, per the paper); omitted factors
    (``None``) contribute nothing.
    """
    if factor_v is None:
        return 0.0
    best_ov = 0
    best_l = 0
    for f in com_w:
        if f is None:
            continue
        ov = _overlap(f, factor_v)
        if ov > best_ov or (ov == best_ov and ov > 0 and f[1] < best_l):
            best_ov, best_l = ov, f[1]
    if best_ov == 0:
        return 0.0
    return best_ov / max(best_l, factor_v[1])


def fjd(com_w: list[SLFactor], com_v: list[SLFactor]) -> float:
    """Eq. 1: FJD(Tu_w → Tu_v, piv) from the two pivot representations."""
    h, h_prime = len(com_w), len(com_v)
    if h == 0 or h_prime == 0:
        return 0.0
    total = sum(sim(f, com_w) for f in com_v)
    return total / max(h, h_prime)


def score_matrix(
    probs: list[float],
    svs: list[int],
    coms: list[list[list[SLFactor]]],
) -> list[list[float]]:
    """SM[w][v] = SF(Tu_w, Tu_v) for all instance pairs (§4.3).

    * diagonal is 0 (an instance never represents itself);
    * pairs with different start vertices score 0 (the paper only scores
      same-SV pairs — instances starting elsewhere are rarely similar, and
      SV is omitted from the non-reference representation).
    """
    n = len(probs)
    sm = [[0.0] * n for _ in range(n)]
    for w in range(n):
        for v in range(n):
            if w == v or svs[w] != svs[v]:
                continue
            best = max((fjd(c[w], c[v]) for c in coms), default=0.0)
            sm[w][v] = probs[w] * best
    return sm
