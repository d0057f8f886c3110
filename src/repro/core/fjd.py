"""Fine-grained Jaccard Distance and the reference score function (§4.3).

``FJD(Tu_w → Tu_v, piv)`` estimates how well ``Tu_w`` would represent
``Tu_v`` from their (S, L) pivot representations alone (Eq. 1–2);
``SF(w, v) = Tu_w.p · max_i FJD(w → v, piv_i)`` then scores candidate
references, favouring high-probability instances (faster decompression of
likely query answers).

``sim`` and ``fjd`` state Eq. 2 and Eq. 1 for one pair, one factor at a
time.  ``score_matrix`` computes the same values for every pair at once with
numpy: per pivot, the instances' factors are padded into ``(n, F)`` arrays
(F the most factors of any instance) and each v-factor column is one
broadcast over (w, v, w-factor), n²·F values per temporary.  The columns'
sims are added in column order, as ``fjd`` adds them, so the results are
bit-identical to the scalar functions, which the tests keep as its oracle.
"""
from __future__ import annotations

import numpy as np

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
    (``None``) contribute nothing.  This scalar form is the statement of
    Eq. 2 that ``score_matrix`` must reproduce exactly; the tests use it as
    the oracle.
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
    """Eq. 1: FJD(Tu_w → Tu_v, piv) from the two pivot representations.

    The scalar statement of Eq. 1 that ``score_matrix`` must reproduce
    exactly.  The sims are added one after another, in v-factor order (not
    with ``sum``, whose float rounding differs between Python versions).
    """
    h, h_prime = len(com_w), len(com_v)
    if h == 0 or h_prime == 0:
        return 0.0
    total = 0.0
    for f in com_v:
        total += sim(f, com_w)
    return total / max(h, h_prime)


def _padded(com: list[list[SLFactor]]):
    """One pivot's representations as ``(n, F)`` arrays ``S``, ``L``, ``ok``
    (False for omitted factors and padding) and the factor counts ``h``."""
    h = np.array([len(c) for c in com], dtype=np.int64)
    shape = (len(com), int(h.max(initial=0)))
    S, L, ok = np.zeros(shape, np.int64), np.zeros(shape, np.int64), np.zeros(shape, bool)
    for w, c in enumerate(com):
        for k, f in enumerate(c):
            if f is not None:
                S[w, k], L[w, k] = f
                ok[w, k] = True
    return S, L, ok, h


def _fjd_matrix(com: list[list[SLFactor]]) -> np.ndarray:
    """FJD(w → v, piv) for every (w, v) pair of one pivot's representations.

    Eq. 2 runs one v-factor column ``j`` at a time, and column ``j``'s sims
    go into ``total`` in column order, the order ``fjd`` adds them in, so
    the floats round the same way.
    """
    S, L, ok, h = _padded(com)
    n, width = S.shape
    E = S + L
    S_w, E_w, L_w, ok_w = S[:, None, :], E[:, None, :], L[:, None, :], ok[:, None, :]
    total = np.zeros((n, n))
    for j in range(width):
        S_v, E_v, L_v = S[None, :, j, None], E[None, :, j, None], L[None, :, j]
        ov = np.minimum(E_w, E_v) - np.maximum(S_w, S_v)
        ov = np.where(ok_w, np.maximum(ov, 0), 0)
        best_ov = ov.max(axis=2)
        # Among the w-factors tied at the best overlap, the shortest one.
        best_l = np.where(ov == best_ov[:, :, None], L_w, np.iinfo(np.int64).max).min(axis=2)
        hit = (best_ov > 0) & ok[None, :, j]
        total += np.divide(best_ov, np.maximum(best_l, L_v), out=np.zeros((n, n)), where=hit)
    h_w, h_v = h[:, None], h[None, :]
    return np.divide(total, np.maximum(h_w, h_v), out=np.zeros((n, n)),
                     where=(h_w > 0) & (h_v > 0))


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

    Every entry equals ``probs[w] * max(fjd(c[w], c[v]) for c in coms)``
    bit for bit; the loops run only over pivots and factor columns (see
    ``_fjd_matrix``).  Each temporary holds n²·F values: 2.3 MB of int64 at
    n = 168, F = 10, the largest of the benchmark's ``tail`` trajectories.
    """
    n = len(probs)
    best = np.zeros((n, n))
    for com in coms:
        best = np.maximum(best, _fjd_matrix(com))
    sm = np.asarray(probs, dtype=np.float64)[:, None] * best
    sv = np.asarray(svs)
    sm[sv[:, None] != sv[None, :]] = 0.0
    np.fill_diagonal(sm, 0.0)
    return sm.tolist()
