"""TED's length-grouped matrix "multiple-bases" compression of E (§2.3).

TED groups the binary codes of E by code length, forms an A×B bit matrix
per group, and applies "multiple bases-based compression", exploiting that
"the highest bit of each code in the matrix has a high probability of being
0".  [40] describes the step only at a high level; our reconstruction
(DESIGN.md §2) combines two transformations per matrix and keeps the
cheaper (raw layout as fallback):

1. **mixed-radix column packing** — per entry column the radix is the
   maximal outgoing-edge number + 1; each row is re-encoded as one
   mixed-radix integer, realizing exactly the high-zero-bit savings;
2. **greedy base selection** — candidate bases are the distinct rows; each
   round evaluates every candidate against every row (cost-reduction
   search) and adds the best base; rows store (base index, sparse XOR
   residual).  The candidate×row evaluation makes the step super-linear in
   the matrix height — reproducing the time/memory behaviour the paper
   attributes to TED's matrix operations (§6.2, §6.4).

Both transformations are lossless (radix digits / base ⊕ residual
reconstruct each row exactly).
"""
from __future__ import annotations

import math

from repro.bits import bits_needed

_MAX_BASES = 8


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _entries_of(code: str, be: int) -> list[int]:
    """Split a row bitstring back into its ``be``-bit entry values."""
    return [int(code[i : i + be], 2) for i in range(0, len(code), be)]


def radix_pack_bits(columns_max: list[int]) -> int:
    """Bits per row when packing one entry per column in mixed radix."""
    product = 1.0
    for mx in columns_max:
        product *= mx + 1
    return max(1, math.ceil(math.log2(product)))


def _radix_plan(codes: list[str], be: int) -> dict:
    """Transformation 1: per-column max radix + per-row packed size."""
    n_cols = len(codes[0]) // be if codes[0] else 0
    columns_max = [0] * n_cols
    rows_entries = [_entries_of(c, be) for c in codes]
    for entries in rows_entries:
        for j, v in enumerate(entries):
            if v > columns_max[j]:
                columns_max[j] = v
    per_row = radix_pack_bits(columns_max)
    dict_bits = n_cols * be  # the radix vector, stored once per matrix
    return {
        "rows": [per_row] * len(codes),
        "dict_bits": dict_bits,
        "total_bits": dict_bits + per_row * len(codes),
        "n_bases": n_cols,
        "fallback": False,
        "scheme": "radix",
    }


def _bases_plan(codes: list[str], b: int) -> dict:
    """Transformation 2: greedy cost-reduction base selection.

    Every round scores EVERY distinct row as a candidate base against
    EVERY row's current residual cost — the O(distinct·A) matrix pass per
    round that dominates TED's compression time.
    """
    rows = [int(code, 2) if code else 0 for code in codes]
    pos_bits = bits_needed(max(1, b))
    cnt_bits = bits_needed(b + 1)
    candidates = list(dict.fromkeys(rows))
    bases: list[int] = []
    # cost of each row under the current base set (without index bits)
    cur = [b] * len(rows)  # no base yet → raw
    for _ in range(min(_MAX_BASES, len(candidates))):
        best_gain, best_cand = 0, None
        for cand in candidates:
            if cand in bases:
                continue
            gain = 0
            for i, r in enumerate(rows):
                c = cnt_bits + _popcount(r ^ cand) * pos_bits
                if c < cur[i]:
                    gain += cur[i] - c
            gain -= b  # storing the base itself
            if gain > best_gain:
                best_gain, best_cand = gain, cand
        if best_cand is None:
            break
        bases.append(best_cand)
        for i, r in enumerate(rows):
            c = cnt_bits + _popcount(r ^ best_cand) * pos_bits
            if c < cur[i]:
                cur[i] = c
    if not bases:
        return {
            "rows": [b] * len(rows),
            "dict_bits": 0,
            "total_bits": b * len(rows),
            "n_bases": 0,
            "fallback": True,
            "scheme": "raw",
        }
    idx_bits = bits_needed(len(bases) + 1)  # +1: "no base" escape
    row_costs = [idx_bits + c for c in cur]
    dict_bits = len(bases) * b
    return {
        "rows": row_costs,
        "dict_bits": dict_bits,
        "total_bits": dict_bits + sum(row_costs),
        "n_bases": len(bases),
        "fallback": False,
        "scheme": "bases",
    }


def compress_group(codes: list[str], be: int = 3) -> dict:
    """Multiple-bases compression of one equal-length code group: the best
    of raw / mixed-radix packing / greedy bases."""
    if not codes:
        return {"rows": [], "dict_bits": 0, "total_bits": 0, "n_bases": 0,
                "scheme": "raw"}
    b = len(codes[0])
    if any(len(c) != b for c in codes):
        raise ValueError("a matrix group must hold equal-length codes")
    raw = {
        "rows": [b] * len(codes),
        "dict_bits": 0,
        "total_bits": b * len(codes),
        "n_bases": 0,
        "fallback": True,
        "scheme": "raw",
    }
    plans = [raw, _bases_plan(codes, b)]
    if be > 0 and b % be == 0:
        plans.append(_radix_plan(codes, be))
    return min(plans, key=lambda p: p["total_bits"])

