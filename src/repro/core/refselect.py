"""Greedy reference selection — Algorithm 1 (§4.3).

Repeatedly picks the highest-scoring (reference, non-reference) pair from
the score matrix, enforcing the two constraints: each non-reference has
exactly one reference, and compression is single-order (a non-reference can
never itself become a reference).  Instances left unassigned become
standalone references with an empty representation set.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReferenceAssignment:
    """Output of Algorithm 1 for one uncertain trajectory.

    ``refs`` maps each reference instance index to its ``Rrs`` (the ordered
    list of non-reference indices it represents; possibly empty for
    standalone references).
    """

    refs: dict[int, list[int]] = field(default_factory=dict)

    @property
    def reference_indices(self) -> list[int]:
        return sorted(self.refs)

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        for r, rrs in self.refs.items():
            for v in rrs:
                if v in self.refs:
                    raise ValueError(f"{v} is both reference and non-reference")
                if v in seen:
                    raise ValueError(f"{v} has two references")
                seen.add(v)
        covered = seen | set(self.refs)
        if covered != set(range(n)):
            raise ValueError(f"instances not covered: {set(range(n)) - covered}")


def select_references(sm: list[list[float]]) -> ReferenceAssignment:
    """Algorithm 1 on the score matrix ``sm`` (SM[w][v] = SF(Tu_w, Tu_v))."""
    n = len(sm)
    out = ReferenceAssignment()
    # ``alive[w][v]`` mirrors "SM[w][v] ∈ SM"; diagonal entries stand for
    # the not-yet-assigned markers checked at lines 11–13.
    alive = [[True] * n for _ in range(n)]
    while True:
        best, bw, bv = 0.0, -1, -1
        for w in range(n):
            for v in range(n):
                if alive[w][v] and w != v and sm[w][v] > best:
                    best, bw, bv = sm[w][v], w, v
        if bw < 0:  # SM exhausted or current maximum is 0
            break
        if bw not in out.refs:
            out.refs[bw] = []
            # line 7: remove SM[v'][w] — w can no longer be a non-reference
            for vp in range(n):
                alive[vp][bw] = False
        out.refs[bw].append(bv)
        # line 9: remove SM[w'][v] and SM[v][w''] — v has its reference and
        # can never become a reference (single-order compression).
        for wp in range(n):
            alive[wp][bv] = False
            alive[bv][wp] = False
    # lines 11–13: leftover instances become standalone references.
    for w in range(n):
        if alive[w][w] and w not in out.refs:
            out.refs[w] = []
    out.validate(n)
    return out
