"""Greedy reference selection — Algorithm 1 (§4.3).

Repeatedly picks the highest-scoring (reference, non-reference) pair from
the score matrix, enforcing the two constraints: each non-reference has
exactly one reference, and compression is single-order (a non-reference can
never itself become a reference).  Instances left unassigned become
standalone references with an empty representation set.  The picks come
from one pass over the positive scores in (−score, w, v) order: O(n² log n).
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
    """Algorithm 1 on the score matrix ``sm`` (SM[w][v] = SF(Tu_w, Tu_v)).

    Entries only ever leave SM, so the largest live entry, ties broken
    row-major, is the first live one in (−score, w, v) order.
    """
    n = len(sm)
    out = ReferenceAssignment()
    nonrefs: set[int] = set()
    ranked = sorted(
        (-s, w, v) for w, row in enumerate(sm) for v, s in enumerate(row) if s > 0 and w != v
    )
    for _, w, v in ranked:
        # lines 7 and 9: SM[w][v] left SM once w or v became a non-reference
        # or v became a reference.
        if w not in nonrefs and v not in nonrefs and v not in out.refs:
            out.refs.setdefault(w, []).append(v)
            nonrefs.add(v)
    # lines 11–13: leftover instances become standalone references.
    for w in range(n):
        if w not in nonrefs and w not in out.refs:
            out.refs[w] = []
    out.validate(n)
    return out
