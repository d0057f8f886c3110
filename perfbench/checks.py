"""Output checks, made apart from the program under test.

Each check returns a list of problems; an empty list means it passed.
None of these functions runs inside a timed span.
"""
from __future__ import annotations

import itertools
import operator

from repro.core.decoder import DecodedTrajectory
from repro.core.model import (
    Instance, UncertainTrajectory, instance_to_ted, ted_to_instance,
)
from repro.query.reference import (
    PathGeometry, overlaps_at, range_query_ref, when_query_ref, where_query_ref,
)

FLOAT_TOL = 1e-6
_COMPONENTS = ("comp_t", "comp_e", "comp_d", "comp_tp", "comp_p", "comp_meta")


def as_trajectory(net, dec: DecodedTrajectory) -> UncertainTrajectory:
    """A decoded blob as the reference implementation's input."""
    insts = [ted_to_instance(net, dec.teds[i]) for i in sorted(dec.teds)]
    return UncertainTrajectory(dec.traj_id, dec.t0, dec.deltas, dec.ts, insts)


def roundtrip(net, cfg, original: UncertainTrajectory, dec: DecodedTrajectory):
    """SV/E/T′/deltas/t0 exact, D within η_D, p within η_p.

    Returns ``(problems, empty_tprime)``: the second lists the instances
    whose only difference is the T′ of an instance with exactly two E
    entries, the empty-trimmed-T′ fault (see the README)."""
    tid = original.traj_id
    if (dec.t0, dec.ts, list(dec.deltas)) != (original.t0, original.ts, original.deltas):
        return [f"traj {tid}: time sequence differs"], []
    if sorted(dec.teds) != list(range(len(original.instances))):
        return [f"traj {tid}: instance ids {sorted(dec.teds)}"], []
    out, empty_tprime = [], []
    for i, inst in enumerate(original.instances):
        want, got = instance_to_ted(net, inst), dec.teds[i]
        if (got.sv, got.entries, got.tflag) != (want.sv, want.entries, want.tflag):
            if (got.sv, got.entries) == (want.sv, want.entries) and len(want.entries) == 2:
                empty_tprime.append(i)
            else:
                out.append(f"traj {tid} inst {i}: SV/E/T' differ")
        elif len(got.d) != len(want.d) or any(
            abs(a - b) > cfg.eta_d for a, b in zip(got.d, want.d)
        ):
            out.append(f"traj {tid} inst {i}: D outside eta_D")
        if abs(got.prob - want.prob) > cfg.eta_p:
            out.append(f"traj {tid} inst {i}: p outside eta_p")
    return out, empty_tprime


def returns_to_region(net, grid, inst: Instance) -> bool:
    """Whether the instance's path leaves a grid region and comes back."""
    verts = [inst.path[0][0]] + [v for _, v in inst.path]
    runs = [r for r, _ in itertools.groupby(grid.cell_of(*net.coords[v]) for v in verts)]
    return len(runs) != len(set(runs))


def component_bits(row) -> list[str]:
    total = sum(int(row[c]) for c in _COMPONENTS)
    if total != int(row["nbits"]):
        return [f"traj {row['traj_id']}: comp bits {total} != nbits {row['nbits']}"]
    return []


def original_bits(instances_pdf, times_pdf) -> int:
    """DESIGN.md §2's original-size accounting over the input rows: per
    instance a 32-bit timestamp copy per point, 32 bits per E entry plus
    32 for SV, one flag bit per T′ entry, a 64-bit double per relative
    distance, and a 64-bit probability."""
    m_of = {int(r.traj_id): len(r.deltas) + 1 for r in times_pdf.itertuples()}
    bits = 0
    for r in instances_pdf.itertuples():
        m = m_of[int(r.traj_id)]
        bits += 32 * m + 32 * (1 + len(r.e)) + len(r.tflag) + 64 * m + 64
    return bits


def same_where(got, want) -> bool:
    return len(got) == len(want) and all(
        g[:3] == w[:3] and abs(g[3] - w[3]) <= FLOAT_TOL for g, w in zip(got, want)
    )


def same_when(got, want) -> bool:
    return len(got) == len(want) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= FLOAT_TOL for g, w in zip(got, want)
    )


#: per query type, whether an answer equals the expected one
SAME = {"where": same_where, "when": same_when, "range": operator.eq}


class Oracle:
    """``repro.query.reference`` over the decoded trajectories.

    The reference functions run unchanged; while one runs, ``PathGeometry.of``
    is memoised per decoded instance, which the oracle keeps alive.
    """

    def __init__(self, net, decoded: dict[int, UncertainTrajectory]) -> None:
        self.net = net
        self.trajs = decoded
        self.spans = {
            tid: (t.timestamps()[0], t.timestamps()[-1]) for tid, t in decoded.items()
        }
        self._geometry: dict[int, PathGeometry] = {}
        self._returns: dict[int, bool] = {}

    def _run(self, fn, *args):
        raw = PathGeometry.__dict__["of"]
        memo = self._geometry

        def of(cls, net, inst):
            geo = memo.get(id(inst))
            if geo is None:
                geo = memo[id(inst)] = raw.__func__(cls, net, inst)
            return geo

        PathGeometry.of = classmethod(of)
        try:
            return fn(*args)
        finally:
            PathGeometry.of = raw

    def where(self, traj_id, t, alpha):
        return self._run(where_query_ref, self.net, self.trajs[traj_id], t, alpha)

    def when(self, traj_id, edge, rd, alpha):
        return self._run(when_query_ref, self.net, self.trajs[traj_id], edge, rd, alpha)

    def _active(self, tq):
        return [
            t for tid, t in self.trajs.items()
            if self.spans[tid][0] <= tq <= self.spans[tid][1]
        ]

    def range(self, rect, tq, alpha):
        # A trajectory whose time span misses tq has zero mass there, so
        # restricting the reference to active trajectories is exact.
        return self._run(range_query_ref, self.net, self._active(tq), rect, tq, alpha)

    def _mass(self, traj_id, rect, tq) -> float:
        """The trajectory's (quantised) probability mass inside ``rect`` at ``tq``."""
        t = self.trajs[traj_id]
        tss = t.timestamps()
        return self._run(lambda: sum(
            i.prob for i in t.instances if overlaps_at(self.net, i, tss, rect, tq)
        ))

    # -- attributing a wrong answer to a known fault (README) ---------------
    def first_visit_loss(self, engine, grid, rect, tq, alpha, got, want) -> bool:
        """Only qualifying trajectories are missing, and for each of them
        the index filter lost instances that are inside ``rect`` at ``tq``,
        every one of which returns to a grid region it had left: the StIU
        first-visit fault."""
        if not set(got) < set(want):
            return False
        found = engine.range_candidates(rect, tq, 0.0)
        for tid in set(want) - set(got):
            t = self.trajs[tid]
            tss = t.timestamps()
            lost = self._run(lambda: [
                inst for k, inst in enumerate(t.instances)
                if k not in found.get(tid, ())
                and overlaps_at(self.net, inst, tss, rect, tq)
            ])
            if not lost or not all(self._returns_to_region(grid, i) for i in lost):
                return False
        return True

    def _returns_to_region(self, grid, inst) -> bool:
        if id(inst) not in self._returns:
            self._returns[id(inst)] = returns_to_region(self.net, grid, inst)
        return self._returns[id(inst)]

    def lemma1_loss(self, traj_id, alpha, eta_p, got, want) -> bool:
        """Only whole instances are missing, each with a quantised p in
        [α, α + η_p): Lemma 1 pruned it on its unquantised p_max."""
        t = self.trajs[traj_id]
        kept = {g[0] for g in got}
        if not kept < {w[0] for w in want} or not same_when(
            got, [w for w in want if w[0] in kept]
        ):
            return False
        return all(
            alpha <= t.instances[w[0]].prob < alpha + eta_p
            for w in want if w[0] not in kept
        )

    def lemma4_loss(self, rect, tq, alpha, eta_p, got, want) -> bool:
        """Only qualifying trajectories are missing, each with an in-rectangle
        mass within n·η_p of α: the Spark job's Lemma 4 summed unquantised
        probabilities."""
        return set(got) < set(want) and all(
            self._mass(tid, rect, tq) - alpha
            <= len(self.trajs[tid].instances) * eta_p
            for tid in set(want) - set(got)
        )
