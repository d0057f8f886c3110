"""Canonical in-memory model of network-constrained uncertain trajectories.

An :class:`Instance` is one possible path of an uncertain trajectory with its
mapped locations; :class:`UncertainTrajectory` groups the instances with the
shared time sequence (Definition 5: all instances share temporal
information).  :class:`TedTuple` is the improved TED representation of §4.1 —
``(SV, E, D, T′, p)`` — and is the exchange format between the trajectory
generator, the compressors, and Spark rows; :class:`TedTrajectory` is a whole
NCUT in that form, which is what both compressors encode.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.roadnet.graph import RoadNetwork


@dataclass
class Instance:
    """One map-matched path instance with its sample points.

    ``point_edge_idx[k]`` is the index into ``path`` of the edge carrying the
    ``k``-th mapped location; it is non-decreasing. ``rds[k]`` is the relative
    distance (Definition 7) of that location on its edge.
    """

    prob: float
    path: list[tuple[int, int]]
    point_edge_idx: list[int]
    rds: list[float]

    def validate(self) -> None:
        if len(self.point_edge_idx) != len(self.rds):
            raise ValueError("point/rd length mismatch")
        if not self.path:
            raise ValueError("empty path")
        if not self.point_edge_idx:
            raise ValueError("instance has no mapped locations")
        if list(self.point_edge_idx) != sorted(self.point_edge_idx):
            raise ValueError("points out of path order")
        if self.point_edge_idx[0] != 0:
            raise ValueError("first edge must carry a mapped location (§4.1)")
        if self.point_edge_idx[-1] != len(self.path) - 1:
            raise ValueError("last edge must carry a mapped location (§4.1)")
        for i in range(len(self.path) - 1):
            if self.path[i][1] != self.path[i + 1][0]:
                raise ValueError(f"path not connected at {i}")
        for rd in self.rds:
            if not 0.0 <= rd < 1.0 + 1e-12:
                raise ValueError(f"relative distance out of [0,1): {rd}")

    @property
    def sv(self) -> int:
        return self.path[0][0]


@dataclass
class TedTuple:
    """Improved TED representation (§4.1, Table 3) of a single instance.

    * ``sv`` — start vertex id (kept separate from the edge sequence).
    * ``entries`` — E(Tu): outgoing-edge numbers with ``r−1`` extra ``0``
      entries after an edge carrying ``r`` mapped locations.
    * ``tflag`` — the FULL time-flag bit-string (one bit per entry).  The
      encoder drops the first/last bit (always 1); the model keeps them so
      representations stay self-describing.
    * ``d`` — relative distances, one per mapped location.
    * ``prob`` — instance probability.
    """

    sv: int
    entries: list[int]
    tflag: list[int]
    d: list[float]
    prob: float

    def trimmed_tflag(self) -> list[int]:
        """T′ as stored: first and last bit omitted (§4.1)."""
        return self.tflag[1:-1]

    @property
    def num_points(self) -> int:
        return sum(self.tflag)


def original_bits(t: TedTuple, m: int) -> dict[str, int]:
    """Uncompressed size of one instance with ``m`` sample points, per
    component — the Table 8 numerators of both compressors (DESIGN.md §2.6).

    The raw NCUT input lists every instance as a full timestamped
    trajectory: 32-bit timestamps (T), a 32-bit start vertex and 32-bit
    entries (E), one bit per T′ flag, 64-bit relative distances (D) and a
    64-bit probability (p).
    """
    return {
        "T": 32 * m,
        "E": 32 * (1 + len(t.entries)),
        "Tp": len(t.tflag),
        "D": 64 * m,
        "p": 64,
    }


@dataclass
class UncertainTrajectory:
    """A NCUT: shared time sequence + N instances (Definition 5)."""

    traj_id: int
    t0: int  # seconds (start timestamp)
    deltas: list[int]  # SIAR deviations: (t_{i+1} − t_i) − Ts, length m−1
    ts: int  # default sample interval Ts (seconds)
    instances: list[Instance] = field(default_factory=list)

    @property
    def num_points(self) -> int:
        return len(self.deltas) + 1

    def timestamps(self) -> list[int]:
        return siar_timestamps(self.t0, self.ts, self.deltas)

    def to_ted(self, net: RoadNetwork) -> "TedTrajectory":
        """The improved-TED form: one :class:`TedTuple` per instance."""
        teds = [instance_to_ted(net, inst) for inst in self.instances]
        return TedTrajectory(self.traj_id, self.t0, self.deltas, self.ts, teds)

    def validate(self) -> None:
        if abs(sum(i.prob for i in self.instances) - 1.0) > 1e-6:
            raise ValueError("instance probabilities must sum to 1")
        m = self.num_points
        for inst in self.instances:
            inst.validate()
            if len(inst.rds) != m:
                raise ValueError("instance point count != time sequence length")
        tss = self.timestamps()
        if any(b <= a for a, b in zip(tss[:-1], tss[1:])):
            raise ValueError("timestamps not strictly increasing")


@dataclass
class TedTrajectory:
    """A NCUT in improved-TED form: the shared time sequence and one
    :class:`TedTuple` per instance, in instance-id order."""

    traj_id: int
    t0: int
    deltas: list[int]
    ts: int
    teds: list[TedTuple]

    @property
    def num_points(self) -> int:
        return len(self.deltas) + 1

    def timestamps(self) -> list[int]:
        return siar_timestamps(self.t0, self.ts, self.deltas)


def siar_timestamps(t0: int, ts: int, deltas: list[int]) -> list[int]:
    """Absolute timestamps from a first timestamp ``t0``, the default
    interval ``ts`` and the SIAR deviations that follow it (§4.1)."""
    out = [t0]
    for dlt in deltas:
        out.append(out[-1] + ts + dlt)
    return out


def instance_to_ted(net: RoadNetwork, inst: Instance) -> TedTuple:
    """Derive the improved TED representation from an instance (§4.1).

    Reproduces Table 3 from Fig. 2: per path edge its outgoing number, then
    ``r−1`` zeros for ``r`` mapped locations; T′ bit per entry = 1 iff the
    entry corresponds to a mapped location.
    """
    inst.validate()
    counts = [0] * len(inst.path)
    for e_idx in inst.point_edge_idx:
        counts[e_idx] += 1
    entries: list[int] = []
    tflag: list[int] = []
    for i, (u, v) in enumerate(inst.path):
        entries.append(net.out_no(u, v))
        tflag.append(1 if counts[i] >= 1 else 0)
        for _ in range(max(0, counts[i] - 1)):
            entries.append(0)
            tflag.append(1)
    return TedTuple(inst.sv, entries, tflag, list(inst.rds), inst.prob)


def ted_path(net: RoadNetwork, t: TedTuple) -> tuple[list[int], list[int]]:
    """Walk SV, E and T′: (path vertices, path-edge index of each sample
    point).  E's extra-point 0 entries add no edge; D is not read."""
    if len(t.entries) != len(t.tflag):
        raise ValueError("E/T' length mismatch")
    verts = [t.sv]
    pt_edges: list[int] = []
    for no, flag in zip(t.entries, t.tflag):
        if no > 0:
            verts.append(net.out_edge(verts[-1], no))
        elif len(verts) == 1:
            raise ValueError("edge sequence starts with 0")
        if flag:
            pt_edges.append(len(verts) - 2)
    return verts, pt_edges


def ted_to_instance(net: RoadNetwork, t: TedTuple) -> Instance:
    """Inverse of :func:`instance_to_ted` (losslessness of E/T′/D)."""
    verts, point_edge_idx = ted_path(net, t)
    if len(point_edge_idx) != len(t.d):
        raise ValueError("T' flags disagree with |D|")
    path = list(zip(verts[:-1], verts[1:]))
    return Instance(t.prob, path, point_edge_idx, list(t.d))
