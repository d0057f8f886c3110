"""Exact probabilistic-query semantics on uncompressed trajectories.

Ground truth for the UTCQ query processor (Definitions 10–12):

* an instance's position at time t interpolates linearly in network
  distance along its path between the two bracketing sample points;
* ``where`` returns the mapped location ⟨(vs→ve), ndist⟩ per instance with
  p ≥ α; ``when`` returns the crossing times of a mapped location;
  ``range`` returns trajectories whose instance-probability mass inside RE
  at t_q reaches α.

These functions also run on *decoded* trajectories (quantized D/p), which
is how the compressed-query tests get exact-match oracles.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.model import Instance, UncertainTrajectory
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import Rect


@dataclass
class PathGeometry:
    """Cumulative-distance parameterization of one instance's path."""

    net: RoadNetwork
    inst: Instance
    edge_cum: list[float]  # cumulative length before each edge
    point_pos: list[float]  # path-distance of each sample point

    @classmethod
    def of(cls, net: RoadNetwork, inst: Instance) -> "PathGeometry":
        edge_cum = [0.0]
        for u, v in inst.path:
            edge_cum.append(edge_cum[-1] + net.edge_length(u, v))
        point_pos = [
            edge_cum[e] + rd * net.edge_length(*inst.path[e])
            for e, rd in zip(inst.point_edge_idx, inst.rds)
        ]
        return cls(net, inst, edge_cum, point_pos)

    def pos_at(self, tss: list[int], t: float) -> float | None:
        """Path-distance at time ``t`` (None outside the trajectory span)."""
        if t < tss[0] or t > tss[-1]:
            return None
        k = bisect_right(tss, t) - 1
        if k >= len(tss) - 1:
            return self.point_pos[-1]
        return self.pos_between(k, tss[k], tss[k + 1], t)

    def pos_between(self, k: int, tk: float, tk1: float, t: float) -> float:
        """Path-distance at time ``t`` interpolated between sample point
        ``k`` (at ``tk``) and sample point ``k + 1`` (at ``tk1``); sample
        point ``k`` when ``tk1 == tk``."""
        p0 = self.point_pos[k]
        if tk1 == tk:
            return p0
        p1 = self.point_pos[k + 1]
        return p0 + (p1 - p0) * (t - tk) / (tk1 - tk)

    def location_of(self, pos: float) -> tuple[int, int, float]:
        """(vs, ve, ndist): the mapped location at path-distance ``pos``."""
        e = bisect_right(self.edge_cum, pos) - 1
        e = min(max(e, 0), len(self.inst.path) - 1)
        u, v = self.inst.path[e]
        return u, v, pos - self.edge_cum[e]

    def coords_of(self, pos: float) -> tuple[float, float]:
        u, v, nd = self.location_of(pos)
        (x1, y1), (x2, y2) = self.net.coords[u], self.net.coords[v]
        ln = self.net.edge_length(u, v)
        f = nd / ln if ln > 0 else 0.0
        return x1 + f * (x2 - x1), y1 + f * (y2 - y1)

    def edge_positions(self, u: int, v: int, rd: float) -> list[float]:
        """Path-distances of every occurrence of location ⟨(u→v), rd⟩."""
        out = []
        for e, (a, b) in enumerate(self.inst.path):
            if (a, b) == (u, v):
                out.append(self.edge_cum[e] + rd * self.net.edge_length(u, v))
        return out


def where_query_ref(
    net: RoadNetwork, traj: UncertainTrajectory, t: int, alpha: float
) -> list[tuple[int, int, int, float]]:
    """Definition 10 → [(inst_id, vs, ve, ndist)] for instances p ≥ α."""
    tss = traj.timestamps()
    out = []
    for i, inst in enumerate(traj.instances):
        if inst.prob < alpha:
            continue
        geo = PathGeometry.of(net, inst)
        pos = geo.pos_at(tss, t)
        if pos is None:
            continue
        u, v, nd = geo.location_of(pos)
        out.append((i, u, v, nd))
    return out


def when_query_ref(
    net: RoadNetwork,
    traj: UncertainTrajectory,
    edge: tuple[int, int],
    rd: float,
    alpha: float,
) -> list[tuple[int, float]]:
    """Definition 11 → [(inst_id, t)] crossing times for instances p ≥ α."""
    tss = traj.timestamps()
    out = []
    for i, inst in enumerate(traj.instances):
        if inst.prob < alpha:
            continue
        geo = PathGeometry.of(net, inst)
        for qpos in geo.edge_positions(*edge, rd):
            t = _time_at(geo, tss, qpos)
            if t is not None:
                out.append((i, t))
    return out


def _time_at(geo: PathGeometry, tss: list[int], qpos: float) -> float | None:
    """First time the instance reaches path-distance ``qpos``."""
    pp = geo.point_pos
    if qpos < pp[0] - 1e-9 or qpos > pp[-1] + 1e-9:
        return None  # not traversed within the sampled span
    for k in range(len(pp) - 1):
        if pp[k] - 1e-9 <= qpos <= pp[k + 1] + 1e-9:
            if pp[k + 1] == pp[k]:
                return float(tss[k])
            f = (qpos - pp[k]) / (pp[k + 1] - pp[k])
            return tss[k] + f * (tss[k + 1] - tss[k])
    return None


def overlaps_at(
    net: RoadNetwork, inst: Instance, tss: list[int], rect: Rect, tq: int
) -> bool:
    """Does the instance's position at ``tq`` lie inside ``rect``?"""
    geo = PathGeometry.of(net, inst)
    pos = geo.pos_at(tss, tq)
    if pos is None:
        return False
    x, y = geo.coords_of(pos)
    return rect.contains(x, y)


def range_query_ref(
    net: RoadNetwork,
    trajs: list[UncertainTrajectory],
    rect: Rect,
    tq: int,
    alpha: float,
) -> list[int]:
    """Definition 12 → trajectory ids with overlap probability mass ≥ α."""
    out = []
    for traj in trajs:
        tss = traj.timestamps()
        mass = sum(
            inst.prob
            for inst in traj.instances
            if overlaps_at(net, inst, tss, rect, tq)
        )
        if mass >= alpha:
            out.append(traj.traj_id)
    return sorted(out)
