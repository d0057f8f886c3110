"""TED-baseline query processing: full decompression per candidate.

The paper's point (§1, §5): TED's index "considers neither the uncertainty
nor is applicable to referentially represented trajectory instances" — so
the baseline keeps only a coarse index (region → trajectory ids and the
trajectory's time span) and must fully decompress *every* instance of every
candidate trajectory before evaluating a query.  Query semantics are
identical to ``repro.query.reference`` on the decoded data.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import UTCQConfig, Widths
from repro.core.model import (
    TedTrajectory,
    UncertainTrajectory,
    ted_path,
    ted_to_instance,
)
from repro.query.reference import (
    range_query_ref,
    when_query_ref,
    where_query_ref,
)
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import Rect, SpatialGrid
from repro.ted.ted_encode import decode_instance_payload, encode_instance_payload


@dataclass
class TedTrajBlob:
    """Per-trajectory compressed state of the baseline."""

    t0: int
    ts: int
    deltas: list[int]
    payloads: list[bytes]  # per instance, inst_id order
    wd: Widths
    regions: set[int]
    t_first: int
    t_last: int


def _traj_blob(
    net: RoadNetwork,
    grid: SpatialGrid,
    traj: TedTrajectory,
    payloads: list[bytes],
    wd: Widths,
) -> TedTrajBlob:
    """A trajectory's payloads with its coarse spatial index: the regions
    touched by any instance (built during compression, as TED does for
    accurate trajectories) and its time span."""
    regions = {
        grid.cell_of(*net.coords[v])
        for ted in traj.teds
        for v in ted_path(net, ted)[0]
    }
    tss = traj.timestamps()
    return TedTrajBlob(
        traj.t0, traj.ts, traj.deltas, payloads, wd, regions, tss[0], tss[-1],
    )


class TEDBaselineEngine:
    def __init__(
        self,
        net: RoadNetwork,
        grid: SpatialGrid,
        blobs: dict[int, TedTrajBlob],
    ) -> None:
        self.net = net
        self.grid = grid
        self.blobs = blobs
        self.region_index: dict[int, set[int]] = {}
        for tid, b in blobs.items():
            for region in b.regions:
                self.region_index.setdefault(region, set()).add(tid)

    @classmethod
    def from_trajectories(
        cls, net: RoadNetwork, cfg: UTCQConfig, grid: SpatialGrid, trajs
    ) -> "TEDBaselineEngine":
        """Driver-side construction (encode without Spark) — used by the
        query tests and the latency benchmarks."""
        blobs: dict[int, TedTrajBlob] = {}
        for t in trajs:
            traj = t.to_ted(net)
            wd = Widths.of(traj.num_points, cfg, net.max_out_degree)
            payloads = [encode_instance_payload(ted, wd) for ted in traj.teds]
            blobs[t.traj_id] = _traj_blob(net, grid, traj, payloads, wd)
        return cls(net, grid, blobs)

    # -- full decompression of one trajectory ------------------------------
    def decompress(self, traj_id: int) -> UncertainTrajectory:
        b = self.blobs[traj_id]
        insts = [
            ted_to_instance(self.net, decode_instance_payload(p, b.wd))
            for p in b.payloads
        ]
        return UncertainTrajectory(traj_id, b.t0, b.deltas, b.ts, insts)

    # -- queries -----------------------------------------------------------
    def where(self, traj_id: int, t: int, alpha: float) -> list[tuple]:
        if traj_id not in self.blobs:
            return []
        traj = self.decompress(traj_id)
        return [
            (i, u, v, nd) for i, u, v, nd in where_query_ref(self.net, traj, t, alpha)
        ]

    def when(
        self, traj_id: int, edge: tuple[int, int], rd: float, alpha: float
    ) -> list[tuple]:
        if traj_id not in self.blobs:
            return []
        traj = self.decompress(traj_id)
        return when_query_ref(self.net, traj, edge, rd, alpha)

    def range(self, rect: Rect, tq: int, alpha: float) -> list[int]:
        cells = self.grid.cells_near(rect, self.net.max_edge_length)
        cands: set[int] = set()
        for c in cells:
            cands |= self.region_index.get(c, set())
        cands = {
            t
            for t in cands
            if self.blobs[t].t_first <= tq <= self.blobs[t].t_last
        }
        trajs = [self.decompress(t) for t in sorted(cands)]
        return range_query_ref(self.net, trajs, rect, tq, alpha)
