"""UTCQ probabilistic query processing over compressed trajectories (§5.3–5.4).

The :class:`UTCQEngine` holds the StIU index (loaded once from the
compressed rows' typed ``tindex``/``sindex`` columns) plus the compressed
blobs, and answers probabilistic where / when / range queries with index
filtering, Lemma 1–4 pruning, and partial decompression (per-instance section seeks; SIAR deltas decoded from the
temporal tuple's ``t_pos``).  A Spark-SQL range-query job lives in
``repro.query.query_job`` and shares the refinement kernel here.

All arithmetic matches ``repro.query.reference`` run on the *decoded*
(η-quantized) data, so pruning can be switched off and results compared
exactly in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.bits import BitReader, decode_delta
from repro.core.config import UTCQConfig
from repro.core.decoder import decode_instance_partial, decode_timestamps
from repro.core.encoder import CompressedTrajectory
from repro.core.model import TedTuple, ted_path, ted_to_instance
from repro.query.reference import PathGeometry, _time_at
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import Rect, SpatialGrid


@dataclass
class TrajIndexEntry:
    """Per-trajectory slice of the StIU index (driver-side)."""

    ct: CompressedTrajectory
    temporal: list[dict] = field(default_factory=list)  # sorted by t_start
    spatial: list[dict] = field(default_factory=list)


class UTCQEngine:
    """Driver-side query engine over the compressed dataset + StIU index."""

    def __init__(
        self,
        net: RoadNetwork,
        cfg: UTCQConfig,
        grid: SpatialGrid,
        entries: dict[int, TrajIndexEntry],
    ) -> None:
        self.net = net
        self.cfg = cfg
        self.grid = grid
        self.entries = entries
        for e in entries.values():
            e.temporal.sort(key=lambda t: t["t_start"])
        # Inverted spatial index: region → compact candidate rows
        # (traj_id, inst_id, t_enter, t_exit) — the in-memory image of
        # filtering the sindex DataFrame by region.  Reference tuples with
        # fv_id = −1 (reference did not traverse the region) can never
        # yield a candidate and are dropped at build time.
        self.by_region: dict[int, list[tuple[int, int, int, int]]] = {}
        for traj_id, e in entries.items():
            for s in e.spatial:
                if s["kind"] == "ref" and s["fv_id"] == -1:
                    continue
                self.by_region.setdefault(s["region"], []).append(
                    (traj_id, s["inst_id"], s["t_enter"], s["t_exit"])
                )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_compressed_df(
        cls, compressed_df, net: RoadNetwork, cfg: UTCQConfig
    ) -> "UTCQEngine":
        """Load the compressed rows + their index tuples once."""
        from repro.core import compress_job

        entries: dict[int, TrajIndexEntry] = {}
        for row in compress_job.collect_rows(compressed_df):
            ct = compress_job.ct_from_row(row)
            entries[ct.traj_id] = TrajIndexEntry(ct, row.tindex, row.sindex)
        return cls(net, cfg, compress_job.network_grid(net, cfg.grid_n), entries)

    @classmethod
    def from_trajectories(
        cls, net: RoadNetwork, cfg: UTCQConfig, trajs
    ) -> "UTCQEngine":
        """Driver-side construction: the compression job's per-trajectory
        kernel without Spark — used by unit tests and latency benchmarks."""
        from repro.core.compress_job import compress_and_index, network_grid

        grid = network_grid(net, cfg.grid_n)
        duration_s = cfg.time_partition_min * 60
        entries: dict[int, TrajIndexEntry] = {}
        for traj in trajs:
            ct, temporal, spatial = compress_and_index(
                net, grid, duration_s, traj.to_ted(net), cfg
            )
            entries[traj.traj_id] = TrajIndexEntry(ct, temporal, spatial)
        return cls(net, cfg, grid, entries)

    # -- shared helpers ----------------------------------------------------
    def _bracket(
        self, entry: TrajIndexEntry, t: float
    ) -> tuple[int, int, int, int] | None:
        """Locate sample indices k, k+1 with t_k ≤ t ≤ t_{k+1} by decoding
        SIAR deltas from the best temporal tuple (partial decompression).
        Returns (k, t_k, t_{k+1}, m) or None if t is outside the span."""
        ct = entry.ct
        m = ct.m
        tups = [tp for tp in entry.temporal if tp["t_start"] <= t]
        if not tups:
            return None
        tup = tups[-1]
        k = tup["t_no"]
        tk = tup["t_start"]
        if tk == t:
            if k == m - 1:
                return k, tk, tk, m  # exactly the last sample point
            # decode one delta for t_{k+1}
            r = BitReader(ct.blob, ct.nbits)
            r.seek(tup["t_pos"])
            tk1 = tk + ct.ts + decode_delta(r)
            return k, tk, tk1, m
        if tup["t_pos"] < 0:  # t_start is the last timestamp and t > it
            return None
        r = BitReader(ct.blob, ct.nbits)
        r.seek(tup["t_pos"])
        while k < m - 1:
            tk1 = tk + ct.ts + decode_delta(r)
            if tk1 >= t:
                return k, tk, tk1, m
            k += 1
            tk = tk1
        return None  # t beyond the last timestamp

    def _decode(
        self, entry: TrajIndexEntry, inst_id: int, cache: dict[int, TedTuple]
    ):
        ted = decode_instance_partial(
            entry.ct, self.cfg, self.net.max_out_degree, inst_id, cache
        )
        return ted_to_instance(self.net, ted)

    # -- probabilistic where query (Definition 10) -------------------------
    def where(self, traj_id: int, t: int, alpha: float) -> list[tuple]:
        entry = self.entries.get(traj_id)
        if entry is None:
            return []
        br = self._bracket(entry, t)
        if br is None:
            return []
        k, tk, tk1, _ = br
        cache: dict[int, TedTuple] = {}
        out = []
        for inst_id in sorted(entry.ct.probs):
            if entry.ct.probs[inst_id] < alpha:
                continue
            inst = self._decode(entry, inst_id, cache)
            geo = PathGeometry.of(self.net, inst)
            u, v, nd = geo.location_of(geo.pos_between(k, tk, tk1, t))
            out.append((inst_id, u, v, nd))
        return out

    # -- probabilistic when query (Definition 11) --------------------------
    def when(
        self,
        traj_id: int,
        edge: tuple[int, int],
        rd: float,
        alpha: float,
        use_lemma1: bool = True,
    ) -> list[tuple]:
        entry = self.entries.get(traj_id)
        if entry is None:
            return []
        region = self.grid.cell_of(*self.net.coords[edge[0]])
        tuples = [s for s in entry.spatial if s["region"] == region]
        if not tuples:
            return []
        # Lemma 1: if every ref tuple in this region has p_max < α, the
        # non-references of that reference need no decompression.
        pruned_refs = set()
        if use_lemma1:
            for s in tuples:
                if s["kind"] == "ref" and s["p_max"] < alpha:
                    pruned_refs.add(s["ref_id"])
        candidates = set()
        for s in tuples:
            if s["kind"] == "ref":
                if s["fv_id"] != -1:  # the reference itself passed re
                    candidates.add(s["inst_id"])
            elif s["ref_id"] not in pruned_refs:
                candidates.add(s["inst_id"])
        tss = decode_timestamps(entry.ct)
        cache: dict[int, TedTuple] = {}
        out = []
        for inst_id in sorted(candidates):
            if entry.ct.probs[inst_id] < alpha:
                continue
            inst = self._decode(entry, inst_id, cache)
            geo = PathGeometry.of(self.net, inst)
            for qpos in geo.edge_positions(*edge, rd):
                tcross = _time_at(geo, tss, qpos)
                if tcross is not None:
                    out.append((inst_id, tcross))
        return out

    # -- probabilistic range query (Definition 12) -------------------------
    def range(
        self,
        rect: Rect,
        tq: int,
        alpha: float,
        use_pruning: bool = True,
    ) -> list[int]:
        """``use_pruning=False`` turns Lemmas 2 and 4 off; answers are equal."""
        cand = self.range_candidates(rect, tq, alpha if use_pruning else 0.0)
        out = []
        for traj_id, inst_ids in sorted(cand.items()):
            if self.refine_range(traj_id, inst_ids, rect, tq, alpha, use_pruning):
                out.append(traj_id)
        return out

    def range_candidates(
        self, rect: Rect, tq: int, alpha: float
    ) -> dict[int, list[int]]:
        """Index filtering + Lemma 4: candidate instance ids per trajectory
        (a conservative superset over :meth:`SpatialGrid.cells_near`;
        refinement is exact)."""
        cells = self.grid.cells_near(rect, self.net.max_edge_length)
        per_traj: dict[int, set[int]] = {}
        for cell in cells:
            for traj_id, inst_id, t_enter, t_exit in self.by_region.get(cell, ()):
                if t_enter <= tq <= t_exit:
                    per_traj.setdefault(traj_id, set()).add(inst_id)
        out: dict[int, list[int]] = {}
        for traj_id, cands in per_traj.items():
            # Lemma 4 (retotal = expanded cell union ⊇ RE): prune when even
            # the candidate superset's probability mass cannot reach α.
            probs = self.entries[traj_id].ct.probs
            if sum(probs[i] for i in cands) < alpha:
                continue
            out[traj_id] = sorted(cands)
        return out

    def refine_range(
        self,
        traj_id: int,
        inst_ids: list[int],
        rect: Rect,
        tq: int,
        alpha: float,
        use_lemma2: bool = True,
    ) -> bool:
        """Exact per-instance overlap test with Lemma 2 shortcuts and the
        Lemma 3 early accept."""
        entry = self.entries[traj_id]
        br = self._bracket(entry, tq)
        if br is None:
            return False
        k, tk, tk1, m = br
        cache: dict[int, TedTuple] = {}
        mass = 0.0
        for inst_id in sorted(inst_ids):
            overlap = self._overlaps(
                entry, inst_id, cache, rect, tq, k, tk, tk1, m, use_lemma2
            )
            if overlap:
                mass += entry.ct.probs[inst_id]
                if mass >= alpha:  # Lemma 3 early accept
                    return True
        return mass >= alpha

    def _overlaps(
        self,
        entry: TrajIndexEntry,
        inst_id: int,
        cache: dict[int, TedTuple],
        rect: Rect,
        tq: int,
        k: int,
        tk: int,
        tk1: int,
        m: int,
        use_lemma2: bool,
    ) -> bool:
        if use_lemma2:
            # Lemma 2 on the vertex-to-vertex subpath spanned between the
            # bracketing samples — decided from E and T′ alone, WITHOUT
            # decompressing D (Example 6: sp from v1 to v4 is checked
            # "without decompressing D(Ref¹₁)").
            ted = decode_instance_partial(
                entry.ct, self.cfg, self.net.max_out_degree, inst_id, cache,
                need_d=False,
            )
            verts, pt_edges = ted_path(self.net, ted)
            e0 = pt_edges[k]
            e1 = pt_edges[min(k + 1, m - 1)]
            poly = [self.net.coords[v] for v in verts[e0 : e1 + 2]]
            if all(rect.contains(x, y) for x, y in poly):
                return True  # case (i): sp ⊆ RE
            if not any(
                rect.intersects_segment(a, b)
                for a, b in zip(poly[:-1], poly[1:])
            ):
                return False  # case (ii): sp ∩ RE = ∅
        # Ambiguous (or lemma disabled): decompress D and test the exact
        # interpolated position.
        inst = self._decode(entry, inst_id, cache)
        geo = PathGeometry.of(self.net, inst)
        x, y = geo.coords_of(geo.pos_between(k, tk, tk1, tq))
        return rect.contains(x, y)
