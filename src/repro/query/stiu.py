"""StIU — Spatio-temporal Information based Uncertain Trajectory Index (§5.2).

Tuples are produced per trajectory inside the compression kernel (the paper
builds the index during compression), travel in the compressed row's typed
``tindex``/``sindex`` array columns (:data:`TEMPORAL_TUPLE_SCHEMA`,
:data:`SPATIAL_TUPLE_SCHEMA`) and are exploded into two DataFrames by
:func:`index_dataframes`:

* temporal: ``(traj_id, interval_id, t_start, t_no, t_pos)`` — earliest
  timestamp per time partition with its position in T(Tu) and the bit
  offset of the following SIAR delta in the blob (partial decode entry);
* spatial:  ``(traj_id, interval_id*, inst_id, ref_id, kind, region,
  fv_id, fv_no, d_pos, ma_pos, p_total, p_max, t_enter, t_exit)`` — one
  tuple per (instance, region) first visit, with reference tuples carrying
  the Lemma-1/3/4 pruning aggregates p_total / p_max.

``fv_id = -1`` encodes the paper's ∞ ("the reference itself did not
traverse re").  Time windows [t_enter, t_exit] are conservative supersets
derived from the sample timestamps bracketing the visit, so index filtering
never drops a true candidate.
"""
from __future__ import annotations

from bisect import bisect_left

from repro.bits import bits_for_bound
from repro.core.encoder import CompressedTrajectory
from repro.core.model import TedTuple
from repro.query.arrays import gamma_naive
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import SpatialGrid


def entry_index_of_edges(entries: list[int]) -> list[int]:
    """Entry index (into E incl. the extra-point 0s) of each path edge."""
    return [i for i, no in enumerate(entries) if no > 0]


def path_vertices(net: RoadNetwork, sv: int, entries: list[int]) -> list[int]:
    verts = [sv]
    for no in entries:
        if no > 0:
            verts.append(net.out_edge(verts[-1], no))
    return verts


def path_structure(net: RoadNetwork, ted: TedTuple) -> tuple[list[int], list[int]]:
    """(path vertices, path-edge index of each sample point) from SV, E and
    T′ alone — no relative distances needed."""
    pt_edges: list[int] = []
    edge_j = -1
    for no, flag in zip(ted.entries, ted.tflag):
        if no > 0:
            edge_j += 1
        if flag:
            pt_edges.append(edge_j)
    return path_vertices(net, ted.sv, ted.entries), pt_edges


def visits_of(
    net: RoadNetwork, grid: SpatialGrid, verts: list[int]
) -> list[tuple[int, int, int]]:
    """First visit per region: list of (region, enter_vertex_idx, exit_vertex_idx)."""
    regions = [grid.cell_of(*net.coords[v]) for v in verts]
    out: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    i = 0
    while i < len(regions):
        j = i
        while j + 1 < len(regions) and regions[j + 1] == regions[i]:
            j += 1
        if regions[i] not in seen:
            seen.add(regions[i])
            out.append((regions[i], i, j))
        i = j + 1
    return out


def _visit_window(
    tss: list[int], point_edge_idx: list[int], k_enter: int, k_exit: int
) -> tuple[int, int]:
    """Conservative [t_enter, t_exit] for a visit over vertex run
    [k_enter, k_exit]: bracketing sample timestamps outside the run."""
    enter_edge = max(0, k_enter - 1)
    exit_edge = k_exit  # edge leaving the run (if any) has index k_exit
    lo = bisect_left(point_edge_idx, enter_edge)
    t_enter = tss[lo - 1] if lo > 0 else tss[0]
    hi = bisect_left(point_edge_idx, exit_edge + 1)
    t_exit = tss[hi] if hi < len(tss) else tss[-1]
    return t_enter, t_exit


def build_traj_tuples(
    net: RoadNetwork,
    grid: SpatialGrid,
    duration_s: int,
    eta_d: float,
    teds: dict[int, TedTuple],
    ref_of: dict[int, int],
    ct: CompressedTrajectory,
    timestamps: list[int],
) -> tuple[list[dict], list[dict]]:
    """All StIU tuples for one compressed trajectory.

    ``teds`` maps instance id → improved-TED representation (available in
    the compression kernel); ``ct`` supplies the partial-decode offsets.
    """
    tss = timestamps
    m = len(tss)

    # ---- temporal tuples -------------------------------------------------
    temporal: list[dict] = []
    first_iv = tss[0] // duration_s
    last_iv = tss[-1] // duration_s
    idx = 0
    for iv in range(first_iv, last_iv + 1):
        lo, hi = iv * duration_s, (iv + 1) * duration_s
        while idx < m and tss[idx] < lo:
            idx += 1
        if idx >= m or tss[idx] >= hi:
            continue  # no sample timestamp inside this partition
        t_no = idx
        temporal.append(
            {
                "interval_id": iv,
                "t_start": tss[t_no],
                "t_no": t_no,
                "t_pos": ct.delta_offsets[t_no] if t_no < m - 1 else -1,
            }
        )

    # ---- per-instance geometry ------------------------------------------
    info: dict[int, dict] = {}
    for i, ted in teds.items():
        verts, pt_edges = path_structure(net, ted)
        info[i] = {
            "verts": verts,
            "entry_idx": entry_index_of_edges(ted.entries),
            "pt_edges": pt_edges,
            "visits": visits_of(net, grid, verts),
            "gamma": gamma_naive(ted.tflag),
        }

    # region → members and visit data
    region_members: dict[int, dict[int, tuple[int, int]]] = {}
    for i, inf in info.items():
        for region, k0, k1 in inf["visits"]:
            region_members.setdefault(region, {})[i] = (k0, k1)

    bd = bits_for_bound(eta_d)
    spatial: list[dict] = []
    groups: dict[int, list[int]] = {}
    for i, r in ref_of.items():
        groups.setdefault(r, []).append(i)

    for r, members in groups.items():
        ref_regions = {reg for reg, _, _ in info[r]["visits"]}
        group_regions = set()
        for i in members:
            group_regions |= {reg for reg, _, _ in info[i]["visits"]}
        for region in sorted(group_regions):
            omega_members = [i for i in members if i in region_members.get(region, {})]
            # From the unquantized p; ``ct.probs`` holds the quantized ones.
            p_total = sum(teds[i].prob for i in omega_members)
            nonref_ps = [teds[i].prob for i in omega_members if i != r]
            p_max = max(nonref_ps) if nonref_ps else 0.0
            windows = []
            for i in omega_members:
                k0, k1 = region_members[region][i]
                windows.append(
                    _visit_window(tss, info[i]["pt_edges"], k0, k1)
                )
            t_enter = min(w[0] for w in windows)
            t_exit = max(w[1] for w in windows)
            if region in ref_regions:
                k0, k1 = region_members[region][r]
                inf = info[r]
                if k0 == 0:
                    fv_id, fv_no, d_pos = inf["verts"][0], 0, 0
                else:
                    fv_id = inf["verts"][k0 - 1]
                    fv_no = inf["entry_idx"][k0 - 1]
                    d_no = inf["gamma"][fv_no]
                    d_pos = ct.inst_offsets[r]["d_start"] + d_no * bd
                spatial.append(
                    _srow(r, r, "ref", region, fv_id, fv_no, d_pos, -1,
                          p_total, p_max, t_enter, t_exit)
                )
            else:
                spatial.append(
                    _srow(r, r, "ref", region, -1, -1, -1, -1,
                          p_total, p_max, t_enter, t_exit)
                )
            # non-reference tuples
            for i in omega_members:
                if i == r:
                    continue
                k0, k1 = region_members[region][i]
                inf = info[i]
                w0, w1 = _visit_window(tss, inf["pt_edges"], k0, k1)
                if k0 == 0:
                    rv_id, rv_no, ma_pos = inf["verts"][0], 0, 0
                else:
                    fv_no = inf["entry_idx"][k0 - 1]
                    h, rv_no = _factor_of_entry(ct, i, fv_no)
                    rv_id = _vertex_of_entry(inf, rv_no)
                    ma_pos = ct.inst_offsets[i]["come_factor_offsets"][h]
                spatial.append(
                    _srow(i, r, "nonref", region, rv_id, rv_no, -1, ma_pos,
                          0.0, 0.0, w0, w1)
                )
    return temporal, spatial


def _vertex_of_entry(inf: dict, entry_idx: int) -> int:
    """Start vertex of the path edge owning ``entry_idx``."""
    eidx = inf["entry_idx"]
    j = bisect_left(eidx, entry_idx)
    if j == len(eidx) or eidx[j] != entry_idx:
        j = max(0, j - 1)  # a 0-entry belongs to the previous edge
    return inf["verts"][j]


def _factor_of_entry(
    ct: CompressedTrajectory, inst_id: int, entry_idx: int
) -> tuple[int, int]:
    """(factor index h, span start) of the ComE factor covering ``entry_idx``."""
    spans = ct.inst_offsets[inst_id].get("come_spans", [])
    for h, (a, b) in enumerate(spans):
        if a <= entry_idx < b:
            return h, a
    return max(0, len(spans) - 1), spans[-1][0] if spans else 0


def _srow(
    inst_id, ref_id, kind, region, fv_id, fv_no, d_pos, ma_pos,
    p_total, p_max, t_enter, t_exit
) -> dict:
    return {
        "inst_id": inst_id,
        "ref_id": ref_id,
        "kind": kind,
        "region": region,
        "fv_id": fv_id,
        "fv_no": fv_no,
        "d_pos": d_pos,
        "ma_pos": ma_pos,
        "p_total": p_total,
        "p_max": p_max,
        "t_enter": t_enter,
        "t_exit": t_exit,
    }


# ---- Spark-level index construction -------------------------------------

TEMPORAL_TUPLE_SCHEMA = (
    "array<struct<interval_id:long,t_start:long,t_no:int,t_pos:long>>"
)
SPATIAL_TUPLE_SCHEMA = (
    "array<struct<inst_id:int,ref_id:int,kind:string,region:int,"
    "fv_id:long,fv_no:int,d_pos:long,ma_pos:long,"
    "p_total:double,p_max:double,t_enter:long,t_exit:long>>"
)


def index_dataframes(compressed_df):
    """Explode the per-trajectory ``tindex``/``sindex`` columns of a
    compressed DataFrame into the two StIU index DataFrames."""
    from pyspark.sql import functions as F

    tindex = compressed_df.select("traj_id", F.inline("tindex"))
    sindex = compressed_df.select("traj_id", F.inline("sindex"))
    return tindex, sindex


def index_size_bits(tindex_count: int, sindex_count: int) -> int:
    """Storage accounting for the StIU index: temporal tuples hold
    (t_start 17b, t_no 16b, t_pos 32b); spatial tuples hold ids/offsets/
    probabilities ≈ (32+16+32+32+2·16) bits — used for the Fig. 9-style
    index-size comparison."""
    return tindex_count * (17 + 16 + 32) + sindex_count * (32 + 16 + 32 + 32 + 32)
