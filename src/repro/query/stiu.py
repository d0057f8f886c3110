"""StIU — Spatio-temporal Information based Uncertain Trajectory Index (§5.2).

Tuples are produced per trajectory inside the compression kernel (the paper
builds the index during compression), travel in the compressed row's typed
``tindex``/``sindex`` array columns (:data:`TEMPORAL_TUPLE_SCHEMA`,
:data:`SPATIAL_TUPLE_SCHEMA`) and are exploded into two DataFrames by
:func:`index_dataframes`:

* temporal: ``(traj_id, interval_id, t_start, t_no, t_pos)`` — earliest
  timestamp per time partition with its position in T(Tu) and the bit
  offset of the following SIAR delta in the blob (partial decode entry);
* spatial:  ``(traj_id, inst_id, ref_id, kind, region, fv_id, p_max,
  t_enter, t_exit)`` — one tuple per (instance, region) first visit.
  ``fv_id`` is the start vertex of the edge on which the instance enters
  the region (its SV when the path starts there).  A reference tuple
  carries ``fv_id = -1``, the paper's ∞, when the reference itself does
  not traverse the region, and ``p_max``, the largest stored p of its
  non-references there (the Lemma 1 bound).

Queries decode whole instances from the ``insts`` offsets, so the tuples
carry no partial-decode pointers.  Time windows [t_enter, t_exit] are
conservative supersets derived from the sample timestamps bracketing the
visit, so index filtering never drops a true candidate.
"""
from __future__ import annotations

from bisect import bisect_left

from repro.core.encoder import CompressedTrajectory
from repro.core.model import TedTrajectory, ted_path
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import SpatialGrid


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
    traj: TedTrajectory,
    ct: CompressedTrajectory,
) -> tuple[list[dict], list[dict]]:
    """All StIU tuples for one trajectory, from its improved-TED form
    (available in the compression kernel) and its compressed form ``ct``,
    which supplies the references, the SIAR delta offsets and the stored
    (quantized) probabilities that queries compare with α.
    """
    tss = traj.timestamps()
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

    # ---- per instance: region → (entry vertex, t_enter, t_exit) ----------
    visits: dict[int, dict[int, tuple[int, int, int]]] = {}
    for i, ted in enumerate(traj.teds):
        verts, pt_edges = ted_path(net, ted)
        visits[i] = {
            region: (verts[max(0, k0 - 1)], *_visit_window(tss, pt_edges, k0, k1))
            for region, k0, k1 in visits_of(net, grid, verts)
        }

    groups: dict[int, list[int]] = {}
    for i, r in ct.ref_of.items():
        groups.setdefault(r, []).append(i)

    spatial: list[dict] = []
    for r, members in groups.items():
        for region in sorted(set().union(*(visits[i] for i in members))):
            here = [i for i in members if region in visits[i]]
            # Lemma 1 prunes on p_max < α, so it is taken over the stored
            # p that answers compare with α.
            p_max = max((ct.probs[i] for i in here if i != r), default=0.0)
            spatial.append({
                "inst_id": r, "ref_id": r, "kind": "ref", "region": region,
                "fv_id": visits[r][region][0] if region in visits[r] else -1,
                "p_max": p_max,
                "t_enter": min(visits[i][region][1] for i in here),
                "t_exit": max(visits[i][region][2] for i in here),
            })
            for i in here:
                if i != r:
                    fv_id, t_enter, t_exit = visits[i][region]
                    spatial.append({
                        "inst_id": i, "ref_id": r, "kind": "nonref",
                        "region": region, "fv_id": fv_id, "p_max": 0.0,
                        "t_enter": t_enter, "t_exit": t_exit,
                    })
    return temporal, spatial


# ---- Spark-level index construction -------------------------------------

TEMPORAL_TUPLE_SCHEMA = (
    "array<struct<interval_id:long,t_start:long,t_no:int,t_pos:long>>"
)
SPATIAL_TUPLE_SCHEMA = (
    "array<struct<inst_id:int,ref_id:int,kind:string,region:int,"
    "fv_id:long,p_max:double,t_enter:long,t_exit:long>>"
)


def index_dataframes(compressed_df):
    """Explode the per-trajectory ``tindex``/``sindex`` columns of a
    compressed DataFrame into the two StIU index DataFrames."""
    from pyspark.sql import functions as F

    tindex = compressed_df.select("traj_id", F.inline("tindex"))
    sindex = compressed_df.select("traj_id", F.inline("sindex"))
    return tindex, sindex


def index_size_bits(tindex_count: int, sindex_count: int) -> int:
    """Storage accounting for the StIU index (Fig. 9-style index size).

    A temporal tuple holds t_start 17b (seconds of day, as t0 in the
    blob), t_no 16b and t_pos 32b: 65 bits.  A spatial tuple holds
    inst_id 8b and ref_id 8b (a blob holds at most 255 instances), kind
    1b, region 16b (grids up to 256×256), fv_id 32b (a vertex id), p_max
    16b (a stored p), t_enter 17b and t_exit 17b: 115 bits.  The
    trajectory id and the interval id are not counted: the tuples are
    stored per trajectory, and the interval follows from t_start."""
    return tindex_count * (17 + 16 + 32) + sindex_count * (
        8 + 8 + 1 + 16 + 32 + 16 + 17 + 17
    )
