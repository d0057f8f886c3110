"""Workloads of the UTCQ benchmark: datasets, query candidates and the
fault probe.

Every input is a function of the workload name and the seed alone.  Each
dataset is what the repo's trajectory generator makes from
``dataclasses.replace`` on one of its ``DatasetProfile`` objects; the
program under test only ever sees the generated ``instances``/``times``
rows.  Query candidates are drawn from the generated input.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import DATASET_CONFIGS, UTCQConfig
from repro.core.model import Instance, UncertainTrajectory
from repro.query.reference import PathGeometry
from repro.roadnet import grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid import Rect, SpatialGrid
from repro.trajgen import DATASET_PROFILES, DatasetProfile, generate_trajectory


@dataclass(frozen=True)
class QueryMix:
    """Distinct queries of each type in one round of the closed loop."""

    where: int
    when: int
    range: int
    #: range probability thresholds
    alphas: tuple[float, ...]


#: Both workloads build on the HZ profile and its UTCQ configuration.
DATASET = "hz"
#: where/when ask for the k most likely instances: α lies halfway between
#: the k-th and the (k+1)-th probability of the trajectory
TOP_K = (1, 2, 4)
#: half side of a range rectangle, in grid cells
RANGE_HALF_CELLS = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    n_traj: int
    #: (instances, edges) per trajectory for a stratified dataset; None
    #: keeps the profile's own draws
    shapes: tuple[tuple[int, int], ...] | None
    #: place the trajectories one after another in the day, so that each
    #: query meets one trajectory and its cost follows that trajectory's
    #: size, not how many trajectories a seed happens to overlap in time
    sequential: bool
    #: trajectories (ids below this) compressed by the warm-up job
    warmup_traj: int
    #: Spark shuffle partitions per core: one suits many cheap groups;
    #: a few even out a handful of very unequal groups
    partitions_per_core: int
    mix: QueryMix
    #: seconds one round of the measured loop takes on the reference
    #: machine (README); a run measures the whole rounds that fit in
    #: ``--seconds``, so that it attempts the same operations every time
    round_s: float

    @property
    def cfg(self) -> UTCQConfig:
        return DATASET_CONFIGS[DATASET]

    def profiles(self, seed: int) -> list[DatasetProfile]:
        """One generation profile per trajectory slot."""
        base = replace(DATASET_PROFILES[DATASET], seed=seed, n_traj=self.n_traj)
        if self.shapes is None:
            return [base] * self.n_traj
        return [
            replace(
                base,
                min_instances=n, avg_instances=float(n), max_instances=n,
                min_edges=e, avg_edges=float(e), max_edges=e,
            )
            for n, e in self.shapes
        ]


def _tail_shapes(n: int, inst: tuple[int, int], edges: tuple[int, int]):
    """``n`` (instances, edges) pairs spread evenly over both ranges; the
    edge ranks are permuted (stride 7, coprime with ``n``) so long paths do
    not always carry the most instances."""
    def spread(lo, hi, k):
        return lo + (hi - lo) * k // max(1, n - 1)

    return tuple(
        (spread(*inst, k), spread(*edges, (7 * k) % n)) for k in range(n)
    )


WORKLOADS: dict[str, Workload] = {
    # HZ-lite, the paper's headline dataset: ~12 instances of ~14 edges.
    "hz": Workload(
        "hz", n_traj=1000, shapes=None, sequential=False,
        warmup_traj=100, partitions_per_core=1,
        mix=QueryMix(where=1000, when=1000, range=1000, alphas=(0.05, 0.1, 0.2, 0.3)),
        round_s=3.7,
    ),
    # Table 5's HZ tail: 130-170 instances on 110-140-edge paths, inside
    # the paper's 50-250 / 60-190 range (the encoder rejects more than 255
    # instances).  The narrow spread keeps one outsized trajectory from
    # setting the compression time and the p99s on its own.
    "tail": Workload(
        "tail", n_traj=16,
        shapes=_tail_shapes(16, (130, 170), (110, 140)), sequential=True,
        warmup_traj=2, partitions_per_core=4,
        mix=QueryMix(where=1000, when=1000, range=1000, alphas=(0.05, 0.1, 0.2)),
        round_s=7.5,
    ),
}


def tiny(w: Workload) -> Workload:
    """A few-second version of ``w`` for the smoke test."""
    shapes = None
    n_traj = 40
    if w.shapes is not None:
        n_traj = 3
        shapes = _tail_shapes(n_traj, (20, 40), (30, 50))
    return replace(
        w, n_traj=n_traj, shapes=shapes, warmup_traj=2,
        mix=replace(w.mix, where=20, when=20, range=20),
    )


# ---- dataset --------------------------------------------------------------


def network_of(w: Workload) -> RoadNetwork:
    return grid_network(DATASET_PROFILES[DATASET].network)


def generate(w: Workload, net: RoadNetwork, seed: int, gen=generate_trajectory):
    """The workload's uncertain trajectories, ids 0..n-1 (``gen`` lets the
    traced run time each call)."""
    out = [gen(net, prof, tid) for tid, prof in enumerate(w.profiles(seed))]
    if w.sequential:
        t0 = 0
        for k, traj in enumerate(out):
            out[k] = replace(traj, t0=t0)
            t0 += sum(traj.ts + d for d in traj.deltas) + SEQUENTIAL_GAP_S
        if out[-1].t0 >= 86_400:
            raise ValueError("sequential trajectories do not fit in one day")
    return out


#: seconds between one trajectory's last sample and the next one's first
SEQUENTIAL_GAP_S = 60


# ---- queries ----------------------------------------------------------------


@dataclass(frozen=True)
class Candidates:
    """Endless streams of query arguments, one per type, in the order the
    benchmark takes them."""

    where: Iterator[tuple[int, int, float]]  # (traj_id, t, alpha)
    when: Iterator[tuple[int, tuple[int, int], float, float]]  # (traj_id, edge, rd, alpha)
    range: Iterator[tuple[Rect, int, float]]  # (rect, tq, alpha)


def query_candidates(
    w: Workload, net: RoadNetwork, grid: SpatialGrid, trajs, seed: int
) -> Candidates:
    """Candidate ``c`` of each type targets trajectory ``c mod n`` and the
    ``TOP_K`` or ``alphas`` entry ``c`` modulo their count, so every seed
    spreads its queries and their decoding work alike; times, edges,
    instances and rectangles come from the seed.  Each stream draws from
    its own generator, so how many candidates one type uses does not
    change the others."""
    spans = {t.traj_id: (t.timestamps()[0], t.timestamps()[-1]) for t in trajs}

    def candidates(stream: int, thresholds):
        rng = np.random.default_rng([seed, 0x5EED, stream])
        for c in itertools.count():
            t = trajs[c % len(trajs)]
            t0, t1 = spans[t.traj_id]
            yield rng, t, int(rng.integers(t0, t1 + 1)), thresholds(t, c)

    def top_k(t, c):
        ps = sorted((i.prob for i in t.instances), reverse=True)
        k = min(TOP_K[c % len(TOP_K)], len(ps) - 1)
        return (ps[k - 1] + ps[k]) / 2

    def alphas(t, c):
        return w.mix.alphas[c % len(w.mix.alphas)]

    def where():
        for _, t, tq, a in candidates(0, top_k):
            yield t.traj_id, tq, a

    def when():
        for rng, t, _, a in candidates(1, top_k):
            inst = t.instances[int(rng.integers(len(t.instances)))]
            edge = inst.path[int(rng.integers(len(inst.path)))]
            yield t.traj_id, edge, float(rng.integers(16)) / 16.0, a

    def ranges():
        half = RANGE_HALF_CELLS
        for rng, t, tq, a in candidates(2, alphas):
            inst = t.instances[int(rng.integers(len(t.instances)))]
            geo = PathGeometry.of(net, inst)
            x, y = geo.coords_of(geo.pos_at(t.timestamps(), tq))
            rect = Rect(x - half * grid.dx, y - half * grid.dy,
                        x + half * grid.dx, y + half * grid.dy)
            yield rect, tq, a

    return Candidates(where(), when(), ranges())


# ---- the fault probe --------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """A fixed range query that the StIU first-visit fault answers wrongly.

    One trajectory (two instances, p = 0.6/0.4) drives the loop
    A→B→C→D→A→B and then leaves to E or F; at ``tq`` both instances are
    halfway along the second A→B, inside ``rect``.  Every vertex near the
    rectangle was first visited long before ``tq``, so the index filter
    finds no candidate.  The inputs do not depend on the seed.
    """

    net: RoadNetwork
    cfg: UTCQConfig
    traj: UncertainTrajectory
    rect: Rect
    tq: int
    alpha: float


def probe() -> Probe:
    a, b, c, d, e, f = range(900_001, 900_007)
    coords = {a: (0.0, 0.0), b: (100.0, 0.0), c: (100.0, 100.0),
              d: (0.0, 100.0), e: (250.0, 0.0), f: (250.0, 50.0)}
    adj = {a: [b], b: [c, e, f], c: [d], d: [a], e: [], f: []}
    net = RoadNetwork(coords, adj)
    loop = [(a, b), (b, c), (c, d), (d, a), (a, b)]
    pts = [0, 1, 2, 3, 4, 5]
    rds = [0.0, 0.5, 0.5, 0.5, 0.25, 0.5]
    insts = [
        Instance(0.6, loop + [(b, e)], pts, rds),
        Instance(0.4, loop + [(b, f)], pts, rds),
    ]
    t0, ts = 36_000, 20
    traj = UncertainTrajectory(0, t0, [0] * 5, ts, insts)
    traj.validate()
    # Samples 4 and 5 sit at path distance 425 (t0+80) and 575 or 579
    # (t0+100); at t0+83 both instances are at x ≈ 48 on the second A→B.
    return Probe(
        net, UTCQConfig(n_pivots=1), traj,
        Rect(40.0, -1.0, 60.0, 1.0), t0 + 83, 0.5,
    )
