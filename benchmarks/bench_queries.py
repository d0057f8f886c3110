"""Query latency: UTCQ (StIU + partial decompression) vs the TED baseline
(full decompression) — the Figs. 9–10 shape backing Table 8's query claims.

Each benchmark runs a fixed batch of queries through one engine; the
shape assertions (UTCQ faster on when/range, thanks to Lemma 1/4 pruning
and partial decompression) are checked at the end of the module.
"""
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.core.compress_job import network_grid
from repro.core.config import DATASET_CONFIGS
from repro.query.queries import UTCQEngine
from repro.roadnet import grid_network
from repro.roadnet.grid import Rect
from repro.ted.ted_query import TEDBaselineEngine
from repro.trajgen import DATASET_PROFILES, generate_dataset

# HZ-like data (≈13 instances per trajectory): the setting where partial
# decompression and Lemma pruning matter most — the TED baseline must
# decompress every instance of a candidate trajectory.
DATASET = "hz"
N_TRAJ = 300
_state: dict = {}


def _setup():
    if _state:
        return _state
    prof = DATASET_PROFILES[DATASET]
    cfg = DATASET_CONFIGS[DATASET]
    net = grid_network(prof.network)
    trajs = generate_dataset(net, prof, n_traj=N_TRAJ)
    engine = UTCQEngine.from_trajectories(net, cfg, trajs)
    grid = network_grid(net, cfg.grid_n)
    ted = TEDBaselineEngine.from_trajectories(net, cfg, grid, trajs)

    where_qs = [(t.traj_id, t.t0 + 40, 0.2) for t in trajs[:80]]
    when_qs = [
        (t.traj_id, t.instances[0].path[len(t.instances[0].path) // 2], 0.5, 0.2)
        for t in trajs[:80]
    ]
    # Paper-style range queries: small cell regions (Example 4's re3 ∪ re4
    # scale) around locations the trajectories actually visit.
    range_qs = []
    for t in trajs[:60]:
        vx, vy = net.coords[t.instances[0].path[len(t.instances[0].path) // 2][0]]
        half = 2 * grid.dx
        range_qs.append(
            (Rect(vx - half, vy - half, vx + half, vy + half), t.t0 + 30, 0.3)
        )
    _state.update(
        engine=engine, ted=ted, where_qs=where_qs, when_qs=when_qs,
        range_qs=range_qs, times={},
    )
    return _state


def _run(label, fn, queries):
    st = _setup()
    t0 = time.perf_counter()
    out = [fn(*q) for q in queries]
    st["times"][label] = (time.perf_counter() - t0) / len(queries) * 1e3
    return out


def test_where_utcq(benchmark):
    st = _setup()
    benchmark(lambda: _run("where_utcq", st["engine"].where, st["where_qs"]))


def test_where_ted(benchmark):
    st = _setup()
    benchmark(lambda: _run("where_ted", st["ted"].where, st["where_qs"]))


def test_when_utcq(benchmark):
    st = _setup()
    benchmark(lambda: _run("when_utcq", st["engine"].when, st["when_qs"]))


def test_when_ted(benchmark):
    st = _setup()
    benchmark(lambda: _run("when_ted", st["ted"].when, st["when_qs"]))


def test_range_utcq(benchmark):
    st = _setup()
    benchmark(lambda: _run("range_utcq", st["engine"].range, st["range_qs"]))


def test_range_ted(benchmark):
    st = _setup()
    benchmark(lambda: _run("range_ted", st["ted"].range, st["range_qs"]))


def test_query_shape_summary(benchmark, capfd):
    """UTCQ must answer queries faster than the TED baseline (Fig. 10 /
    §6.3 shape) — and both agree on results (tests/test_query_job.py)."""
    st = _setup()

    from _bench_common import Announcer

    announce = Announcer(capfd)

    def summarize():
        t = st["times"]
        assert set(t) >= {
            "where_utcq", "where_ted", "when_utcq", "when_ted",
            "range_utcq", "range_ted",
        }, "run the engine benches first (pytest runs them in file order)"
        announce("\n=== per-query latency (ms) ===")
        for q in ("where", "when", "range"):
            announce(f"{q:6} UTCQ {t[f'{q}_utcq']:.3f}  TED {t[f'{q}_ted']:.3f}")
        assert t["when_utcq"] < t["when_ted"]
        assert t["range_utcq"] < t["range_ted"]
        assert t["where_utcq"] < t["where_ted"]

    benchmark.pedantic(summarize, rounds=1, iterations=1)
