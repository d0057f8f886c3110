"""Golden blob bytes and per-component bit totals (driver-side, no Spark).

The digest is one sha256 over the compressed trajectories sorted by
``traj_id``: for each, ``traj_id`` and ``nbits`` as 8-byte big-endian
integers, then the blob.  Any change to the blob format, the field widths
or the Table 8 accounting shows here; a PR that changes them on purpose
updates these values and says so.
"""
import hashlib
from dataclasses import replace

import pytest

from repro.core.config import DATASET_CONFIGS
from repro.core.encoder import compress_trajectory
from repro.roadnet.generator import grid_network
from repro.trajgen import DATASET_PROFILES, generate_dataset

# A tail-shaped ``hz`` profile: 150 instances on 120-edge paths, so
# Algorithm 1 makes hundreds of picks per trajectory.
TAIL = replace(
    DATASET_PROFILES["hz"],
    min_instances=150, avg_instances=150.0, max_instances=150,
    min_edges=120, avg_edges=120.0, max_edges=120,
)

# name -> (dataset, profile, trajectories, digest, component totals)
GOLDEN = {
    "test": (
        "test",
        DATASET_PROFILES["test"],
        25,
        "86a530d627bea09be5a54a792fb8b571de56ae83d525a2223e31dc93732d813b",
        {"T": 919, "E": 3170, "D": 1274, "Tp": 637, "p": 846, "meta": 1483},
    ),
    "hz": (
        "hz",
        DATASET_PROFILES["hz"],
        100,
        "20ab6a2a1b1679bbe01d6e05c0921eba72e2ba234e0581b9ee2d5a2f464cc15c",
        {"T": 5933, "E": 38694, "D": 11941, "Tp": 14155, "p": 12749, "meta": 17825},
    ),
    "tail": (
        "hz",
        TAIL,
        2,
        "2d65e8e483198ee53188b3a5bef90c8dfe5e21b2f4ff1a1b6b812be360a45379",
        {"T": 798, "E": 17191, "D": 5082, "Tp": 7739, "p": 3300, "meta": 5327},
    ),
}


def blob_digest(cts) -> str:
    h = hashlib.sha256()
    for ct in sorted(cts, key=lambda c: c.traj_id):
        h.update(ct.traj_id.to_bytes(8, "big"))
        h.update(ct.nbits.to_bytes(8, "big"))
        h.update(ct.blob)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_blobs(name):
    dataset, profile, n_traj, digest, totals = GOLDEN[name]
    net = grid_network(dataset)
    cfg = DATASET_CONFIGS[dataset]
    trajs = generate_dataset(net, profile, n_traj)
    cts = [compress_trajectory(net, t, cfg) for t in trajs]
    assert blob_digest(cts) == digest
    assert {c: sum(ct.comp_bits[c] for ct in cts) for c in totals} == totals
    assert sum(ct.nbits for ct in cts) == sum(totals.values())
