"""UTCQ parameters (Table 7 ranges with the paper's defaults).

The defaults mirror §6.1: η_D = 1/128; η_p = 1/512 (DK, CD) or 1/2048 (HZ);
pivot count 2 on DK, 1 on CD/HZ; 32×32 grid; 30-minute time partitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.bits import bits_for_bound, bits_needed

#: Table 7 — parameter ranges exercised by the benchmark sweeps.
PARAMETER_RANGES = {
    "number_of_instances_pct": [20, 40, 60, 80, 100],
    "trajectory_length_pct": [20, 40, 60, 80, 100],
    "number_of_pivots": [1, 2, 3, 4, 5],
    "number_of_grid_cells": [8, 16, 32, 64, 128],  # per axis (n×n)
    "time_partition_duration_min": [10, 20, 30, 40, 50, 60],
    "error_bound_of_distance": [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128],
    "error_bound_of_probability": [1 / 128, 1 / 256, 1 / 512, 1 / 1024, 1 / 2048],
}


@dataclass(frozen=True)
class UTCQConfig:
    """Knobs of the UTCQ compressor and the StIU index."""

    n_pivots: int = 1
    eta_d: float = 1 / 128
    eta_p: float = 1 / 512
    grid_n: int = 32
    time_partition_min: int = 30

    def __post_init__(self) -> None:
        if self.n_pivots < 1:
            raise ValueError("need at least one pivot")
        if self.time_partition_min < 1:
            raise ValueError("bad time partition")
        if self.grid_n < 1:
            raise ValueError("need at least one grid cell per axis")
        bits_for_bound(self.eta_d)  # raises unless η_D ∈ (0, 1)
        bits_for_bound(self.eta_p)


class Widths(NamedTuple):
    """Field widths of one trajectory's blob (§4.4); TED (§2.3) uses the
    same edge-number and PDDP widths, so Table 8 compares like with like."""

    #: number of sample points
    m: int
    #: edge number, ⌈log₂(o+1)⌉ (entries include the extra-point 0s)
    be: int
    #: relative distance, ⌈log₂ 1/η_D⌉
    bd: int
    #: probability, ⌈log₂ 1/η_p⌉
    bp: int
    #: ComD position, ⌈log₂ m⌉
    bm: int

    @classmethod
    def of(cls, m: int, cfg: UTCQConfig, max_out_degree: int) -> "Widths":
        return cls(
            m=m,
            be=bits_needed(max_out_degree + 1),
            bd=bits_for_bound(cfg.eta_d),
            bp=bits_for_bound(cfg.eta_p),
            bm=bits_needed(m),
        )


#: Per-dataset defaults from §6.1/§6.2.
DATASET_CONFIGS = {
    "dk": UTCQConfig(n_pivots=2, eta_p=1 / 512),
    "cd": UTCQConfig(n_pivots=1, eta_p=1 / 512),
    "hz": UTCQConfig(n_pivots=1, eta_p=1 / 2048),
    "test": UTCQConfig(n_pivots=1, eta_p=1 / 512, grid_n=8, time_partition_min=15),
}
