"""Parameter-sweep behaviour (Table 7 knobs; Figs. 8 and 11 shape)."""
import pytest

from repro.bits import bits_for_bound
from repro.core.config import DATASET_CONFIGS, PARAMETER_RANGES, UTCQConfig
from repro.core.encoder import compress_trajectory
from repro.roadnet import grid_network
from repro.trajgen import DATASET_PROFILES, generate_dataset


@pytest.fixture(scope="module")
def data():
    net = grid_network("test")
    return net, generate_dataset(net, DATASET_PROFILES["test"], n_traj=30)


def total_ratio(net, trajs, cfg):
    o = c = 0
    for t in trajs:
        ct = compress_trajectory(net, t, cfg)
        o += sum(ct.orig_bits.values())
        c += sum(ct.comp_bits.values())
    return o / c


class TestTable7Ranges:
    def test_ranges_match_paper(self):
        assert PARAMETER_RANGES["number_of_pivots"] == [1, 2, 3, 4, 5]
        assert PARAMETER_RANGES["number_of_grid_cells"] == [8, 16, 32, 64, 128]
        assert PARAMETER_RANGES["time_partition_duration_min"] == [10, 20, 30, 40, 50, 60]
        assert PARAMETER_RANGES["error_bound_of_distance"][-1] == 1 / 128
        assert PARAMETER_RANGES["error_bound_of_probability"][-1] == 1 / 2048

    def test_dataset_defaults(self):
        # §6.2: pivot default 2 on DK, 1 on CD/HZ; §6.1: η_p per dataset.
        assert DATASET_CONFIGS["dk"].n_pivots == 2
        assert DATASET_CONFIGS["cd"].n_pivots == 1
        assert DATASET_CONFIGS["hz"].n_pivots == 1
        assert DATASET_CONFIGS["hz"].eta_p == 1 / 2048

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UTCQConfig(n_pivots=0)
        with pytest.raises(ValueError):
            UTCQConfig(time_partition_min=0)
        with pytest.raises(ValueError):
            UTCQConfig(eta_d=0.0)
        with pytest.raises(ValueError):
            UTCQConfig(eta_p=1.0)
        with pytest.raises(ValueError):
            UTCQConfig(grid_n=0)


class TestPivotSweep:
    """Fig. 8 shape: more pivots never hurt the ratio much and the best
    ratio is reached with few pivots."""

    def test_ratio_stable_across_pivots(self, data):
        net, trajs = data
        ratios = [
            total_ratio(net, trajs, UTCQConfig(n_pivots=k)) for k in (1, 2, 3, 5)
        ]
        assert max(ratios) / min(ratios) < 1.15
        for r in ratios:
            assert r > 1.0


class TestErrorBoundSweep:
    """Fig. 11 relation: looser η_D → fewer D bits (higher D ratio)."""

    def test_d_bits_track_bound(self, data):
        net, trajs = data
        d_bits = {}
        for eta in (1 / 8, 1 / 32, 1 / 128):
            c = 0
            for t in trajs:
                ct = compress_trajectory(net, t, UTCQConfig(eta_d=eta))
                c += ct.comp_bits["D"]
            d_bits[eta] = c
        assert d_bits[1 / 8] < d_bits[1 / 32] < d_bits[1 / 128]

    def test_bits_for_bound_sweep(self):
        for eta in PARAMETER_RANGES["error_bound_of_distance"]:
            assert 3 <= bits_for_bound(eta) <= 7
        for eta in PARAMETER_RANGES["error_bound_of_probability"]:
            assert 7 <= bits_for_bound(eta) <= 11

    def test_p_bits_track_bound(self, data):
        net, trajs = data
        p_tight = sum(
            compress_trajectory(net, t, UTCQConfig(eta_p=1 / 2048)).comp_bits["p"]
            for t in trajs
        )
        p_loose = sum(
            compress_trajectory(net, t, UTCQConfig(eta_p=1 / 128)).comp_bits["p"]
            for t in trajs
        )
        assert p_loose < p_tight
