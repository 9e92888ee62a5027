"""Unit tests for the generic parameter-sweep utility."""

import pytest

from repro import SimulationConfig
from repro.experiments.sweep import best_value, sweep


@pytest.fixture(scope="module")
def bandwidth_sweep():
    config = SimulationConfig.paper().scaled(0.05)
    return sweep(config, "bandwidth_mbps", (5.0, 10.0, 100.0),
                 es_name="JobLocal", ds_name="DataDoNothing",
                 seeds=(0, 1))


class TestSweep:
    def test_validation(self):
        config = SimulationConfig.paper().scaled(0.05)
        with pytest.raises(ValueError, match="no sweep values"):
            sweep(config, "bandwidth_mbps", ())
        with pytest.raises(ValueError, match="not a SimulationConfig"):
            sweep(config, "warp_factor", (1,))

    def test_covers_every_value_and_seed(self, bandwidth_sweep):
        (axis,) = bandwidth_sweep.axes
        assert axis.values == (5.0, 10.0, 100.0)
        for value in axis.values:
            assert len(bandwidth_sweep.runs[
                ("JobLocal", "DataDoNothing", value)]) == 2

    def test_series_ordering(self, bandwidth_sweep):
        series = [summary.mean for _, summary in bandwidth_sweep.series(
            "avg_response_time_s", "JobLocal", "DataDoNothing")]
        assert len(series) == 3
        # More bandwidth never slows a transfer-bound configuration.
        assert series[0] >= series[1] >= series[2]

    def test_best_value(self, bandwidth_sweep):
        assert best_value(bandwidth_sweep, "avg_response_time_s") == 100.0
        assert best_value(bandwidth_sweep, "avg_response_time_s",
                          minimize=False) == 5.0

    def test_summary_per_value(self, bandwidth_sweep):
        summary = bandwidth_sweep.summary(
            ("JobLocal", "DataDoNothing", 10.0), "avg_response_time_s")
        assert summary.n == 2
        assert summary.mean > 0

    def test_table_renders(self, bandwidth_sweep):
        out = bandwidth_sweep.table()
        assert "bandwidth_mbps" in out
        assert "JobLocal + DataDoNothing" in out
        assert len(out.splitlines()) == 5  # title + header + 3 rows

    def test_environmental_sweep_shares_workload(self):
        """Same seed + environmental parameter → identical workloads,
        so compute components match exactly across values."""
        config = SimulationConfig.paper().scaled(0.05)
        result = sweep(config, "bandwidth_mbps", (10.0, 100.0),
                       es_name="JobLocal", ds_name="DataDoNothing",
                       seeds=(0,))
        a = result.runs[("JobLocal", "DataDoNothing", 10.0)][0]
        b = result.runs[("JobLocal", "DataDoNothing", 100.0)][0]
        assert a.avg_compute_time_s == pytest.approx(b.avg_compute_time_s)
