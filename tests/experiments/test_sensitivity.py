"""Unit tests for the staleness-sensitivity experiment."""

import dataclasses

import pytest

from repro import SimulationConfig
from repro.experiments.sensitivity import (
    DEFAULT_PAIRS,
    degradation,
    staleness_axes,
    staleness_report,
)
from repro.experiments.sweep import grid_sweep

PAIRS = (("JobDataPresent", "DataLeastLoaded"),)
DELAYS = (0.0, 600.0)


@pytest.fixture(scope="module")
def config():
    # Tight storage forces evictions, so delayed deregistrations create
    # phantom replicas and misdirections actually occur.
    return SimulationConfig.paper().scaled(0.1).with_(
        storage_capacity_mb=14_000.0, watchdog=True)


def _staleness(config, delays, pairs=PAIRS, **kwargs):
    return grid_sweep(config, staleness_axes(delays), pairs, **kwargs)


@pytest.fixture(scope="module")
def result(config):
    return _staleness(config, delays=DELAYS, pairs=PAIRS, seeds=(0,))


def _dump(result):
    return {
        key: [dataclasses.asdict(m) for m in runs]
        for key, runs in result.runs.items()
    }


class TestShape:
    def test_every_cell_populated(self, result):
        assert set(result.runs) == {
            (es, ds, delay) for es, ds in PAIRS for delay in DELAYS}
        assert all(len(runs) == 1 for runs in result.runs.values())

    def test_series_in_delay_order(self, result):
        es, ds = PAIRS[0]
        series = result.series("avg_response_time_s", es, ds)
        assert [delay for delay, _ in series] == list(DELAYS)
        assert all(summary.mean > 0 for _, summary in series)

    def test_table_lists_every_cell(self, result):
        table = staleness_report(result)
        assert "misdirected" in table
        for delay in DELAYS:
            assert f"{delay:g}" in table

    def test_degradation_is_a_ratio(self, result):
        es, ds = PAIRS[0]
        assert degradation(result, es, ds) >= 1.0


class TestStalenessEffects:
    def test_zero_delay_reports_no_staleness(self, result):
        es, ds = PAIRS[0]
        run = result.runs[(es, ds, 0.0)][0]
        assert run.misdirected_jobs == 0
        assert run.bounced_jobs == 0
        assert run.stale_reads == 0

    def test_delay_produces_misdirections(self, result):
        """The acceptance scenario: under delay, jobs chase phantoms."""
        es, ds = PAIRS[0]
        run = result.runs[(es, ds, 600.0)][0]
        assert run.stale_reads > 0
        assert run.misdirected_jobs > 0
        assert run.bounced_jobs > 0


class TestDeterminism:
    def test_parallel_equals_serial(self, config):
        serial = _staleness(
            config, delays=DELAYS, pairs=PAIRS, seeds=(0,), jobs=1)
        parallel = _staleness(
            config, delays=DELAYS, pairs=PAIRS, seeds=(0,), jobs=2)
        assert _dump(parallel) == _dump(serial)

    def test_cache_replay_identical(self, config, tmp_path):
        first = _staleness(
            config, delays=DELAYS, pairs=PAIRS, seeds=(0,),
            cache_dir=tmp_path)
        replay = _staleness(
            config, delays=DELAYS, pairs=PAIRS, seeds=(0,),
            cache_dir=tmp_path)
        assert _dump(replay) == _dump(first)


class TestValidation:
    def test_no_delays_rejected(self, config):
        with pytest.raises(ValueError):
            _staleness(config, delays=())

    def test_no_pairs_rejected(self, config):
        with pytest.raises(ValueError):
            _staleness(config, delays=DELAYS, pairs=())

    def test_default_pairs_cover_decoupled_and_coupled(self):
        schedulers = {es for es, _ in DEFAULT_PAIRS}
        assert "JobDataPresent" in schedulers
        assert len(DEFAULT_PAIRS) >= 2
