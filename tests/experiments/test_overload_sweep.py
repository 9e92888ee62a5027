"""Unit tests for the overload-sweep experiment.

Covers the degradation table's shape and knee detection, the graceful-
degradation acceptance scenario (response and refusals grow with offered
load, nothing is silently lost), and the determinism contract: the sweep
is bitwise-identical serial vs parallel and across cache replay.
"""

import dataclasses

import pytest

from repro import SimulationConfig
from repro.experiments.sensitivity import (
    DEFAULT_CAPACITIES,
    DEFAULT_PAIRS,
    DEFAULT_RATES,
    knee,
    overload_axes,
    overload_report,
)
from repro.experiments.sweep import grid_sweep

PAIRS = (("JobDataPresent", "DataRandom"),)
# ~0.023 jobs/s is this configuration's service rate: 0.005 is
# comfortably sub-critical, 0.3 is an order of magnitude past it.
RATES = (0.005, 0.3)
CAPACITIES = (4,)


@pytest.fixture(scope="module")
def config():
    return SimulationConfig.paper().scaled(0.05).with_(
        watchdog=True,
        deflect_budget=2,
        job_deadline_s=4_000.0,
        storage_reservations=True,
    )


def _overload(config, rates=DEFAULT_RATES,
              capacities=DEFAULT_CAPACITIES, pairs=DEFAULT_PAIRS,
              **kwargs):
    return grid_sweep(config, overload_axes(rates, capacities), pairs,
                      **kwargs)


@pytest.fixture(scope="module")
def result(config):
    return _overload(config, rates=RATES, capacities=CAPACITIES,
                     pairs=PAIRS, seeds=(0,))


def _dump(result):
    return {
        key: [dataclasses.asdict(m) for m in runs]
        for key, runs in result.runs.items()
    }


class TestShape:
    def test_every_cell_populated(self, result):
        assert set(result.runs) == {
            (es, ds, cap, rate)
            for es, ds in PAIRS for rate in RATES for cap in CAPACITIES}
        assert all(len(runs) == 1 for runs in result.runs.values())

    def test_series_in_rate_order(self, result):
        es, ds = PAIRS[0]
        series = result.series("avg_response_time_s", es, ds,
                               {"queue_capacity": CAPACITIES[0]})
        assert [rate for rate, _ in series] == list(RATES)
        assert all(summary.mean > 0 for _, summary in series)

    def test_table_lists_every_cell_and_the_knee(self, result):
        table = overload_report(result)
        assert "shed" in table and "deflected" in table
        assert "knee" in table
        for rate in RATES:
            assert f"{rate:g}" in table


class TestGracefulDegradation:
    def test_subcritical_rate_refuses_nothing(self, result):
        es, ds = PAIRS[0]
        run = result.runs[(es, ds, CAPACITIES[0], RATES[0])][0]
        assert run.jobs_shed == 0
        assert run.jobs_expired == 0
        assert run.completion_rate == 1.0

    def test_saturating_rate_degrades_but_conserves(self, result):
        """The acceptance scenario: past the knee the grid sheds and
        expires instead of collapsing, and every refusal is counted."""
        es, ds = PAIRS[0]
        run = result.runs[(es, ds, CAPACITIES[0], RATES[-1])][0]
        assert run.jobs_shed + run.jobs_expired > 0
        assert (run.n_jobs + run.jobs_failed + run.jobs_shed
                + run.jobs_expired) == 300
        assert run.n_jobs > 0  # still doing useful work while refusing
        assert run.peak_queue_depth <= CAPACITIES[0]

    def test_response_time_rises_with_offered_load(self, result):
        es, ds = PAIRS[0]
        series = result.series("avg_response_time_s", es, ds,
                               {"queue_capacity": CAPACITIES[0]})
        assert series[-1][1].mean >= series[0][1].mean

    def test_knee_is_found_at_the_saturating_rate(self, result):
        # With queues capped at 4 the response of *admitted* jobs stays
        # bounded even at 10x the service rate (346 -> 675 s here) —
        # that bounding is the mechanism under test, so the knee is
        # probed at 1.5x rather than the default 2x.
        es, ds = PAIRS[0]
        at = {"queue_capacity": CAPACITIES[0]}
        assert knee(result, es, ds, at, factor=1.5) == RATES[-1]

    def test_knee_none_when_factor_unreachable(self, result):
        es, ds = PAIRS[0]
        assert knee(result, es, ds, {"queue_capacity": CAPACITIES[0]},
                    factor=1e9) is None


class TestDeterminism:
    def test_parallel_equals_serial(self, config):
        serial = _overload(config, rates=RATES,
                           capacities=CAPACITIES, pairs=PAIRS,
                           seeds=(0,), jobs=1)
        parallel = _overload(config, rates=RATES,
                             capacities=CAPACITIES, pairs=PAIRS,
                             seeds=(0,), jobs=2)
        assert _dump(parallel) == _dump(serial)

    def test_cache_replay_identical(self, config, tmp_path):
        first = _overload(config, rates=RATES,
                          capacities=CAPACITIES, pairs=PAIRS,
                          seeds=(0,), cache_dir=tmp_path)
        replay = _overload(config, rates=RATES,
                           capacities=CAPACITIES, pairs=PAIRS,
                           seeds=(0,), cache_dir=tmp_path)
        assert _dump(replay) == _dump(first)


class TestValidation:
    def test_no_rates_rejected(self, config):
        with pytest.raises(ValueError):
            _overload(config, rates=())

    def test_no_capacities_rejected(self, config):
        with pytest.raises(ValueError):
            _overload(config, capacities=())

    def test_no_pairs_rejected(self, config):
        with pytest.raises(ValueError):
            _overload(config, pairs=())

    def test_defaults_span_sub_and_super_critical(self):
        assert min(DEFAULT_RATES) < max(DEFAULT_RATES)
        assert len(DEFAULT_CAPACITIES) >= 2
