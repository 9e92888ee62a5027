"""Unit tests for the recovery-sweep experiment.

Covers the sweep grid's shape, the detection-speed/false-positive
trade-off it exists to expose (lower phi detects faster but suspects
healthy sites more), the safe-threshold picker, and the determinism
contract: serial vs parallel and cache replay are bitwise-identical.
"""

import dataclasses

import pytest

from repro import SimulationConfig
from repro.experiments.sensitivity import (
    DEFAULT_MTBFS,
    DEFAULT_PAIRS,
    DEFAULT_THRESHOLDS,
    recovery_axes,
    recovery_report,
    safe_threshold,
)
from repro.experiments.sweep import grid_sweep

PAIRS = (("JobDataPresent", "DataRandom"),)
THRESHOLDS = (2.0, 6.0)
MTBFS = (0.0, 3600.0)
PARTITIONED = (False, True)


@pytest.fixture(scope="module")
def config():
    return SimulationConfig.paper().scaled(0.05).with_(
        health_heartbeat_jitter=0.3)


def _recovery(config, thresholds=DEFAULT_THRESHOLDS,
              mtbfs=DEFAULT_MTBFS, partitioned=(False, True),
              pairs=DEFAULT_PAIRS, partition_start_s=1800.0,
              partition_duration_s=1800.0, **kwargs):
    axes = recovery_axes(thresholds, mtbfs, partitioned,
                         partition_start_s, partition_duration_s)
    return grid_sweep(config, axes, pairs, **kwargs)


def _at(mtbf, part):
    return {"fault_plan.site_mtbf_s": mtbf, "partition": part}


@pytest.fixture(scope="module")
def result(config):
    return _recovery(config, thresholds=THRESHOLDS, mtbfs=MTBFS,
                     partitioned=PARTITIONED, pairs=PAIRS,
                     seeds=(0,), partition_start_s=600.0,
                     partition_duration_s=600.0)


def _dump(result):
    return {
        key: [dataclasses.asdict(m) for m in runs]
        for key, runs in result.runs.items()
    }


class TestShape:
    def test_every_cell_populated(self, result):
        assert set(result.runs) == {
            (es, ds, part, mtbf, t)
            for es, ds in PAIRS for t in THRESHOLDS
            for mtbf in MTBFS for part in PARTITIONED}
        assert all(len(runs) == 1 for runs in result.runs.values())

    def test_series_in_threshold_order(self, result):
        es, ds = PAIRS[0]
        series = result.series("goodput", es, ds, _at(MTBFS[0], False))
        assert [phi for phi, _ in series] == list(THRESHOLDS)
        assert all(summary.mean >= 0 for _, summary in series)

    def test_table_lists_every_cell(self, result):
        table = recovery_report(result)
        for word in ("phi", "mtbf", "fp rate", "goodput"):
            assert word in table
        for threshold in THRESHOLDS:
            assert f"{threshold:g}" in table


class TestDetectorTradeoff:
    def test_detection_latency_grows_with_threshold(self, result):
        """phi is a patience knob: a more patient detector waits longer
        before suspecting a genuinely dead site."""
        es, ds = PAIRS[0]
        latencies = result.series("mean_detection_latency_s", es, ds,
                                  _at(MTBFS[-1], False))
        assert latencies[0][1].mean < latencies[-1][1].mean

    def test_no_failures_without_faults(self, result):
        es, ds = PAIRS[0]
        for threshold in THRESHOLDS:
            run = result.runs[(es, ds, False, 0.0, threshold)][0]
            assert run.outages == 0
            assert run.completion_rate == 1.0

    def test_fault_free_suspicions_are_all_false(self, result):
        """With MTBF 0 and no partition every suspicion is, by
        construction, a false positive — the control cell the
        safe-threshold picker needs."""
        es, ds = PAIRS[0]
        run = result.runs[(es, ds, False, 0.0, THRESHOLDS[0])][0]
        assert run.false_suspicions == run.suspicions

    def test_partition_cells_actually_partition(self, result):
        es, ds = PAIRS[0]
        with_part = result.runs[(es, ds, True, 0.0, THRESHOLDS[0])][0]
        assert with_part.suspicions > 0
        assert with_part.breaker_trips > 0

    def test_safe_threshold_is_from_the_swept_grid(self, result):
        es, ds = PAIRS[0]
        safe = safe_threshold(result, es, ds, _at(0.0, False))
        assert safe is None or safe in THRESHOLDS

    def test_safe_threshold_relaxes_with_the_cap(self, result):
        """An infinite false-positive budget accepts the lowest
        threshold; an impossible one accepts none."""
        es, ds = PAIRS[0]
        assert safe_threshold(result, es, ds, _at(0.0, False),
                              max_fp_rate=1.0) == THRESHOLDS[0]
        assert safe_threshold(result, es, ds, _at(0.0, False),
                              max_fp_rate=-1.0) is None


class TestDeterminism:
    def test_parallel_equals_serial(self, config):
        kwargs = dict(thresholds=(2.0,), mtbfs=(3600.0,),
                      partitioned=(False,), pairs=PAIRS, seeds=(0,))
        serial = _recovery(config, jobs=1, **kwargs)
        parallel = _recovery(config, jobs=2, **kwargs)
        assert _dump(parallel) == _dump(serial)

    def test_cache_replay_identical(self, config, tmp_path):
        kwargs = dict(thresholds=(2.0,), mtbfs=(3600.0,),
                      partitioned=(False,), pairs=PAIRS, seeds=(0,))
        first = _recovery(config, cache_dir=tmp_path, **kwargs)
        replay = _recovery(config, cache_dir=tmp_path, **kwargs)
        assert _dump(replay) == _dump(first)


class TestValidation:
    def test_no_thresholds_rejected(self, config):
        with pytest.raises(ValueError):
            _recovery(config, thresholds=())

    def test_no_mtbfs_rejected(self, config):
        with pytest.raises(ValueError):
            _recovery(config, mtbfs=())

    def test_no_partition_settings_rejected(self, config):
        with pytest.raises(ValueError):
            _recovery(config, partitioned=())

    def test_no_pairs_rejected(self, config):
        with pytest.raises(ValueError):
            _recovery(config, pairs=())

    def test_defaults_span_the_tradeoff(self):
        assert min(DEFAULT_THRESHOLDS) < max(DEFAULT_THRESHOLDS)
        assert 0.0 in DEFAULT_MTBFS and max(DEFAULT_MTBFS) > 0
