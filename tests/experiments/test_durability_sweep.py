"""Unit tests for the durability-sweep experiment.

Covers the sweep grid's shape, the survival trade-off it exists to
expose (RF=1 loses data under bit-rot; RF=2 with repair does not), the
surviving-RF picker, and the determinism contract: serial vs parallel
and cache replay are bitwise-identical.
"""

import dataclasses

import pytest

from repro import SimulationConfig
from repro.experiments.sensitivity import (
    DEFAULT_CORRUPTION_MTBFS,
    DEFAULT_PAIRS,
    DEFAULT_RFS,
    DEFAULT_SCRUBS,
    durability_axes,
    durability_report,
    surviving_rf,
)
from repro.experiments.sweep import grid_sweep

PAIRS = (("JobDataPresent", "DataRandom"),)
MTBFS = (0.0, 4_000.0)
RFS = (1, 2)
SCRUBS = (600.0,)


@pytest.fixture(scope="module")
def config():
    return SimulationConfig.paper().scaled(0.05)


def _durability(config, mtbfs=DEFAULT_CORRUPTION_MTBFS,
                rfs=DEFAULT_RFS, scrubs=DEFAULT_SCRUBS,
                pairs=DEFAULT_PAIRS, **kwargs):
    return grid_sweep(config, durability_axes(mtbfs, rfs, scrubs), pairs,
                      **kwargs)


def _at(mtbf, scrub):
    return {"fault_plan.corruption_mtbf_s": mtbf, "scrub_interval_s": scrub}


@pytest.fixture(scope="module")
def result(config):
    return _durability(config, mtbfs=MTBFS, rfs=RFS, scrubs=SCRUBS,
                       pairs=PAIRS, seeds=(0,))


def _dump(result):
    return {
        key: [dataclasses.asdict(m) for m in runs]
        for key, runs in result.runs.items()
    }


class TestShape:
    def test_every_cell_populated(self, result):
        assert set(result.runs) == {
            (es, ds, mtbf, rf, scrub)
            for es, ds in PAIRS for mtbf in MTBFS
            for rf in RFS for scrub in SCRUBS}
        assert all(len(runs) == 1 for runs in result.runs.values())

    def test_series_in_mtbf_order(self, result):
        es, ds = PAIRS[0]
        series = result.series(
            "datasets_lost", es, ds,
            {"replication_factor": RFS[1], "scrub_interval_s": SCRUBS[0]})
        assert [mtbf for mtbf, _ in series] == list(MTBFS)
        assert all(summary.mean >= 0 for _, summary in series)

    def test_table_lists_every_cell(self, result):
        table = durability_report(result)
        for word in ("mtbf", "rf", "scrub", "lost", "repaired"):
            assert word in table
        for mtbf in MTBFS:
            assert f"{mtbf:g}" in table

    def test_defaults_are_sane(self):
        assert 0.0 in DEFAULT_CORRUPTION_MTBFS
        assert 1 in DEFAULT_RFS
        assert 0.0 in DEFAULT_SCRUBS


class TestSurvivalTradeoff:
    def test_no_corruption_loses_nothing(self, result):
        es, ds = PAIRS[0]
        for rf in RFS:
            (metrics,) = result.runs[(es, ds, 0.0, rf, SCRUBS[0])]
            assert metrics.datasets_lost == 0, rf

    def test_rf1_loses_data_under_bit_rot(self, result):
        es, ds = PAIRS[0]
        (metrics,) = result.runs[(es, ds, MTBFS[1], 1, SCRUBS[0])]
        assert metrics.replicas_corrupted > 0
        assert metrics.datasets_lost > 0
        assert metrics.replicas_repaired == 0

    def test_rf2_with_repair_survives(self, result):
        es, ds = PAIRS[0]
        (metrics,) = result.runs[(es, ds, MTBFS[1], 2, SCRUBS[0])]
        assert metrics.replicas_repaired > 0
        assert metrics.datasets_lost == 0

    def test_surviving_rf_picker(self, result):
        es, ds = PAIRS[0]
        assert surviving_rf(result, es, ds, _at(0.0, SCRUBS[0])) == 1
        assert surviving_rf(result, es, ds, _at(MTBFS[1], SCRUBS[0])) == 2


class TestDeterminism:
    def test_parallel_equals_serial(self, config):
        serial = _durability(config, mtbfs=MTBFS, rfs=RFS,
                             scrubs=SCRUBS, pairs=PAIRS, seeds=(0,),
                             jobs=1)
        pooled = _durability(config, mtbfs=MTBFS, rfs=RFS,
                             scrubs=SCRUBS, pairs=PAIRS, seeds=(0,),
                             jobs=2)
        assert _dump(pooled) == _dump(serial)

    def test_cache_replay_identical(self, config, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = _durability(config, mtbfs=MTBFS, rfs=RFS,
                           scrubs=SCRUBS, pairs=PAIRS, seeds=(0,),
                           cache_dir=cache_dir)
        warm = _durability(config, mtbfs=MTBFS, rfs=RFS,
                           scrubs=SCRUBS, pairs=PAIRS, seeds=(0,),
                           cache_dir=cache_dir)
        assert _dump(warm) == _dump(cold)


class TestValidation:
    def test_empty_axes_rejected(self, config):
        with pytest.raises(ValueError):
            _durability(config, mtbfs=(), rfs=RFS, scrubs=SCRUBS)
        with pytest.raises(ValueError):
            _durability(config, mtbfs=MTBFS, rfs=(), scrubs=SCRUBS)
        with pytest.raises(ValueError):
            _durability(config, mtbfs=MTBFS, rfs=RFS, scrubs=())
