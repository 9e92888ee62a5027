"""Unit tests for the parallel experiment engine.

The load-bearing property is the determinism contract: fanning runs out
over worker processes (or replaying them from the on-disk cache) yields
*bitwise-identical* results to the serial path — exact float equality,
not approximate agreement.
"""

import dataclasses
import json
import multiprocessing
import pickle

import pytest

from repro import SimulationConfig, run_matrix
from repro.experiments.parallel import (
    CACHE_VERSION,
    ParallelRunner,
    ResultCache,
    RunSpec,
    execute_spec,
    resolve_jobs,
)
from repro.experiments.sweep import sweep

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def config():
    return SimulationConfig.paper().scaled(0.05)


def _matrix_dump(result):
    """Every metric of every run, as exactly comparable dicts."""
    return {
        key: [dataclasses.asdict(m) for m in runs]
        for key, runs in result.runs.items()
    }


class TestDeterminism:
    def test_run_matrix_parallel_equals_serial(self, config):
        serial = run_matrix(config, seeds=SEEDS, jobs=1)
        parallel = run_matrix(config, seeds=SEEDS, jobs=4)
        assert _matrix_dump(parallel) == _matrix_dump(serial)

    def test_sweep_parallel_equals_serial(self, config):
        kwargs = dict(parameter="bandwidth_mbps", values=[10.0, 100.0],
                      es_name="JobLocal", ds_name="DataDoNothing",
                      seeds=SEEDS)
        serial = sweep(config, jobs=1, **kwargs)
        parallel = sweep(config, jobs=4, **kwargs)
        assert _matrix_dump(parallel) == _matrix_dump(serial)

    def test_spawn_context_supported(self, config):
        """The worker path survives spawn (fresh interpreter, Windows)."""
        specs = [RunSpec(config, "JobRandom", "DataDoNothing", 0),
                 RunSpec(config, "JobLocal", "DataDoNothing", 0)]
        runner = ParallelRunner(
            jobs=2, mp_context=multiprocessing.get_context("spawn"))
        assert [dataclasses.asdict(m) for m in runner.map(specs)] == \
            [dataclasses.asdict(execute_spec(s)) for s in specs]


class TestRunSpec:
    def test_picklable(self, config):
        spec = RunSpec(config, "JobLocal", "DataDoNothing", 7)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cache_key_stable_and_distinct(self, config):
        spec = RunSpec(config, "JobLocal", "DataDoNothing", 0)
        assert spec.cache_key() == spec.cache_key()
        # Any field change produces a different key.
        assert spec.cache_key() != \
            RunSpec(config, "JobLocal", "DataDoNothing", 1).cache_key()
        assert spec.cache_key() != \
            RunSpec(config, "JobRandom", "DataDoNothing", 0).cache_key()
        assert spec.cache_key() != RunSpec(
            config.with_(bandwidth_mbps=99.0),
            "JobLocal", "DataDoNothing", 0).cache_key()


class TestResultCache:
    def test_round_trip(self, config, tmp_path):
        spec = RunSpec(config, "JobLocal", "DataDoNothing", 0)
        metrics = execute_spec(spec)
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None  # cold miss
        cache.put(spec, metrics)
        restored = cache.get(spec)
        assert dataclasses.asdict(restored) == dataclasses.asdict(metrics)
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, config, tmp_path):
        spec = RunSpec(config, "JobLocal", "DataDoNothing", 0)
        cache = ResultCache(tmp_path)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(spec) is None

    def test_stale_version_is_a_miss(self, config, tmp_path):
        spec = RunSpec(config, "JobLocal", "DataDoNothing", 0)
        cache = ResultCache(tmp_path)
        cache.put(spec, execute_spec(spec))
        path = cache.path_for(spec)
        data = json.loads(path.read_text())
        data["cache_version"] = CACHE_VERSION - 1
        path.write_text(json.dumps(data))
        assert cache.get(spec) is None

    def test_cached_matrix_identical_on_second_invocation(
            self, config, tmp_path):
        first = run_matrix(config, seeds=(0, 1), cache_dir=tmp_path)
        # Every run is now on disk; the second invocation replays the
        # cache (exercised by JSON round-tripping every float) and must
        # reproduce the results exactly.
        second = run_matrix(config, seeds=(0, 1), cache_dir=tmp_path)
        assert _matrix_dump(second) == _matrix_dump(first)
        assert any(tmp_path.rglob("*.json"))


class TestParallelRunner:
    def test_duplicate_specs_computed_once(self, config, tmp_path):
        spec = RunSpec(config, "JobLocal", "DataDoNothing", 0)
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
        results = runner.map([spec, spec, spec])
        assert len(results) == 3
        assert [dataclasses.asdict(m) for m in results] == \
            [dataclasses.asdict(results[0])] * 3
        # One compute, one cache entry.
        assert len(list(tmp_path.rglob("*.json"))) == 1

    def test_empty_spec_list(self):
        assert ParallelRunner(jobs=4).map([]) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(8) == 8
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
