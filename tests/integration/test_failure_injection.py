"""Failure injection: broken components must fail loudly and precisely.

A simulation that silently absorbs a buggy scheduler or a corrupted
catalog produces plausible-looking wrong numbers — the worst possible
outcome for a reproduction study.  These tests inject misbehaving
components and assert the failure surfaces at the injection point with a
diagnosable error, not as corrupted metrics.
"""

import pytest

from repro import SimulationConfig, build_grid, make_workload
from repro.grid import Job, JobState
from repro.grid.datamover import DataUnavailableError
from repro.metrics import RunMetrics
from repro.scheduling.base import DatasetScheduler, ExternalScheduler


def small_setup(es="JobLocal", ds="DataDoNothing", seed=0):
    config = SimulationConfig.paper().scaled(0.05)
    workload = make_workload(config, seed)
    sim, grid = build_grid(config, es, ds, workload, seed)
    return config, sim, grid


class TestBrokenExternalScheduler:
    def test_es_raising_propagates_at_submit(self):
        _, sim, grid = small_setup()

        class Exploding(ExternalScheduler):
            name = "boom"

            def select_site(self, job, grid):
                raise RuntimeError("scheduler bug")

        grid.external_scheduler = Exploding()
        job = Job(job_id=0, user="u", origin_site="site00",
                  input_files=[grid.datasets.names[0]], runtime_s=10)
        with pytest.raises(RuntimeError, match="scheduler bug"):
            grid.submit(job)

    def test_es_returning_garbage_site_rejected(self):
        _, sim, grid = small_setup()

        class Liar(ExternalScheduler):
            name = "liar"

            def select_site(self, job, grid):
                return "atlantis"

        grid.external_scheduler = Liar()
        job = Job(job_id=0, user="u", origin_site="site00",
                  input_files=[grid.datasets.names[0]], runtime_s=10)
        with pytest.raises(ValueError, match="unknown site"):
            grid.submit(job)

    def test_es_raising_mid_run_crashes_run_not_metrics(self):
        _, sim, grid = small_setup()
        calls = {"n": 0}
        original = grid.external_scheduler

        class FailsLater(ExternalScheduler):
            name = "fails-later"

            def select_site(self, job, g):
                calls["n"] += 1
                if calls["n"] > 5:
                    raise RuntimeError("died mid-run")
                return original.select_site(job, g)

        grid.external_scheduler = FailsLater()
        with pytest.raises(RuntimeError, match="died mid-run"):
            grid.run()
        # The metrics layer then refuses the partial run (either because
        # nothing completed or because submitted jobs are unfinished).
        with pytest.raises(ValueError,
                           match="never completed|no completed jobs"):
            RunMetrics.from_grid(grid)


class TestBrokenDatasetScheduler:
    def test_ds_replicating_unknown_dataset_fails_its_process(self):
        _, sim, grid = small_setup()
        p = grid.datamover.replicate("no-such-file", "site00", "site01")
        with pytest.raises(KeyError, match="no-such-file"):
            sim.run(until=p)

    def test_ds_raising_inside_loop_crashes_run(self):
        config, sim, grid = small_setup()

        class Exploding(DatasetScheduler):
            name = "boom-ds"

            def attach(self, site, grid):
                def loop():
                    yield site.sim.timeout(50.0)
                    raise RuntimeError("DS bug")

                site.sim.process(loop(), name="boom")

        Exploding().attach(grid.sites["site00"], grid)
        with pytest.raises(RuntimeError, match="DS bug"):
            grid.run()


class TestCorruptedCatalog:
    def test_fetch_of_unregistered_data_fails_cleanly(self):
        _, sim, grid = small_setup()
        victim = grid.datasets.names[0]
        # Corrupt: deregister the only replica without touching storage.
        for site in list(grid.catalog.locations(victim)):
            grid.catalog.deregister(victim, site)
        # A site that doesn't physically hold it can no longer fetch it.
        holder = None
        for name, storage in grid.storages.items():
            if victim in storage:
                holder = name
        target = next(s for s in grid.sites if s != holder)
        p = grid.datamover.ensure_local(target, victim)
        with pytest.raises(DataUnavailableError, match=victim):
            sim.run(until=p)


class TestBrokenJobInput:
    def test_job_with_unknown_input_fails_its_execution(self):
        _, sim, grid = small_setup()
        job = Job(job_id=0, user="u", origin_site="site00",
                  input_files=["phantom-file"], runtime_s=10)
        job.advance(JobState.READY, 0.0)
        job.advance(JobState.DISPATCHED, 0.0)
        job.execution_site = "site00"
        p = grid.sites["site00"].enqueue(job)
        with pytest.raises(KeyError, match="phantom-file"):
            sim.run(until=p)
