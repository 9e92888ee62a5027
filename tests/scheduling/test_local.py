"""Unit tests for Local Scheduler policies."""

import pytest

from repro.grid import JobState
from repro.scheduling import (
    FIFOLocalScheduler,
    LongestJobFirstScheduler,
    ShortestJobFirstScheduler,
)

from tests.scheduling.conftest import build_grid, make_job


def run_three_jobs(ls, runtimes=(300.0, 100.0, 200.0)):
    """One-processor site; returns job completion order by runtime."""
    sim, grid = build_grid(ls=ls, processors=1)
    jobs = []
    for i, rt in enumerate(runtimes):
        job = make_job(job_id=i, runtime=rt)
        job.advance(JobState.READY, 0.0)
        job.advance(JobState.DISPATCHED, 0.0)
        job.execution_site = "site00"
        jobs.append(job)
    procs = [grid.sites["site00"].enqueue(j) for j in jobs]
    sim.run(until=sim.all_of(procs))
    return [j.runtime_s for j in sorted(jobs, key=lambda j: j.started_at)]


class TestFIFO:
    def test_no_priorities(self):
        assert FIFOLocalScheduler().priority(make_job()) is None
        assert not FIFOLocalScheduler.uses_priorities

    def test_arrival_order_preserved(self):
        order = run_three_jobs(FIFOLocalScheduler())
        assert order == [300.0, 100.0, 200.0]


class TestSJF:
    def test_priority_is_runtime(self):
        assert ShortestJobFirstScheduler().priority(
            make_job(runtime=2.5)) == 2500

    def test_shortest_first_after_head(self):
        # The first arrival grabs the free processor immediately; the
        # remaining two are reordered shortest-first.
        order = run_three_jobs(ShortestJobFirstScheduler())
        assert order == [300.0, 100.0, 200.0]

    def test_reorders_backlog(self):
        order = run_three_jobs(ShortestJobFirstScheduler(),
                               runtimes=(50.0, 300.0, 100.0, 200.0))
        assert order == [50.0, 100.0, 200.0, 300.0]


class TestLJF:
    def test_priority_is_negated_runtime(self):
        assert LongestJobFirstScheduler().priority(
            make_job(runtime=2.5)) == -2500

    def test_longest_first_after_head(self):
        order = run_three_jobs(LongestJobFirstScheduler(),
                               runtimes=(50.0, 300.0, 100.0, 200.0))
        assert order == [50.0, 300.0, 200.0, 100.0]


class TestUsesPriorities:
    @pytest.mark.parametrize("cls,expected", [
        (FIFOLocalScheduler, False),
        (ShortestJobFirstScheduler, True),
        (LongestJobFirstScheduler, True),
    ])
    def test_flag(self, cls, expected):
        assert cls.uses_priorities is expected
