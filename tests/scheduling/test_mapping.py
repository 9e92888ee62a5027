"""Unit tests for user→ES mappings (§3) and the round-robin scheduler."""

import pytest

from repro.grid import Job, JobState
from repro.scheduling import JobRoundRobin, MappedExternalScheduler
from repro.scheduling.external import JobLocal

from tests.scheduling.conftest import build_grid, make_job


class TestJobRoundRobin:
    def test_cycles_through_sites(self, star_grid):
        _, grid = star_grid
        es = JobRoundRobin()
        picks = [es.select_site(make_job(job_id=i), grid) for i in range(8)]
        assert picks[:4] == sorted(grid.sites)
        assert picks[4:] == picks[:4]

    def test_registry(self):
        import random

        from repro.scheduling.registry import make_external_scheduler
        es = make_external_scheduler("JobRoundRobin", random.Random(0))
        assert isinstance(es, JobRoundRobin)


class TestMappedExternalScheduler:
    def test_invalid_mapping_rejected(self):
        with pytest.raises(ValueError):
            MappedExternalScheduler(JobRoundRobin, mapping="per-galaxy")

    def test_central_single_instance(self, star_grid):
        _, grid = star_grid
        es = MappedExternalScheduler(JobRoundRobin, mapping="central")
        for i in range(6):
            es.select_site(
                make_job(job_id=i, origin=f"site{i % 4:02d}"), grid)
        assert es.instance_count == 1

    def test_per_site_instance_per_origin(self, star_grid):
        _, grid = star_grid
        es = MappedExternalScheduler(JobRoundRobin, mapping="per-site")
        for i in range(8):
            es.select_site(
                make_job(job_id=i, origin=f"site{i % 4:02d}"), grid)
        assert es.instance_count == 4

    def test_per_user_instance_per_user(self, star_grid):
        _, grid = star_grid
        es = MappedExternalScheduler(JobRoundRobin, mapping="per-user")
        for i in range(6):
            job = make_job(job_id=i)
            job.user = f"user{i % 3}"
            es.select_site(job, grid)
        assert es.instance_count == 3

    def test_central_round_robin_spreads_perfectly(self, star_grid):
        _, grid = star_grid
        es = MappedExternalScheduler(JobRoundRobin, mapping="central")
        picks = [
            es.select_site(make_job(job_id=i, origin="site00"), grid)
            for i in range(8)
        ]
        assert sorted(set(picks)) == sorted(grid.sites)

    def test_per_site_round_robin_cycles_independently(self, star_grid):
        _, grid = star_grid
        es = MappedExternalScheduler(JobRoundRobin, mapping="per-site")
        # Two origin sites alternate; each delegate starts its own cycle
        # at site00.
        picks_a = [es.select_site(
            make_job(job_id=i, origin="site00"), grid) for i in range(2)]
        picks_b = [es.select_site(
            make_job(job_id=i, origin="site01"), grid) for i in range(2)]
        assert picks_a == picks_b == ["site00", "site01"]

    def test_stateless_delegate_unaffected_by_mapping(self, star_grid):
        _, grid = star_grid
        for mapping in ("central", "per-site", "per-user"):
            es = MappedExternalScheduler(JobLocal, mapping=mapping)
            job = make_job(origin="site02")
            assert es.select_site(job, grid) == "site02"

    def test_full_run_with_mapped_scheduler(self):
        sim, grid = build_grid()
        grid.external_scheduler = MappedExternalScheduler(
            JobRoundRobin, mapping="central")
        from repro.grid import User
        jobs = [
            Job(job_id=i, user="u0", origin_site="site00",
                input_files=["d0"], runtime_s=10)
            for i in range(8)
        ]
        grid.add_user(User(sim, "u0", "site00", jobs, grid))
        grid.run()
        assert len([j for j in jobs if j.state is JobState.DONE]) == 8
        sites_used = {j.execution_site for j in jobs}
        assert len(sites_used) == 4  # round-robin touched every site
