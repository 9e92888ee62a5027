"""Fixtures for scheduler tests: a grid with controllable load and data."""

import random

import pytest

from repro.grid import DataGrid, Dataset, DatasetCollection, Job, JobState
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.sim import Simulator


def build_grid(n_sites=4, es=None, ls=None, ds=None, storage_mb=20_000,
               processors=2, bandwidth=10.0):
    """A star grid with one 500 MB dataset per site (dN at siteN)."""
    sim = Simulator()
    topology = Topology.star(n_sites, bandwidth)
    datasets = DatasetCollection(
        [Dataset(f"d{i}", 500) for i in range(n_sites)])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=es or JobLocal(),
        local_scheduler=ls or FIFOLocalScheduler(),
        dataset_scheduler=ds or DataDoNothing(),
        site_processors={name: processors for name in topology.sites},
        storage_capacity_mb=storage_mb,
        datamover_rng=random.Random(0),
    )
    grid.place_initial_replicas(
        {f"d{i}": f"site{i:02d}" for i in range(n_sites)})
    return sim, grid


def make_job(job_id=0, origin="site00", inputs=("d0",), runtime=100.0):
    return Job(job_id=job_id, user="u", origin_site=origin,
               input_files=list(inputs), runtime_s=runtime)


def load_site(grid, site, n_jobs, runtime=10_000.0):
    """Saturate a site's queue with long jobs (bypasses the ES)."""
    for i in range(n_jobs):
        job = make_job(job_id=1000 + i, origin=site,
                       inputs=(grid.catalog.datasets_at(site)[0],),
                       runtime=runtime)
        job.advance(JobState.READY, grid.sim.now)
        job.advance(JobState.DISPATCHED, grid.sim.now)
        job.execution_site = site
        grid.sites[site].enqueue(job)


@pytest.fixture
def star_grid():
    return build_grid()
