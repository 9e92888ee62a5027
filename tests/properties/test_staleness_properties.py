"""Property-based tests for the stale-information layer.

Two contracts, checked over Hypothesis-generated workloads:

* **Zero staleness is exactly the live service.**  A live-information
  run must never report misdirections, bounces, or stale reads.
* **Stale runs are deterministic.**  Any positive catalog delay yields
  the same job outcomes and the same staleness counters on every
  repetition.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, build_grid, make_workload, run_single
from repro.grid import (
    DataGrid,
    Dataset,
    DatasetCollection,
    InfoPolicy,
    Job,
)
from repro.network import Topology
from repro.scheduling import DataRandom, FIFOLocalScheduler
from repro.scheduling.external import JobDataPresent
from repro.sim import Simulator

DATASETS = ("d0", "d1", "d2")

job_specs = st.lists(
    st.tuples(
        st.sampled_from(DATASETS),                      # input file
        st.integers(0, 3),                              # origin site
        st.floats(5.0, 500.0, allow_nan=False),        # runtime
    ),
    min_size=1, max_size=25)

common_settings = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def make_grid(policy=None):
    """A 4-site grid under an information policy (None = live)."""
    sim = Simulator()
    topology = Topology.star(4, 10.0)
    datasets = DatasetCollection([
        Dataset("d0", 500), Dataset("d1", 1000), Dataset("d2", 1500)])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=JobDataPresent(random.Random(7)),
        local_scheduler=FIFOLocalScheduler(),
        dataset_scheduler=DataRandom(
            random.Random(3), popularity_threshold=2,
            check_interval_s=100.0),
        site_processors={name: 2 for name in topology.sites},
        storage_capacity_mb=6_000,
        datamover_rng=random.Random(1),
        info_policy=policy,
        watchdog_interval_s=150.0,  # always-on-in-tests invariant audits
    )
    grid.place_initial_replicas(
        {"d0": "site00", "d1": "site01", "d2": "site02"})
    return sim, grid


def run_jobs(sim, grid, specs):
    """Submit one job per spec at t=0 and run to completion."""
    jobs = [
        Job(job_id=i, user="u", origin_site=f"site{origin:02d}",
            input_files=[name], runtime_s=runtime)
        for i, (name, origin, runtime) in enumerate(specs)
    ]
    done = [grid.submit(job) for job in jobs]
    sim.run(until=sim.all_of(done))
    grid.watchdog.check_now()
    return jobs


def outcome(sim, grid, jobs):
    """Everything observable about a finished run, exactly comparable."""
    view = grid.info.replica_view
    return {
        "makespan": sim.now,
        "jobs": [(j.execution_site, j.response_time, j.transfer_time)
                 for j in jobs],
        "replicas": grid.catalog.replica_records(),
        "misdirected": view.misdirected_jobs if view else 0,
        "bounced": view.bounced_jobs if view else 0,
        "stale_reads": view.stale_reads if view else 0,
    }


def run_outcome(specs, policy=None):
    sim, grid = make_grid(policy=policy)
    jobs = run_jobs(sim, grid, specs)
    return outcome(sim, grid, jobs)


@given(specs=job_specs)
@common_settings
def test_no_staleness_means_no_misdirection_counters(specs):
    sim, grid = make_grid(policy=InfoPolicy())
    jobs = run_jobs(sim, grid, specs)
    assert grid.info.replica_view is None
    result = outcome(sim, grid, jobs)
    assert result["misdirected"] == 0
    assert result["bounced"] == 0
    assert result["stale_reads"] == 0


@given(specs=job_specs, delay=st.sampled_from([30.0, 250.0, 2_000.0]))
@common_settings
def test_stale_runs_are_deterministic(specs, delay):
    policy = InfoPolicy(catalog_delay_s=delay)
    assert run_outcome(specs, policy=policy) == run_outcome(
        specs, policy=policy)


@given(seed=st.integers(0, 4))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_full_run_zero_delay_equals_live_metrics(seed):
    """run_single with catalog_delay_s=0 is exactly the live-catalog run."""
    config = SimulationConfig.paper().scaled(0.02).with_(watchdog=True)
    live = run_single(config, "JobDataPresent", "DataRandom", seed=seed)
    zero = run_single(config.with_(catalog_delay_s=0.0, info_timeout_s=0.0),
                      "JobDataPresent", "DataRandom", seed=seed)
    assert live == zero
    assert live.misdirected_jobs == 0
    assert live.bounced_jobs == 0
    assert live.stale_reads == 0
    # And the grid really has no stale-view machinery installed.
    sim, grid = build_grid(
        config, "JobDataPresent", "DataRandom",
        workload=make_workload(config, seed), seed=seed)
    assert grid.info.replica_view is None
