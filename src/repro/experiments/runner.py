"""Build-and-run helpers for simulation experiments.

The paper's methodology (§5.2): for each of the 4×3 algorithm pairs, three
replications with different random seeds, at two bandwidth scenarios — 72
experiments.  :func:`run_matrix` executes one scenario's 36 runs with
*paired* workloads: for a given seed, every algorithm pair sees the exact
same users, datasets, placements, and job sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import SimulationConfig
from repro.experiments.sweep import grid_sweep
from repro.grid.arrivals import OpenArrivalProcess
from repro.grid.grid import DataGrid
from repro.grid.user import User
from repro.metrics.collector import RunMetrics
from repro.metrics.summary import MetricSummary, summarize
from repro.network.topology import Topology
from repro.network.transfer import EqualShareAllocator, MaxMinFairAllocator
from repro.scheduling.registry import (
    ALL_DS,
    ALL_ES,
    make_dataset_scheduler,
    make_external_scheduler,
    make_local_scheduler,
)
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.dag import DagDriver
from repro.workload.generator import Workload, WorkloadGenerator
from repro.workload.popularity import make_popularity_model


def _build_topology(config: SimulationConfig,
                    rng: random.Random) -> Topology:
    if config.topology == "hierarchical":
        return Topology.hierarchical(
            config.n_sites, config.bandwidth_mbps,
            branching=config.branching)
    if config.topology == "star":
        return Topology.star(config.n_sites, config.bandwidth_mbps)
    if config.topology == "ring":
        return Topology.ring(config.n_sites, config.bandwidth_mbps)
    if config.topology == "random":
        return Topology.random_geometric(
            config.n_sites, config.bandwidth_mbps, rng=rng)
    raise ValueError(f"unknown topology {config.topology!r}")


def _make_allocator(config: SimulationConfig):
    if config.allocator == "equal-share":
        return EqualShareAllocator()
    if config.allocator == "max-min":
        return MaxMinFairAllocator()
    raise ValueError(f"unknown allocator {config.allocator!r}")


def make_workload(config: SimulationConfig,
                  seed: Optional[int] = None) -> Workload:
    """Generate the workload for a config/seed, independent of algorithms."""
    streams = RandomStreams(config.seed if seed is None else seed)
    sites = [f"site{s:02d}" for s in range(config.n_sites)]
    popularity_kwargs = {}
    if config.popularity_model == "geometric":
        popularity_kwargs["p"] = config.geometric_p
    elif config.popularity_model == "zipf":
        popularity_kwargs["alpha"] = config.zipf_alpha
    popularity = make_popularity_model(
        config.popularity_model, config.n_datasets, **popularity_kwargs)
    generator = WorkloadGenerator(
        n_users=config.n_users,
        n_datasets=config.n_datasets,
        n_jobs=config.n_jobs,
        sites=sites,
        rng=streams.stream("workload"),
        popularity=popularity,
        compute_seconds_per_gb=config.compute_seconds_per_gb,
        min_size_mb=config.min_dataset_mb,
        max_size_mb=config.max_dataset_mb,
        inputs_per_job=config.inputs_per_job,
        output_fraction=config.output_fraction,
        dag_shape=config.dag_shape,
        dag_width=config.dag_width,
    )
    return generator.generate()


def build_grid(
    config: SimulationConfig,
    es_name: str,
    ds_name: str,
    workload: Workload,
    seed: Optional[int] = None,
    tracer=None,
) -> Tuple[Simulator, DataGrid]:
    """Wire a ready-to-run grid for one algorithm combination.

    The workload must be fresh (jobs in WAITING state); pass
    ``workload.fresh()`` when reusing one across runs.  ``tracer`` (a
    :class:`repro.sim.trace.Tracer`) turns on domain-event tracing;
    emissions never draw randomness, so a traced run is bitwise-identical
    to an untraced one.
    """
    streams = RandomStreams(config.seed if seed is None else seed)
    sim = Simulator()
    topology = _build_topology(config, streams.stream("topology"))

    proc_rng = streams.stream("site-processors")
    site_processors = {
        name: proc_rng.randint(config.min_processors_per_site,
                               config.max_processors_per_site)
        for name in sorted(topology.sites)
    }

    external = make_external_scheduler(es_name, streams.stream("es"))
    local = make_local_scheduler(config.local_scheduler)
    dataset_sched = make_dataset_scheduler(
        ds_name, streams.stream("ds"),
        popularity_threshold=config.popularity_threshold,
        check_interval_s=config.ds_check_interval_s,
        neighbor_hops=config.neighbor_hops,
        delete_idle_after_s=config.ds_delete_idle_after_s,
    )

    # Each layer's random stream is drawn only when the layer is armed (a
    # null plan or policy is None), so adding a layer cannot perturb any
    # other stream in runs that leave it off.
    fault_plan = config.fault_plan
    overload_policy = config.overload_policy()
    health_policy = config.health_policy()
    durability_policy = config.durability_policy()
    # Durability faults in the plan arm the layer too: the grid then
    # installs a detection-only manager.
    durability_armed = (
        durability_policy is not None
        or (fault_plan is not None and fault_plan.has_durability_faults))
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=workload.datasets,
        external_scheduler=external,
        local_scheduler=local,
        dataset_scheduler=dataset_sched,
        site_processors=site_processors,
        storage_capacity_mb=config.storage_capacity_mb,
        datamover_rng=streams.stream("datamover"),
        info_policy=config.info_policy(),
        allocator=_make_allocator(config),
        fault_plan=fault_plan,
        fault_rng=(streams.stream("faults")
                   if fault_plan is not None else None),
        tracer=tracer,
        watchdog_interval_s=300.0 if config.watchdog else 0.0,
        overload_policy=overload_policy,
        overload_rng=(streams.stream("overload")
                      if overload_policy is not None else None),
        health_policy=health_policy,
        health_rng=(streams.stream("health")
                    if health_policy is not None else None),
        durability_policy=durability_policy,
        durability_rng=(streams.stream("durability")
                        if durability_armed else None),
    )
    grid.place_initial_replicas(workload.initial_placement)
    if config.dag_shape != "none":
        # DAG mode: the dependency-release driver replaces both the
        # closed-loop users and open arrivals.  The flattened job list is
        # ordered by job id, so release batches — and therefore the whole
        # run — are independent of dict iteration order and identical at
        # any worker count and through cache replay.
        all_jobs = sorted(
            (job for jobs in workload.user_jobs.values() for job in jobs),
            key=lambda job: job.job_id)
        grid.dag = DagDriver(sim, grid, all_jobs,
                             bulk=config.bulk_submission)
    elif config.arrival_rate_per_s > 0:
        # Open-loop mode: one grid-wide Poisson arrival stream replaces
        # the closed-loop users.  Jobs keep their generated origin sites;
        # the flattened order is by job id, so the stream is independent
        # of dict iteration and identical at any worker count.
        all_jobs = sorted(
            (job for jobs in workload.user_jobs.values() for job in jobs),
            key=lambda job: job.job_id)
        grid.arrivals = OpenArrivalProcess(
            sim, grid, config.arrival_rate_per_s,
            lambda i: all_jobs[i], len(all_jobs),
            rng=streams.stream("arrivals"))
    else:
        for user, site in workload.user_sites.items():
            grid.add_user(
                User(sim, user, site, workload.user_jobs[user], grid))
    return sim, grid


def run_single(
    config: SimulationConfig,
    es_name: str,
    ds_name: str,
    workload: Optional[Workload] = None,
    seed: Optional[int] = None,
    tracer=None,
) -> RunMetrics:
    """Run one (ES, DS) combination to completion and return its metrics.

    Pass a :class:`repro.sim.trace.Tracer` as ``tracer`` to collect the
    run's domain events (read them from ``tracer.records`` afterwards).
    """
    if workload is None:
        workload = make_workload(config, seed)
    else:
        workload = workload.fresh()
    sim, grid = build_grid(config, es_name, ds_name, workload, seed,
                           tracer=tracer)
    makespan = grid.run()
    if grid.watchdog is not None:
        # One final audit at the finish line: the periodic loop may not
        # land exactly on the makespan, and end-state bugs matter most.
        grid.watchdog.check_now()
    return RunMetrics.from_grid(grid, makespan)


def run_replicated(
    config: SimulationConfig,
    es_name: str,
    ds_name: str,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[RunMetrics]:
    """The paper's three-seed replication for one algorithm pair.

    ``jobs`` and ``cache_dir`` behave as in :func:`run_matrix`.
    """
    grid = grid_sweep(config, (), [(es_name, ds_name)], seeds, jobs,
                      cache_dir)
    return grid.runs[(es_name, ds_name)]


@dataclass
class MatrixResult:
    """Results of a full ES × DS sweep (one bandwidth scenario)."""

    config: SimulationConfig
    seeds: Tuple[int, ...]
    #: (es, ds) → per-seed metrics.
    runs: Dict[Tuple[str, str], List[RunMetrics]] = field(default_factory=dict)

    def summary(self, es_name: str,
                ds_name: str) -> Dict[str, MetricSummary]:
        """Cross-seed summary for one combination."""
        return summarize(self.runs[(es_name, ds_name)])

    def metric_matrix(self, metric: str) -> Dict[Tuple[str, str], float]:
        """Mean value of one RunMetrics field for every combination.

        ``metric`` may be any field named in
        :data:`repro.metrics.summary.SUMMARY_FIELDS` or ``idle_percent``.
        """
        return {key: MetricSummary.of(
                    [float(getattr(run, metric)) for run in runs]).mean
                for key, runs in self.runs.items()}


def run_matrix(
    config: SimulationConfig,
    es_names: Sequence[str] = tuple(ALL_ES),
    ds_names: Sequence[str] = tuple(ALL_DS),
    seeds: Sequence[int] = (0, 1, 2),
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> MatrixResult:
    """Run every (ES, DS) pair under every seed with paired workloads.

    A :func:`~repro.experiments.sweep.grid_sweep` with no axes, so
    ``jobs`` (worker processes; 1 = serial, None/0 = all cores) and
    ``cache_dir`` (the on-disk result cache) never change the result.
    """
    grid = grid_sweep(config, (), [(es, ds) for es in es_names
                                   for ds in ds_names], seeds, jobs,
                      cache_dir)
    return MatrixResult(config=config, seeds=grid.seeds, runs=grid.runs)
