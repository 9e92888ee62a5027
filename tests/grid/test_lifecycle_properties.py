"""Property tests: every run's state sequences fit the transition model.

Randomized small workloads are run across the fault × staleness ×
overload × DAG knob space with a hook installed on the grid's transition
engine.  Whatever path a job takes — retries after a site crash, a
deflection chain ending in shedding, a queue-deadline expiry — every
observed edge must be declared in ``TRANSITIONS``, terminal states must
absorb, timestamps must be monotone, and the engine's per-state counts
must always sum to the total registered jobs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_grid, make_workload
from repro.faults.plan import FaultPlan
from repro.grid import JobState
from repro.grid.lifecycle import TERMINAL_STATES, TRANSITIONS

FAULTY = FaultPlan.none().with_(site_mtbf_s=4000.0, site_mttr_s=600.0,
                                transfer_fail_prob=0.05)


def small_config(seed, catalog_delay, queue_capacity, deadline, faulty,
                 dag_shape):
    return SimulationConfig(
        n_users=6,
        n_sites=4,
        n_datasets=10,
        n_jobs=18,
        bandwidth_mbps=10.0,
        storage_capacity_mb=8000.0,
        topology="star",
        catalog_delay_s=catalog_delay,
        queue_capacity=queue_capacity,
        job_deadline_s=deadline,
        fault_plan=FAULTY if faulty else None,
        dag_shape=dag_shape,
        seed=seed,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=999),
    es=st.sampled_from(["JobLocal", "JobLeastLoaded", "JobDataPresent"]),
    ds=st.sampled_from(["DataDoNothing", "DataRandom"]),
    catalog_delay=st.sampled_from([0.0, 120.0]),
    queue_capacity=st.sampled_from([0, 2]),
    deadline=st.sampled_from([0.0, 400.0]),
    faulty=st.booleans(),
    dag_shape=st.sampled_from(["none", "diamond", "mapreduce"]),
)
def test_observed_sequences_fit_the_model(seed, es, ds, catalog_delay,
                                          queue_capacity, deadline,
                                          faulty, dag_shape):
    config = small_config(seed, catalog_delay, queue_capacity, deadline,
                          faulty, dag_shape)
    workload = make_workload(config, seed)
    sim, grid = build_grid(config, es, ds, workload, seed)
    observed = {}

    def record(job, src, dst, edge, now):
        observed.setdefault(job.job_id, []).append((src, dst, edge, now))

    grid.lifecycle.hooks.append(record)
    grid.run()
    engine = grid.lifecycle

    total = len(engine.jobs)
    assert total == config.n_jobs
    assert observed, "no transitions were recorded at all"

    for job_id, edges in observed.items():
        last_time = float("-inf")
        for i, (src, dst, edge, now) in enumerate(edges):
            assert (src, dst) in TRANSITIONS, (
                f"job {job_id} took undeclared edge "
                f"{src.value} -> {dst.value}")
            assert TRANSITIONS[(src, dst)] == edge
            assert src not in TERMINAL_STATES, (
                f"job {job_id} left terminal state {src.value}")
            assert now >= last_time, (
                f"job {job_id} transitioned backwards in time")
            last_time = now
            if i + 1 < len(edges):
                assert edges[i + 1][0] is dst, (
                    f"job {job_id}: sequence is not a connected path")

    # Conservation: per-state counts sum to the registered total, and the
    # set-based bookkeeping agrees with the counters exactly.
    assert sum(engine.counts) == total
    assert engine.audit() == []
    for state in JobState:
        assert engine.counts[state.index] == len(
            engine.by_state[state.index])

    # A finished closed-loop (or DAG) run leaves every job settled.
    for job in engine.jobs.values():
        assert job.state in TERMINAL_STATES, (
            f"job {job.job_id} ended the run in {job.state.value}")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999),
       faulty=st.booleans())
def test_done_jobs_walked_the_happy_chain(seed, faulty):
    """Every completed job's path ends with the canonical tail."""
    config = small_config(seed, 0.0, 0, 0.0, faulty, "none")
    workload = make_workload(config, seed)
    sim, grid = build_grid(config, "JobDataPresent", "DataRandom",
                           workload, seed)
    observed = {}
    grid.lifecycle.hooks.append(
        lambda job, src, dst, edge, now:
        observed.setdefault(job.job_id, []).append(edge))
    grid.run()
    for job in grid.lifecycle.jobs.values():
        if job.state is JobState.DONE:
            assert observed[job.job_id][-4:] == [
                "dispatch", "enqueue", "start", "finish"]
