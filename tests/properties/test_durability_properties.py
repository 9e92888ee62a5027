"""Property-based tests: durability invariants under arbitrary faults.

Hypothesis generates fault plans that corrupt and destroy replicas —
scripted :class:`ReplicaCorruption`/:class:`ReplicaLoss` events,
stochastic bit-rot, permanent outages, lossy transfers — combined with
arbitrary durability knobs (replication factor, repair on/off, scrub
period).  Whatever the combination, the layer must keep its promises:

* **no limbo** — every managed dataset ends the run either with at
  least one cataloged replica or recorded as lost, never neither;
* every submitted job reaches a terminal state and the books conserve,
  with ``ABANDONED_DATA_LOST`` jobs tied to actually-lost inputs;
* storage accounting balances and no pinned file is LRU-evicted
  (quarantine removal is *not* an eviction and must not trip the
  audit);
* the replica catalog and storage contents agree exactly;
* durability counters stay internally consistent.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, SimulationConfig, SiteOutage
from repro import build_grid, make_workload
from repro.faults.plan import ReplicaCorruption, ReplicaLoss
from repro.grid.job import JobState

# The small grid: SimulationConfig.paper().scaled(0.02) — two sites
# under one tier-1 hub, 10 datasets, 120 jobs.
SITES = ["site00", "site01"]
DATASETS = [f"dataset{i:04d}" for i in range(10)]
N_JOBS = 120

TERMINAL = (JobState.DONE, JobState.FAILED,
            JobState.ABANDONED_DATA_LOST)


@st.composite
def replica_events(draw, cls, max_events):
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        events.append(cls(
            site=draw(st.sampled_from(SITES)),
            dataset=draw(st.sampled_from(DATASETS)),
            time_s=draw(st.floats(0.0, 20_000.0, allow_nan=False)),
        ))
    return tuple(events)


@st.composite
def durable_plans(draw):
    outages = []
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 10_000.0, allow_nan=False))
        end = draw(st.one_of(
            st.none(),  # permanent: destroys every replica at the site
            st.floats(start + 100.0, start + 8_000.0, allow_nan=False)))
        outages.append(SiteOutage(draw(st.sampled_from(SITES)), start, end))
    return FaultPlan(
        site_outages=tuple(outages),
        replica_corruptions=draw(
            replica_events(ReplicaCorruption, max_events=4)),
        replica_losses=draw(replica_events(ReplicaLoss, max_events=3)),
        corruption_mtbf_s=draw(st.sampled_from([0.0, 3_000.0, 10_000.0])),
        transfer_fail_prob=draw(st.sampled_from([0.0, 0.1])),
        job_max_retries=draw(st.sampled_from([2, 8])),
        redispatch_delay_s=5.0,
        seed=draw(st.integers(0, 3)),
    )


durability_knobs = st.sampled_from([
    # (replication_factor, repair, scrub_interval_s)
    (1, False, 0.0),
    (1, False, 600.0),
    (2, True, 0.0),
    (2, True, 600.0),
])


def run_durable(plan, knobs, seed=0):
    rf, repair, scrub = knobs
    config = SimulationConfig.paper().scaled(0.02).with_(
        fault_plan=plan, watchdog=True, replication_factor=rf,
        durability_repair=repair, scrub_interval_s=scrub)
    workload = make_workload(config, seed=seed)
    sim, grid = build_grid(config, "JobDataPresent", "DataRandom",
                           workload, seed=seed)
    evicted_while_pinned = _audit_evictions(grid)
    grid.run()
    return grid, evicted_while_pinned


def _audit_evictions(grid):
    """Catch LRU evictions of pinned files, durability-aware.

    Shadow-counts pins via wrapped pin/unpin.  ``remove`` (the path
    quarantine, explicit loss, and site invalidation take) zeroes the
    shadow count: pins vanish with the entry, and a later refetch
    restarts from zero — mirroring the real element's accounting.
    """
    violations = []
    for site, storage in grid.storages.items():
        pins = {}

        def wrap(storage=storage, site=site, pins=pins):
            original_pin = storage.pin
            original_unpin = storage.unpin
            original_remove = storage.remove
            previous_evict = storage.on_evict

            def pin(name):
                original_pin(name)
                pins[name] = pins.get(name, 0) + 1

            def unpin(name):
                original_unpin(name)
                if pins.get(name, 0) > 0:
                    pins[name] -= 1

            def remove(name):
                original_remove(name)
                pins.pop(name, None)

            def on_evict(dataset):
                if pins.get(dataset.name, 0) > 0:
                    violations.append((site, dataset.name))
                if previous_evict is not None:
                    previous_evict(dataset)

            storage.pin = pin
            storage.unpin = unpin
            storage.remove = remove
            storage.on_evict = on_evict

        wrap()
    return violations


common_settings = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])


@given(plan=durable_plans(), knobs=durability_knobs)
@common_settings
def test_no_dataset_is_left_in_limbo(plan, knobs):
    grid, _ = run_durable(plan, knobs)
    durability = grid.durability
    if durability is None:
        return  # nothing armed this example: nothing to promise
    for name in grid.datasets.names:
        count = grid.catalog.replica_count(name)
        if count == 0:
            assert durability.is_lost(name), \
                f"{name} has no replica yet is not recorded lost"
        else:
            assert not durability.is_lost(name), \
                f"{name} is recorded lost yet still has {count} replicas"
    assert durability.stats.datasets_lost == len(durability.lost_datasets())


#: Draws (Hypothesis seeds 3 and 5) where a DataScheduler replication
#: copy started on a DS cycle boundary (t = 17100 s and 16200 s) is
#: still in flight when the last job ends: 900 MB of dataset0005 from
#: site01 to site00.
REPLICATION_OUTLIVES_WORKLOAD = [
    FaultPlan(
        replica_losses=(ReplicaLoss("site01", "dataset0000", 12141.0),
                        ReplicaLoss("site00", "dataset0000", 12710.0)),
        corruption_mtbf_s=3000.0, job_max_retries=2),
    FaultPlan(
        replica_corruptions=(
            ReplicaCorruption("site01", "dataset0007", 7201.0),
            ReplicaCorruption("site00", "dataset0003", 0.0),
            ReplicaCorruption("site00", "dataset0000", 11401.0),
            ReplicaCorruption("site00", "dataset0001", 11401.0)),
        corruption_mtbf_s=3000.0, job_max_retries=2),
]


@given(plan=durable_plans(), knobs=durability_knobs)
@example(plan=REPLICATION_OUTLIVES_WORKLOAD[0], knobs=(1, False, 600.0))
@example(plan=REPLICATION_OUTLIVES_WORKLOAD[1], knobs=(1, False, 600.0))
@common_settings
def test_jobs_conserve_and_abandonment_is_justified(plan, knobs):
    grid, _ = run_durable(plan, knobs)
    states = [job.state for job in grid.submitted_jobs]
    assert all(s in TERMINAL for s in states)
    assert (len(grid.completed_jobs) + len(grid.failed_jobs)
            + len(grid.abandoned_jobs)) == len(states) == N_JOBS
    if grid.abandoned_jobs:
        lost = set(grid.durability.lost_datasets())
        for job in grid.abandoned_jobs:
            assert any(f in lost for f in job.input_files), \
                f"job {job.job_id} abandoned without a lost input"
    # No job work left in flight anywhere.  Background copies may
    # legitimately outlive the workload: the DataScheduler replicates
    # asynchronously, independently of jobs, and repair is maintenance.
    # The run ends when the last job does, not when either goes quiet.
    assert all(s.jobs_in_system == 0 for s in grid.sites.values())
    leftovers = [t.purpose for t in grid.transfers.active]
    assert "job-fetch" not in leftovers
    assert set(leftovers) <= {"replication", "repair"}


@given(plan=durable_plans(), knobs=durability_knobs)
@common_settings
def test_storage_accounting_balances(plan, knobs):
    grid, _ = run_durable(plan, knobs)
    for storage in grid.storages.values():
        assert 0.0 <= storage.used_mb <= storage.capacity_mb + 1e-6
        for name in storage.files:
            assert storage._entries[name].pins >= 0


@given(plan=durable_plans(), knobs=durability_knobs)
@common_settings
def test_no_pinned_copy_is_lru_evicted(plan, knobs):
    _, evicted_while_pinned = run_durable(plan, knobs)
    assert evicted_while_pinned == []


@given(plan=durable_plans(), knobs=durability_knobs)
@common_settings
def test_catalog_matches_storage_exactly(plan, knobs):
    grid, _ = run_durable(plan, knobs)
    for site, storage in grid.storages.items():
        for name in storage.files:
            assert grid.catalog.has_replica(name, site), \
                f"{name} stored at {site} but not cataloged"
    for name in grid.datasets.names:
        for site in grid.catalog.locations(name):
            assert name in grid.storages[site], \
                f"{name} cataloged at {site} but not stored"


@given(plan=durable_plans(), knobs=durability_knobs)
@common_settings
def test_durability_counters_stay_consistent(plan, knobs):
    grid, _ = run_durable(plan, knobs)
    durability = grid.durability
    if durability is None:
        return
    stats = durability.stats
    assert stats.replicas_quarantined <= stats.replicas_corrupted
    assert stats.replicas_repaired <= stats.repairs_started
    # Every job retired for lost data names an input that is lost.
    assert all(any(durability.is_lost(name) for name in job.input_files)
               for job in grid.abandoned_jobs)
    assert stats.mean_repair_latency_s >= 0.0
    if stats.replicas_repaired == 0:
        assert stats.repair_bytes_mb == 0.0
    rf = durability.policy.replication_factor
    if rf == 1:
        # The paper's single-primary mode never creates extra copies.
        assert stats.repairs_started == 0
