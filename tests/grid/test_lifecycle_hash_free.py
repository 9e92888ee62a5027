"""A whole run must never hash a :class:`JobState`.

``Enum.__hash__`` is a pure-Python method, so a state-keyed dict or set
costs one interpreted call per lookup.  The lifecycle engine and the
watchdog's periodic check therefore index plain lists by ``state.index``.
These tests prove it with a call counter in place of ``JobState.__hash__``
for the whole of ``DataGrid.run``, the watchdog's final ``check_now()`` and
``RunMetrics.from_grid``, on 5%-scale copies of the repository benchmark's
lifecycle-heavy workloads with the watchdog armed, so every periodic round
and the full ``audit()`` run under the counter.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_grid, make_workload
from repro.faults.plan import FaultPlan
from repro.grid.lifecycle import JobState
from repro.metrics.collector import RunMetrics

_CONTENDED = SimulationConfig.paper(bandwidth_mbps=10.0)

#: name -> (config, ES, DS).  Mirrors ``perfbench/workloads.py``.
RUNS = {
    "data-local": (
        SimulationConfig.paper(bandwidth_mbps=100.0),
        "JobDataPresent", "DataDoNothing"),
    "armed": (
        _CONTENDED.with_(
            fault_plan=FaultPlan(
                site_mtbf_s=20000.0, site_mttr_s=2000.0,
                transfer_fail_prob=0.02, corruption_mtbf_s=8000.0,
                job_max_retries=10, redispatch_delay_s=10.0),
            health_heartbeat_s=30.0, health_heartbeat_jitter=0.1,
            replication_factor=2, durability_repair=True,
            scrub_interval_s=600.0, catalog_delay_s=60.0,
            info_timeout_s=60.0, storage_reservations=True),
        "JobLeastLoaded", "DataRandom"),
    "overload": (
        _CONTENDED.with_(
            arrival_rate_per_s=0.08, queue_capacity=8, deflect_budget=2,
            job_deadline_s=4000.0, degraded_es="JobRandom",
            storage_reservations=True),
        "JobLeastLoaded", "DataRandom"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_and_metrics_never_hash_a_job_state(name, monkeypatch):
    config, es_name, ds_name = RUNS[name]
    config = config.scaled(0.05).with_(watchdog=True)
    sim, grid = build_grid(config, es_name, ds_name, make_workload(config))

    calls = [0]
    original = JobState.__hash__

    def counting_hash(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(JobState, "__hash__", counting_hash)
    makespan = grid.run()
    grid.watchdog.check_now()
    metrics = RunMetrics.from_grid(grid, makespan)
    monkeypatch.undo()

    assert len(grid.lifecycle.jobs) == config.n_jobs
    assert metrics.n_jobs > 0
    assert grid.watchdog.checks_run > 0
    assert grid.lifecycle.transitions_applied > 0
    assert calls[0] == 0, f"JobState.__hash__ ran {calls[0]} times"
