"""Negative-path guards: the full |states|² transition matrix.

Every ordered state pair is tried exactly once.  Pairs declared in
``TRANSITIONS`` must apply cleanly; every other pair must raise
:class:`IllegalTransition` carrying the job id, the attempted edge, and
the simulation time — and must leave the job's state untouched.
"""

import pytest

from repro.grid import IllegalTransition, Job, JobState, TransitionEngine
from repro.grid.lifecycle import TRANSITIONS, apply_transition

ALL_STATES = list(JobState)
ALL_PAIRS = [(src, dst) for src in ALL_STATES for dst in ALL_STATES]


def make_job(job_id=7):
    return Job(job_id=job_id, user="u", origin_site="s0",
               input_files=["f"], runtime_s=300)


def force_state(job, state):
    """Place a job in an arbitrary state without walking the chain."""
    job.state = state
    return job


def test_matrix_is_total():
    assert len(ALL_PAIRS) == len(ALL_STATES) ** 2
    # The canonical members, indexed in declaration order.
    assert len(ALL_STATES) == 12
    assert [state.index for state in ALL_STATES] == list(range(12))


@pytest.mark.parametrize(
    "src,dst", ALL_PAIRS,
    ids=[f"{src.value}->{dst.value}" for src, dst in ALL_PAIRS])
def test_every_pair(src, dst):
    job = force_state(make_job(), src)
    if (src, dst) in TRANSITIONS:
        edge = apply_transition(job, dst, 12.5)
        assert edge == TRANSITIONS[(src, dst)]
        assert job.state is dst
        return
    with pytest.raises(IllegalTransition) as excinfo:
        apply_transition(job, dst, 12.5)
    err = excinfo.value
    assert err.job_id == job.job_id
    assert err.src is src
    assert err.dst is dst
    assert err.time == 12.5
    assert f"{src.value} -> {dst.value}" in str(err)
    assert "t=12.500" in str(err)
    assert job.state is src, "a rejected transition must not change state"


def test_illegal_transition_is_a_value_error():
    # Callers that predate the engine catch ValueError; keep that working.
    assert issubclass(IllegalTransition, ValueError)


def test_terminal_states_are_absorbing_by_construction():
    terminal = {JobState.DONE, JobState.FAILED, JobState.SHED,
                JobState.EXPIRED, JobState.SPECULATED,
                JobState.ABANDONED_DATA_LOST}
    outgoing = {src for src, _ in TRANSITIONS}
    assert terminal.isdisjoint(outgoing)
    # And everything non-terminal has at least one way forward.
    assert outgoing == set(ALL_STATES) - terminal


class TestEngineRejection:
    """The engine path: rejection must leave bookkeeping untouched."""

    def test_rejected_edge_changes_nothing(self):
        engine = TransitionEngine()
        job = make_job()
        engine.register(job)
        before_counts = list(engine.counts)
        before_applied = engine.transitions_applied
        with pytest.raises(IllegalTransition):
            engine.transition(job, JobState.RUNNING)
        assert engine.counts == before_counts
        assert engine.transitions_applied == before_applied
        assert job.state is JobState.WAITING
        assert engine.audit() == []

    def test_hooks_not_fired_on_rejection(self):
        engine = TransitionEngine()
        fired = []
        engine.hooks.append(
            lambda job, src, dst, edge, now: fired.append(edge))
        job = make_job()
        engine.register(job)
        with pytest.raises(IllegalTransition):
            engine.transition(job, JobState.DONE)
        assert fired == []
        engine.transition(job, JobState.READY)
        assert fired == ["submit"]


from repro.grid.lifecycle import LifecycleGuardError  # noqa: E402
from repro.sim.trace import Tracer  # noqa: E402


def traced_engine():
    tracer = Tracer()
    return TransitionEngine(tracer=tracer), tracer


class TestEngineBookkeeping:
    def test_register_is_idempotent_per_object(self):
        engine = TransitionEngine()
        job = make_job()
        engine.register(job)
        engine.register(job)
        assert engine.counts[JobState.WAITING.index] == 1

    def test_register_supersedes_reused_id(self):
        engine = TransitionEngine()
        first = make_job()
        engine.register(first)
        engine.transition(first, JobState.READY)
        second = make_job()  # same id, fresh object
        engine.register(second)
        assert engine.jobs[7] is second
        assert engine.counts[JobState.READY.index] == 0
        assert engine.counts[JobState.WAITING.index] == 1
        assert engine.audit() == []

    def test_jobs_in_returns_sorted_by_id(self):
        engine = TransitionEngine()
        for jid in (9, 3, 5):
            engine.register(make_job(job_id=jid))
        assert [j.job_id for j in engine.jobs_in(JobState.WAITING)] == \
            [3, 5, 9]

    def test_out_of_band_mutation_trips_conservation_guard(self):
        engine = TransitionEngine()
        job = make_job()
        engine.register(job)
        job.state = JobState.READY  # bypassing the engine: the old bug
        with pytest.raises(LifecycleGuardError, match="jobs-conserved"):
            engine.transition(job, JobState.DISPATCHED)

    def test_audit_reports_every_drift_kind(self):
        engine = TransitionEngine()
        job = make_job()
        engine.register(job)
        assert engine.audit() == []
        engine.by_state[JobState.WAITING.index].discard(job.job_id)
        engine.counts[JobState.WAITING.index] = 0
        engine.counts[JobState.DONE.index] = 1  # keep the sum right
        problems = engine.audit()
        assert any("missing from its state set" in p for p in problems)
        assert any("recount says" in p for p in problems)
        engine.counts[JobState.DONE.index] = 0
        assert any("are registered" in p for p in engine.audit())


class TestStarvationGuard:
    def _started_job(self, wait):
        job = make_job()
        job.state = JobState.FETCHING
        job.queued_at = 100.0
        job.processor_at = 100.0 + wait
        return job

    def test_grant_within_deadline_passes(self):
        engine = TransitionEngine()
        engine.deadline_of = lambda job: 50.0
        job = self._started_job(wait=49.0)
        engine.register(job)
        engine.transition(job, JobState.RUNNING)

    def test_grant_past_deadline_raises(self):
        engine = TransitionEngine()
        engine.deadline_of = lambda job: 50.0
        job = self._started_job(wait=51.0)
        engine.register(job)
        with pytest.raises(LifecycleGuardError, match="no-starvation"):
            engine.transition(job, JobState.RUNNING)

    def test_zero_deadline_means_no_guard(self):
        engine = TransitionEngine()
        engine.deadline_of = lambda job: 0.0
        job = self._started_job(wait=1e9)
        engine.register(job)
        engine.transition(job, JobState.RUNNING)


class TestTypedEdges:
    """Each typed helper drives its edge and owns its trace emission."""

    def test_happy_chain_emissions(self):
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.dispatch(job, "site01")
        engine.enqueue(job, "site01", waiting=2)
        engine.data_ready(job, "site01", fetched_mb=500.0)
        engine.start(job, "site01")
        engine.finish(job, "site01")
        assert [r.kind for r in tracer.records] == [
            "job.submit", "job.dispatch", "job.queue", "job.data_ready",
            "job.start", "job.finish"]
        assert job.state is JobState.DONE
        assert tracer.records[0].detail["inputs"] == ["f"]
        assert "deps" not in tracer.records[0].detail

    def test_submit_emits_deps_only_when_present(self):
        engine, tracer = traced_engine()
        job = make_job()
        job.depends_on = [3, 4]
        engine.submit(job)
        assert tracer.records[0].detail["deps"] == [3, 4]

    def test_dispatch_emits_attempt_only_on_retries(self):
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.dispatch(job, "site02", attempt=2)
        assert tracer.records[-1].kind == "job.dispatch"
        assert tracer.records[-1].detail["attempt"] == 2

    def test_expire_records_wait_and_reason(self):
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.dispatch(job, "site01")
        engine.enqueue(job, "site01", waiting=0)
        engine.expire(job, "site01", deadline_s=60.0)
        assert job.state is JobState.EXPIRED
        assert "queue deadline" in job.failure_reason
        assert tracer.records[-1].kind == "job.expired"
        assert tracer.records[-1].detail["deadline_s"] == 60.0

    def test_shed_fail_abandon_set_reasons(self):
        engine, tracer = traced_engine()
        shed = make_job(job_id=1)
        engine.submit(shed)
        engine.shed(shed, "queues saturated")
        failed = make_job(job_id=2)
        engine.submit(failed)
        engine.fail(failed, "no live site")
        orphan = make_job(job_id=3)
        engine.abandon(orphan, "dependency job 1 ended shed")
        assert shed.state is JobState.SHED
        assert failed.failure_reason == "no live site"
        assert orphan.state is JobState.FAILED
        assert orphan.failure_reason == "dependency job 1 ended shed"
        kinds = [r.kind for r in tracer.records]
        assert kinds == ["job.submit", "job.shed", "job.submit",
                         "job.fail", "job.fail"]

    def test_abandon_data_lost_takes_its_own_terminal_edge(self):
        engine, tracer = traced_engine()
        waiting = make_job(job_id=1)
        engine.submit(waiting)  # READY
        engine.abandon_data_lost(waiting, "f", "input dataset 'f' lost")
        assert waiting.state is JobState.ABANDONED_DATA_LOST
        assert waiting.failure_reason == "input dataset 'f' lost"
        record = tracer.records[-1]
        assert record.kind == "job.abandoned_data_lost"
        assert record.detail["dataset"] == "f"
        assert record.detail["reason"] == waiting.failure_reason

        parked = make_job(job_id=2)  # WAITING: never dispatched
        engine.register(parked)
        engine.abandon_data_lost(parked, "f", "lost before dispatch")
        assert parked.state is JobState.ABANDONED_DATA_LOST

        retrying = make_job(job_id=3)
        engine.submit(retrying)
        engine.dispatch(retrying, "site01")
        engine.enqueue(retrying, "site01", waiting=0)
        engine.kill(retrying, "site crashed")  # RETRYING
        engine.abandon_data_lost(retrying, "f", "lost mid-retry")
        assert retrying.state is JobState.ABANDONED_DATA_LOST

        # Terminal: no edge leads out, so a re-dispatch must be refused.
        with pytest.raises(IllegalTransition):
            engine.transition(waiting, JobState.READY)

    def test_kill_is_silent_then_retry_rewinds(self):
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.dispatch(job, "site01")
        engine.enqueue(job, "site01", waiting=0)
        before = len(tracer.records)
        engine.kill(job, "site crashed")
        assert len(tracer.records) == before  # kill emits nothing
        assert job.killed
        engine.retry(job)
        assert tracer.records[-1].kind == "job.retry"
        assert job.retries == 1
        assert job.execution_site is None
        assert job.queued_at is None

    def test_preempt_retires_the_race_loser(self):
        engine, tracer = traced_engine()
        clone = make_job(job_id=9)
        clone.speculative_of = 7
        engine.submit(clone)
        engine.dispatch(clone, "site02")
        engine.enqueue(clone, "site02", waiting=0)
        engine.start(clone, "site02")
        engine.preempt(clone, "site02", "primary finished first")
        assert clone.state is JobState.SPECULATED
        assert clone.completed_at is None
        assert tracer.records[-1].kind == "job.preempted_loser"
        assert tracer.records[-1].detail["primary"] == 7

    def test_preempted_backup_of_job_zero_names_its_primary(self):
        # Job ids start at 0: the primary field must not fall back to
        # the backup's own id when it clones job 0.
        engine, tracer = traced_engine()
        clone = make_job(job_id=1_000_000_000)
        clone.speculative_of = 0
        engine.submit(clone)
        engine.dispatch(clone, "site02")
        engine.enqueue(clone, "site02", waiting=0)
        engine.preempt(clone, "site02", "primary finished first")
        assert tracer.records[-1].detail["primary"] == 0

    def test_backup_expiry_retires_along_the_preempt_edge(self):
        engine, tracer = traced_engine()
        hooked = []
        engine.hooks.append(lambda job, src, dst, edge, now:
                            hooked.append(edge))
        clone = make_job(job_id=1_000_000_000)
        clone.speculative_of = 0
        engine.submit(clone)
        engine.dispatch(clone, "site02")
        engine.enqueue(clone, "site02", waiting=0)
        engine.expire(clone, "site02", deadline_s=60.0)
        assert clone.state is JobState.SPECULATED
        assert hooked[-1] == "preempt"
        assert "queue deadline" in clone.failure_reason
        record = tracer.records[-1]
        assert record.kind == "job.preempted_loser"
        assert record.detail["primary"] == 0
        assert not any(r.kind == "job.expired" for r in tracer.records)

    def test_preempt_works_mid_fetch(self):
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.dispatch(job, "site01")
        engine.enqueue(job, "site01", waiting=0)
        engine.preempt(job, "site01", "backup finished first")
        assert job.state is JobState.SPECULATED
        assert tracer.records[-1].detail["primary"] == job.job_id

    def test_concede_from_retry_backoff(self):
        """A dead attempt whose partner carries the job concedes the
        race instead of failing — from RETRYING (budget just ran out)
        or READY (parked in backoff when the partner completed)."""
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.dispatch(job, "site01")
        engine.enqueue(job, "site01", waiting=0)
        engine.kill(job, "site crashed")
        engine.concede(job, "retry budget exhausted; partner carries")
        assert job.state is JobState.SPECULATED
        assert tracer.records[-1].kind == "job.preempted_loser"
        assert "partner carries" in job.failure_reason

        parked = make_job(job_id=8)
        engine.submit(parked)
        engine.concede(parked, "speculation race lost")
        assert parked.state is JobState.SPECULATED

        killed = make_job(job_id=1_000_000_000)
        killed.speculative_of = 0
        engine.submit(killed)
        engine.dispatch(killed, "site01")
        engine.enqueue(killed, "site01", waiting=0)
        engine.kill(killed, "site crashed")
        engine.concede(killed, "backup attempt killed")
        assert tracer.records[-1].detail["primary"] == 0

    def test_replacement_self_edges(self):
        engine, tracer = traced_engine()
        job = make_job()
        engine.submit(job)
        engine.bounce(job, origin="site01", site="site02")
        engine.deflect(job, origin="site02", site="site03")
        engine.redirect(job, chosen="site03", fallback="site00")
        engine.misdirected(job, "site01", missing=["d9"])
        assert job.state is JobState.READY
        assert (job.bounces, job.deflections) == (1, 1)
        assert [r.kind for r in tracer.records[-4:]] == [
            "job.bounced", "job.deflected", "job.redirect",
            "job.misdirected"]
        # Self-edges never disturb the counts.
        assert engine.counts[JobState.READY.index] == 1
        assert engine.audit() == []
