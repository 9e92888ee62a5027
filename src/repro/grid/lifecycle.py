"""The explicit job-lifecycle transition engine.

Every job in the grid moves through the states below, and **only** along
the edges declared in :data:`TRANSITIONS`.  The :class:`TransitionEngine`
is the single authority for state changes: it validates each edge,
applies the edge's field effects (timestamps, retry rewinds, failure
reasons), maintains O(1) per-state bookkeeping (counts and id-sets that
replace the old scattered flags), runs transition guards (the watchdog's
jobs-conserved and no-starvation invariants, folded into the hot path),
and emits the corresponding domain-trace record — so trace emission can
never drift from the state machine that produced it.

State diagram (see ``docs/architecture.md`` for the rendered table)::

                         re-place (bounce/deflect/redirect)
                              +----+
                              v    |
    waiting ---submit---> ready ---+--dispatch--> dispatched
       |                   |  \\                       |
       |                   |   +--shed--> SHED      enqueue
     abandon              fail                         v
       |                   |        +--expire---- fetching ---kill---+
       v                   v        v                  |             |
     FAILED <---fail--- retrying    EXPIRED          start           |
                           ^                           v             |
                           |                        running ---------+
                         retry                         |
                       (back to ready)               finish
                                                       v
                                                      DONE

Speculative backup execution (the health layer) adds one more terminal
state: ``fetching``/``running`` --preempt--> ``SPECULATED`` retires the
losing attempt of a speculation race (or a backup past its queue
deadline), and ``ready``/``retrying`` --concede--> ``SPECULATED`` retires
an attempt with nothing in flight, so each logical job books exactly one
outcome other than ``SPECULATED``.

The durability layer (:mod:`repro.grid.durability`) adds one more:
``waiting``/``ready``/``retrying`` --abandon-data-lost-->
``ABANDONED_DATA_LOST`` retires a job whose input dataset lost its last
replica — there is nothing left to fetch, so retrying forever would be
busy-work.

Terminal states (``done``, ``failed``, ``shed``, ``expired``,
``speculated``, ``abandoned_data_lost``) are absorbing: no outgoing
edges, enforced by the table itself.  An edge not in the table raises
:class:`IllegalTransition` with the job id, the attempted edge, and the
simulated time.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.job import Job
    from repro.sim.core import Simulator
    from repro.sim.trace import Tracer


class JobState(enum.Enum):
    """Lifecycle states.

    Each member carries a fixed ``index`` (its declaration position, set
    once at class creation) so the engine's tables are plain lists indexed
    by state: ``Enum.__hash__`` is a pure-Python call, too slow for a
    lookup on every transition and every watchdog audit.
    """

    WAITING = "waiting"        #: generated; parents (if any) not done yet
    READY = "ready"            #: handed to the External Scheduler
    DISPATCHED = "dispatched"  #: ES picked an execution site
    FETCHING = "fetching"      #: at the site: queued, input fetch started
    RUNNING = "running"        #: compute phase in progress
    DONE = "done"              #: completed (terminal)
    RETRYING = "retrying"      #: attempt killed; awaiting supervisor rewind
    FAILED = "failed"          #: given up permanently (terminal)
    SHED = "shed"              #: refused admission (terminal)
    EXPIRED = "expired"        #: queue deadline passed (terminal)
    SPECULATED = "speculated"  #: lost a speculative race (terminal)
    #: Every replica of an input dataset is gone (terminal).
    ABANDONED_DATA_LOST = "abandoned_data_lost"

    def __init__(self, value: str) -> None:
        self.index = len(type(self).__members__)


#: Every legal edge, ``(src, dst) -> edge name``.  The engine refuses
#: anything else; terminal states are absorbing because they simply have
#: no outgoing entries.
TRANSITIONS: Dict[Tuple[JobState, JobState], str] = {
    (JobState.WAITING, JobState.READY): "submit",
    # A WAITING job whose parent ended badly is failed without ever
    # reaching the External Scheduler (DAG cascade).
    (JobState.WAITING, JobState.FAILED): "abandon",
    # Placement churn (misdirection bounce, saturation deflection, fault
    # redirect) re-places a job that is still with the ES: a self-edge.
    (JobState.READY, JobState.READY): "re-place",
    (JobState.READY, JobState.DISPATCHED): "dispatch",
    (JobState.READY, JobState.SHED): "shed",
    (JobState.READY, JobState.FAILED): "fail",
    (JobState.DISPATCHED, JobState.FETCHING): "enqueue",
    (JobState.FETCHING, JobState.RUNNING): "start",
    (JobState.FETCHING, JobState.EXPIRED): "expire",
    (JobState.FETCHING, JobState.RETRYING): "kill",
    (JobState.RUNNING, JobState.DONE): "finish",
    (JobState.RUNNING, JobState.RETRYING): "kill",
    # Speculative backup execution: when two attempts of one logical job
    # race, the loser — primary or backup, fetching or mid-compute — is
    # preempted into the absorbing SPECULATED state, so exactly one DONE
    # exists per logical job and conservation counts still balance.  A
    # backup past its queue deadline retires along the same edge.
    (JobState.FETCHING, JobState.SPECULATED): "preempt",
    (JobState.RUNNING, JobState.SPECULATED): "preempt",
    (JobState.RETRYING, JobState.READY): "retry",
    (JobState.RETRYING, JobState.FAILED): "fail",
    # An attempt with nothing in flight concedes instead of failing: a
    # killed backup (never retried; the primary carries the job), or a
    # primary in retry backoff, parked, or waiting for the race when its
    # backup reaches DONE.
    (JobState.RETRYING, JobState.SPECULATED): "concede",
    (JobState.READY, JobState.SPECULATED): "concede",
    # Unrecoverable data loss: the durability layer marked an input
    # dataset lost (last replica destroyed, no repair possible), so the
    # job is retired instead of retrying against data that no longer
    # exists.  WAITING jobs take the edge through the DAG cascade.
    (JobState.WAITING, JobState.ABANDONED_DATA_LOST): "abandon-data-lost",
    (JobState.READY, JobState.ABANDONED_DATA_LOST): "abandon-data-lost",
    (JobState.RETRYING, JobState.ABANDONED_DATA_LOST): "abandon-data-lost",
}

#: States with no outgoing edges (derived, so it can never go stale).
TERMINAL_STATES: Tuple[JobState, ...] = tuple(
    state for state in JobState
    if not any(src is state for src, _ in TRANSITIONS))

#: Every other state: a job in one of these can still change state.
_LIVE_STATES: Tuple[JobState, ...] = tuple(
    state for state in JobState if state not in TERMINAL_STATES)

#: ``_EDGES[src.index][dst.index]`` is the edge name, or ``None`` where
#: :data:`TRANSITIONS` declares no edge (derived, never edited by hand).
_EDGES: List[List[Optional[str]]] = [
    [TRANSITIONS.get((src, dst)) for dst in JobState] for src in JobState]

#: Timestamp field stamped on *entering* a state, by ``state.index``
#: (READY is special-cased: ``submitted_at`` is only stamped on first
#: submission, not on retry).
_ENTRY_TIMESTAMP: List[Optional[str]] = [None] * len(JobState)
_ENTRY_TIMESTAMP[JobState.DISPATCHED.index] = "dispatched_at"
_ENTRY_TIMESTAMP[JobState.FETCHING.index] = "queued_at"
_ENTRY_TIMESTAMP[JobState.RUNNING.index] = "started_at"
_ENTRY_TIMESTAMP[JobState.DONE.index] = "completed_at"

#: Whether entering a state records a failure, by ``state.index``: every
#: terminal state except DONE.
_IS_FAILURE: List[bool] = [
    state in TERMINAL_STATES and state is not JobState.DONE
    for state in JobState]

#: Tolerance for float time comparisons in guards (matches the watchdog).
_EPSILON = 1e-6


class IllegalTransition(ValueError):
    """An edge not declared in :data:`TRANSITIONS` was attempted.

    Attributes
    ----------
    job_id:
        The job whose transition was refused.
    src, dst:
        The attempted edge (:class:`JobState` pair).
    time:
        Simulated time of the attempt.
    """

    def __init__(self, job_id: int, src: JobState, dst: JobState,
                 time: float) -> None:
        self.job_id = job_id
        self.src = src
        self.dst = dst
        self.time = time
        super().__init__(
            f"job {job_id}: illegal transition "
            f"{src.value} -> {dst.value} at t={time:.3f}")


class LifecycleGuardError(AssertionError):
    """A transition guard (conservation / starvation) failed mid-edge."""


def apply_transition(job: "Job", dst: JobState, now: float,
                     reason: Optional[str] = None) -> str:
    """Validate one edge on ``job`` and apply its field effects.

    This is the engine-less core used by :meth:`Job.advance` and the
    ``mark_*`` helpers; :class:`TransitionEngine` layers bookkeeping,
    guards, hooks, and trace emission on top.  Returns the edge name.
    """
    src = job.state
    index = dst.index
    edge = _EDGES[src.index][index]
    if edge is None:
        raise IllegalTransition(job.job_id, src, dst, now)
    if dst is JobState.READY:
        if src is JobState.RETRYING:
            # Rewind a killed attempt as if the ES had just received the
            # job.  ``submitted_at`` is preserved so response time spans
            # the whole ordeal, including every failed attempt.
            job.retries += 1
            job.deflections = 0
            job.execution_site = None
            job.dispatched_at = None
            job.queued_at = None
            job.data_ready_at = None
            job.processor_at = None
            job.started_at = None
            job.fetched_mb = 0.0
        elif src is JobState.WAITING:
            job.submitted_at = now
        # READY -> READY re-placement carries no field effects.
    elif _IS_FAILURE[index]:
        job.completed_at = None
        if reason is not None:
            job.failure_reason = reason
    else:
        attr = _ENTRY_TIMESTAMP[index]
        if attr is not None:
            setattr(job, attr, now)
        if dst is JobState.RETRYING and reason is not None:
            job.failure_reason = reason
    job.state = dst
    return edge


#: Called after every applied transition: ``hook(job, src, dst, edge, now)``.
TransitionHook = Callable[["Job", JobState, JobState, str, float], None]


class TransitionEngine:
    """The single authority for job state changes in one grid.

    Keeps O(1) per-state bookkeeping (``counts`` and ``by_state`` id-sets
    over every registered job, both lists indexed by ``state.index``),
    applies each edge atomically with its field effects, runs the built-in
    guards, invokes registered hooks, and emits the edge's domain-trace
    record when a tracer is attached.

    Jobs are registered lazily on their first transition (so standalone
    sites and unit tests need no ceremony) or eagerly via :meth:`register`
    (the DAG driver registers WAITING jobs up front so conservation counts
    see them before release).
    """

    def __init__(self, sim: Optional["Simulator"] = None,
                 tracer: Optional["Tracer"] = None) -> None:
        self.sim = sim
        self.tracer = tracer
        self.counts: List[int] = [0] * len(JobState)
        self.by_state: List[Set[int]] = [set() for _ in JobState]
        self.jobs: Dict[int, "Job"] = {}
        #: Transitions applied over the engine's lifetime.
        self.transitions_applied = 0
        #: Post-transition observers (``hook(job, src, dst, edge, now)``).
        self.hooks: List[TransitionHook] = []
        #: Optional queue-deadline oracle (seconds; 0/None = no deadline).
        #: When set, the ``start`` edge enforces the no-starvation
        #: invariant: a processor grant can never postdate the deadline.
        self.deadline_of: Optional[Callable[["Job"], float]] = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def register(self, job: "Job") -> None:
        """Track ``job`` in its current state (idempotent per job id).

        A *different* Job object reusing an already-registered id
        supersedes the stale entry (grid runs assign unique ids; reuse
        only happens when unit tests rebuild jobs against one grid).
        """
        jid = job.job_id
        prev = self.jobs.get(jid)
        if prev is job:
            return
        if prev is not None:
            index = prev.state.index
            self.counts[index] -= 1
            self.by_state[index].discard(jid)
        self.jobs[jid] = job
        index = job.state.index
        self.counts[index] += 1
        self.by_state[index].add(jid)

    def jobs_in(self, state: JobState) -> List["Job"]:
        """The registered jobs currently in ``state`` (sorted by id)."""
        return [self.jobs[jid] for jid in sorted(self.by_state[state.index])]

    # -- the core edge -----------------------------------------------------

    def transition(self, job: "Job", dst: JobState,
                   reason: Optional[str] = None) -> str:
        """Move ``job`` along one declared edge; returns the edge name.

        Raises :class:`IllegalTransition` for an undeclared edge and
        :class:`LifecycleGuardError` when a built-in guard fails.
        """
        src = job.state
        now = self.now
        jid = job.job_id
        if self.jobs.get(jid) is not job:
            self.register(job)
        edge = apply_transition(job, dst, now, reason)
        if src is not dst:
            s = src.index
            d = dst.index
            self.counts[s] -= 1
            self.by_state[s].discard(jid)
            self.counts[d] += 1
            self.by_state[d].add(jid)
            if self.counts[s] < 0:
                raise LifecycleGuardError(
                    f"jobs-conserved: count for {src.value!r} went "
                    f"negative on job {jid} ({src.value} -> {dst.value})")
        self.transitions_applied += 1
        if dst is JobState.RUNNING and self.deadline_of is not None:
            self._guard_starvation(job, now)
        if self.hooks:
            for hook in self.hooks:
                hook(job, src, dst, edge, now)
        return edge

    def _guard_starvation(self, job: "Job", now: float) -> None:
        """No-starvation, enforced the instant a job starts computing:
        the processor grant must have landed within the queue deadline."""
        deadline = self.deadline_of(job)
        if (deadline and deadline > 0
                and job.queued_at is not None
                and job.processor_at is not None
                and job.processor_at - job.queued_at > deadline + _EPSILON):
            raise LifecycleGuardError(
                f"no-starvation: job {job.job_id} waited "
                f"{job.processor_at - job.queued_at:.3f} s for a processor "
                f"at {job.execution_site!r}, past its {deadline:g} s "
                f"deadline (t={now:.3f})")

    def audit(self, live_only: bool = False) -> List[str]:
        """Recount the incremental bookkeeping.

        Returns a list of problems (empty = consistent).  The full
        recount is O(jobs).  ``live_only`` checks each state's count
        against its id-set and each job in a non-terminal id-set against
        its state: O(states + live jobs).  It still finds every drift a
        state change can cause, engine-made or not, because the changed
        job was in a non-terminal set (a terminal job never changes state
        again).  The watchdog's periodic round runs it; its full check
        runs the whole recount.
        """
        problems: List[str] = []
        by_state = self.by_state
        if live_only:
            jobs = self.jobs
            for state in _LIVE_STATES:
                for jid in by_state[state.index]:
                    job = jobs.get(jid)
                    if job is None or job.state is not state:
                        problems.append(
                            f"job {jid} sits in the {state.value!r} set "
                            "but is "
                            + ("unregistered" if job is None
                               else job.state.value))
            recount = [len(ids) for ids in by_state]
        else:
            recount = [0] * len(JobState)
            for jid, job in self.jobs.items():
                index = job.state.index
                recount[index] += 1
                if jid not in by_state[index]:
                    problems.append(
                        f"job {jid} is {job.state.value} but missing from "
                        "its state set")
        for state, count, found in zip(JobState, self.counts, recount):
            if found != count:
                problems.append(
                    f"count for {state.value!r} is {count}, "
                    f"recount says {found}")
        total = sum(self.counts)
        if total != len(self.jobs):
            problems.append(
                f"state counts sum to {total} but {len(self.jobs)} jobs "
                "are registered")
        return problems

    # -- typed edges (each owns its trace emission) ------------------------

    def _emit(self, kind: str, **detail: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.now, kind, **detail)

    def submit(self, job: "Job") -> None:
        """WAITING -> READY: hand the job to the External Scheduler."""
        self.transition(job, JobState.READY)
        if self.tracer is not None:
            detail: Dict[str, Any] = dict(
                job=job.job_id, user=job.user, origin=job.origin_site,
                inputs=list(job.input_files), runtime_s=job.runtime_s)
            if job.depends_on:
                detail["deps"] = list(job.depends_on)
            self.tracer.emit(self.now, "job.submit", **detail)

    def dispatch(self, job: "Job", site: str,
                 attempt: Optional[int] = None) -> None:
        """READY -> DISPATCHED: the ES committed to ``site``."""
        job.execution_site = site
        self.transition(job, JobState.DISPATCHED)
        if self.tracer is not None:
            if attempt is None:
                self.tracer.emit(self.now, "job.dispatch", job=job.job_id,
                                 site=site)
            else:
                self.tracer.emit(self.now, "job.dispatch", job=job.job_id,
                                 site=site, attempt=attempt)

    def enqueue(self, job: "Job", site: str, waiting: int) -> None:
        """DISPATCHED -> FETCHING: arrived at the site, fetch starting."""
        self.transition(job, JobState.FETCHING)
        if self.tracer is not None:
            self.tracer.emit(self.now, "job.queue", job=job.job_id,
                             site=site, waiting=waiting)

    def data_ready(self, job: "Job", site: str, fetched_mb: float) -> None:
        """Record input-data availability (not a state change)."""
        job.data_ready_at = self.now
        job.fetched_mb = fetched_mb
        if self.tracer is not None:
            self.tracer.emit(self.now, "job.data_ready", job=job.job_id,
                             site=site, fetched_mb=fetched_mb)

    def start(self, job: "Job", site: str) -> None:
        """FETCHING -> RUNNING: compute phase begins."""
        self.transition(job, JobState.RUNNING)
        if self.tracer is not None:
            self.tracer.emit(self.now, "job.start", job=job.job_id,
                             site=site, runtime_s=job.runtime_s)

    def finish(self, job: "Job", site: str) -> None:
        """RUNNING -> DONE: the job completed."""
        self.transition(job, JobState.DONE)
        if self.tracer is not None:
            self.tracer.emit(self.now, "job.finish", job=job.job_id,
                             site=site, fetched_mb=job.fetched_mb)

    def expire(self, job: "Job", site: str, deadline_s: float) -> None:
        """FETCHING -> EXPIRED: the queue deadline passed first.

        A speculative backup can only win, so it retires along the
        preempt edge instead: its primary still carries the logical job.
        """
        reason = f"queue deadline ({deadline_s:g} s) exceeded at {site!r}"
        if job.speculative_of is not None:
            self.preempt(job, site, reason)
            return
        waited_s = self.now - (job.queued_at or 0.0)
        self.transition(job, JobState.EXPIRED, reason=reason)
        self._emit("job.expired", job=job.job_id, site=site,
                   deadline_s=deadline_s, waited_s=waited_s)

    def shed(self, job: "Job", reason: str) -> None:
        """READY -> SHED: admission refused (every candidate queue full)."""
        self.transition(job, JobState.SHED, reason=reason)
        self._emit("job.shed", job=job.job_id, deflections=job.deflections)

    def fail(self, job: "Job", reason: str) -> None:
        """READY/RETRYING -> FAILED: give up on the job permanently."""
        self.transition(job, JobState.FAILED, reason=reason)
        self._emit("job.fail", job=job.job_id, reason=job.failure_reason)

    def abandon(self, job: "Job", reason: str) -> None:
        """WAITING -> FAILED: a dependency ended badly (DAG cascade)."""
        self.transition(job, JobState.FAILED, reason=reason)
        self._emit("job.fail", job=job.job_id, reason=job.failure_reason)

    def kill(self, job: "Job", reason: str) -> None:
        """FETCHING/RUNNING -> RETRYING: the attempt was killed.

        Deliberately emits nothing — the supervisor's subsequent retry or
        fail edge is the traced outcome, exactly as before the engine.
        """
        self.transition(job, JobState.RETRYING, reason=reason)

    def preempt(self, job: "Job", site: str, reason: str) -> None:
        """FETCHING/RUNNING -> SPECULATED: an attempt retired mid-flight.

        The loser of a speculation race, or a backup past its queue
        deadline.  Another attempt carries the logical job's outcome; the
        loser is retired here so it is never retried and never
        double-counted.
        """
        self.transition(job, JobState.SPECULATED, reason=reason)
        self._emit_loser(job, site, reason)

    def concede(self, job: "Job", reason: str) -> None:
        """READY/RETRYING -> SPECULATED: an attempt with nothing in
        flight retires.

        A killed backup (backups are never retried), or an idle attempt
        of a family whose outcome another attempt just booked.
        """
        self.transition(job, JobState.SPECULATED, reason=reason)
        self._emit_loser(job, job.execution_site or "", reason)

    def _emit_loser(self, job: "Job", site: str, reason: str) -> None:
        if self.tracer is not None:
            primary = job.speculative_of
            self.tracer.emit(
                self.now, "job.preempted_loser", job=job.job_id, site=site,
                primary=job.job_id if primary is None else primary,
                reason=reason)

    def abandon_data_lost(self, job: "Job", dataset: str,
                          reason: str) -> None:
        """WAITING/READY/RETRYING -> ABANDONED_DATA_LOST.

        The durability layer declared ``dataset`` (one of the job's
        inputs) unrecoverably lost; the job is retired through its own
        terminal edge so conservation counts, retries, and failure
        accounting all stay honest.
        """
        self.transition(job, JobState.ABANDONED_DATA_LOST, reason=reason)
        self._emit("job.abandoned_data_lost", job=job.job_id,
                   dataset=dataset, reason=job.failure_reason)

    def retry(self, job: "Job") -> None:
        """RETRYING -> READY: rewind a killed attempt for re-dispatch."""
        self.transition(job, JobState.READY)
        self._emit("job.retry", job=job.job_id, retries=job.retries,
                   reason=job.failure_reason)

    def bounce(self, job: "Job", origin: str, site: str) -> None:
        """READY self-edge: misdirection recovery re-placed the job."""
        job.bounces += 1
        self.transition(job, JobState.READY)
        self._emit("job.bounced", job=job.job_id, origin=origin, site=site)

    def deflect(self, job: "Job", origin: str, site: str) -> None:
        """READY self-edge: saturation backpressure re-placed the job."""
        job.deflections += 1
        self.transition(job, JobState.READY)
        self._emit("job.deflected", job=job.job_id, origin=origin,
                   site=site, deflections=job.deflections)

    def redirect(self, job: "Job", chosen: str, fallback: str) -> None:
        """READY self-edge: the ES's choice was down; a fallback stands in."""
        self.transition(job, JobState.READY)
        self._emit("job.redirect", job=job.job_id, chosen=chosen,
                   fallback=fallback)

    def misdirected(self, job: "Job", site: str,
                    missing: List[str]) -> None:
        """Record a dispatch aimed at phantom replicas (no state change)."""
        self._emit("job.misdirected", job=job.job_id, site=site,
                   missing=missing)
