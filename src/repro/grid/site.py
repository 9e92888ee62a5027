"""A grid site: processors + storage + the job execution engine.

A site executes the jobs the External Scheduler assigns to it.  The flow
for one job (paper §3/§5.2):

1. On arrival the input-data fetch starts immediately ("the data transfer
   needed for a job starts while the job is still in the processor queue").
2. The job waits for a processor in the order the Local Scheduler decides
   (FIFO in the paper).
3. Once it holds a processor it waits (processor *idle*) until its input
   data is local — so completion time = max(queue, transfer) + compute,
   and Figure 4's idle metric includes the waiting-for-data component.
4. It computes for ``runtime_s`` seconds, releases the processor, and
   unpins its input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.grid.compute import ComputeElement
from repro.grid.datamover import DataMover, DataUnavailableError, RemoteReadMB
from repro.grid.job import Job
from repro.grid.lifecycle import TransitionEngine
from repro.grid.storage import StorageElement
from repro.sim.core import Simulator
from repro.sim.errors import Interrupt
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.base import LocalScheduler

#: Interrupt cause used to cancel the losing attempt of a speculation
#: race.  :meth:`Site._unwind` routes this cause to the dedicated
#: ``SPECULATED`` terminal edge instead of the kill/retry path.
_PREEMPT_CAUSE = "speculation loser"


class _Attempt:
    """Cleanup bookkeeping for one fault-mode execution attempt.

    Records exactly which resources the attempt holds at any yield point
    so an :class:`~repro.sim.errors.Interrupt` (site failure) or a
    :class:`~repro.grid.datamover.DataUnavailableError` can be unwound
    without leaking processors, pins, or in-flight fetches.  Null-mode
    executions pass ``attempt=None`` and skip all of this.
    """

    __slots__ = ("fetch", "fetch_name", "pinned", "computing")

    def __init__(self) -> None:
        self.fetch: Optional[Process] = None
        self.fetch_name: Optional[str] = None
        self.pinned: List[str] = []
        self.computing = False


class Site:
    """One site: name, compute element, storage element, local scheduler."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        compute: ComputeElement,
        storage: StorageElement,
        datamover: DataMover,
        local_scheduler: "LocalScheduler",
    ) -> None:
        self.sim = sim
        self.name = name
        self.compute = compute
        self.storage = storage
        self.datamover = datamover
        self.local_scheduler = local_scheduler
        #: Jobs completed at this site (metrics).
        self.jobs_completed: int = 0
        #: Jobs currently assigned here and not finished.
        self.jobs_in_system: int = 0
        #: Observers called with each completed job.
        self.completion_listeners: List[Callable[[Job], None]] = []
        #: Job outputs that could not be stored locally (storage full of
        #: pinned files) and were discarded — a model-pressure indicator.
        self.outputs_dropped: int = 0
        #: Output datasets written here (name → Dataset).
        self.outputs: Dict[str, "Dataset"] = {}
        # Dispatcher state (only used when the LS runs in dispatch mode).
        self._pending: List = []
        self._free_processors = compute.n_processors
        #: Fault injector (None = fault-free; every hot path is gated on
        #: this staying None so a no-fault run is bitwise-identical).
        self.faults = None
        #: Domain-event tracer (None = tracing off; one attribute check).
        self.tracer = None
        #: Alive execution processes, tracked only in fault mode so
        #: :meth:`fail_site` can kill them.  An insertion-ordered dict, not
        #: a set: Process hashes by id, and interrupt order must not depend
        #: on memory layout or a run stops being reproducible.
        self._alive: Dict[Process, None] = {}
        #: job id -> its live execution process, for targeted preemption
        #: (speculation races).  Maintained alongside ``_alive``.
        self._attempts_by_job: Dict[int, Process] = {}
        #: Overload policy, installed by the grid when an
        #: :class:`~repro.grid.overload.OverloadPolicy` is active.
        #: ``None`` keeps execution on the exact pre-overload code paths
        #: (no deadlines, no aging, unpin-by-input-list).
        self.overload = None
        #: Observed-health monitor (``None`` = off; installed by the
        #: grid when a :class:`~repro.grid.health.HealthPolicy` is
        #: active).  Its only effect here is that attempts become
        #: trackable/preemptable even without a fault plan.
        self.health = None
        #: High-water mark of the waiting-job count (metrics; tracked
        #: unconditionally — max() never changes behaviour).
        self.peak_queue_depth = 0
        #: The job-lifecycle engine this site drives jobs through.  A
        #: grid-wired site shares its grid's engine (assigned by
        #: :class:`~repro.grid.grid.DataGrid`); a standalone site gets a
        #: private one so unit-level use needs no ceremony.
        self.lifecycle = TransitionEngine(sim)

    def __repr__(self) -> str:
        return (f"<Site {self.name} load={self.load} "
                f"busy={self.compute.busy}/{self.compute.n_processors}>")

    @property
    def load(self) -> int:
        """The paper's load definition: number of jobs waiting to run."""
        if self.local_scheduler.dispatches:
            return len(self._pending)
        return self.compute.waiting

    def enqueue(self, job: Job) -> Process:
        """Accept a dispatched job; returns the execution process.

        The returned process triggers when the job completes (its value is
        the job), so users can wait for their sequential submissions.
        """
        self.jobs_in_system += 1
        engine = self.lifecycle
        # The queue depth is read only for the ``job.queue`` record.
        engine.enqueue(job, self.name, waiting=(
            self.load if engine.tracer is not None else 0))
        # Start prefetching every input right away (unpinned, best-effort):
        # "the data transfer needed for a job starts while the job is still
        # in the processor queue".  The authoritative, pinned fetch happens
        # once the job holds a processor, so pinned space is bounded by the
        # processor count and storage can never deadlock on queued jobs.
        prefetches = [
            self.datamover.ensure_local(self.name, fname, pin=False,
                                        best_effort=True)
            for fname in job.input_files
        ]
        if self.local_scheduler.dispatches:
            process = self._enqueue_dispatched(job, prefetches)
            self._note_queue_depth()
            return process
        # Issue the processor request synchronously so the site's load (the
        # paper's "jobs waiting to run") reflects this job immediately —
        # schedulers polling the information service in the same instant
        # must see it.
        priority = self.local_scheduler.priority(job)
        if (priority is not None and self.overload is not None
                and self.overload.aging_factor > 0):
            # Linear starvation aging, folded into a constant key: credit
            # grows uniformly with wait time for everyone, so the pairwise
            # order of two queued jobs is fixed once both are enqueued —
            # equivalent to `base - factor*(now - enqueued_at)` aging, but
            # with zero re-sorting.  Later arrivals pay a growing penalty,
            # so an old large job cannot be overtaken forever.
            priority += int(self.overload.aging_factor * self.sim.now * 1000)
        if priority is None:
            request = self.compute.acquire()
        else:
            request = self.compute.acquire(priority=priority)
        attempt = (_Attempt() if (self.faults is not None
                                  or self.health is not None) else None)
        process = self.sim.process(
            self._execute(job, request, prefetches, attempt),
            name=f"job{job.job_id}@{self.name}")
        if attempt is not None:
            self._track(process, job)
        self._note_queue_depth()
        return process

    def _note_queue_depth(self) -> None:
        depth = self.load
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def _deadline_of(self, job: Job) -> float:
        """The job's queue deadline in seconds (0 = none)."""
        if self.overload is None:
            return 0.0
        if job.deadline_s is not None:
            return job.deadline_s
        return self.overload.job_deadline_s

    def _expire(self, job: Job, deadline: float) -> None:
        """Terminal queue-deadline expiry."""
        self.jobs_in_system -= 1
        self.lifecycle.expire(job, self.name, deadline)

    def _track(self, process: Process, job: Job) -> None:
        self._alive[process] = None
        self._attempts_by_job[job.job_id] = process

        def _done(_ev) -> None:
            self._alive.pop(process, None)
            if self._attempts_by_job.get(job.job_id) is process:
                del self._attempts_by_job[job.job_id]

        process.callbacks.append(_done)

    def preempt_attempt(self, job: Job) -> bool:
        """Cancel the job's live attempt here (speculation race lost).

        The interrupt is delivered at urgent priority, so the loser
        unwinds (releasing its processor, pins, and fetch) before any
        same-time normal event — in particular before a run-stop
        triggered by the winner's completion.  Returns False when no
        live attempt exists (already finished, or never tracked).
        """
        process = self._attempts_by_job.get(job.job_id)
        if process is None or not process.is_alive:
            return False
        process.interrupt(_PREEMPT_CAUSE)
        return True

    def fail_site(self) -> None:
        """Site outage: kill every queued and running job here.

        Dispatch-mode queue entries are dropped (their grants will never
        fire) and every execution process is interrupted; each unwinds its
        own held resources and returns its (incomplete) job so the grid's
        recovery supervisor can re-dispatch it elsewhere.
        """
        self._pending.clear()
        for process in [p for p in self._alive if p.is_alive]:
            process.interrupt("site failure")

    # -- dispatch-mode path (data-aware local schedulers) ----------------------

    def _enqueue_dispatched(self, job: Job, prefetches) -> Process:
        from repro.scheduling.base import QueuedJob
        from repro.sim.events import Event

        ready = self.sim.all_of(prefetches)
        grant = Event(self.sim)
        entry = QueuedJob(job, self.sim.now, ready)
        self._pending.append((entry, grant))
        # A data arrival can unblock a better dispatch choice.
        ready.callbacks.append(lambda _ev: self._try_dispatch())
        attempt = (_Attempt() if (self.faults is not None
                                  or self.health is not None) else None)
        process = self.sim.process(
            self._execute_dispatched(job, grant, ready, attempt, entry),
            name=f"job{job.job_id}@{self.name}")
        if attempt is not None:
            self._track(process, job)
        self._try_dispatch()
        return process

    def _try_dispatch(self) -> None:
        while self._free_processors > 0 and self._pending:
            entries = [entry for entry, _ in self._pending]
            index = self.local_scheduler.pick(entries, self.sim.now)
            if index is None:
                return  # nothing worth running yet; re-asked on events
            if not 0 <= index < len(self._pending):
                raise ValueError(
                    f"{self.local_scheduler!r} picked invalid index "
                    f"{index} of {len(self._pending)} pending jobs")
            entry, grant = self._pending.pop(index)
            if self.tracer is not None:
                self.tracer.emit(
                    self.sim.now, "ls.pick", ls=self.local_scheduler.name,
                    site=self.name, job=entry.job.job_id,
                    pending=len(self._pending) + 1)
            self._free_processors -= 1
            grant.succeed()

    def _execute_dispatched(self, job: Job, grant, ready, attempt=None,
                            entry=None):
        pinned = [] if self.overload is not None else None
        try:
            deadline = self._deadline_of(job)
            if deadline > 0:
                # Race the grant against the queue deadline.  A tie at the
                # same instant goes to execution (the grant has already
                # triggered when we wake).
                expiry = self.sim.timeout(deadline)
                yield self.sim.any_of([grant, expiry])
                if not grant.triggered:
                    # Withdraw from the pending queue by identity so
                    # _try_dispatch can never grant the dead entry.
                    for index, (pending_entry, _g) in enumerate(self._pending):
                        if pending_entry is entry:
                            del self._pending[index]
                            break
                    self._expire(job, deadline)
                    return job
            else:
                yield grant
            job.processor_at = self.sim.now

            prefetched = yield ready
            fetched_mb = sum(prefetched.values())
            fetched_mb += yield from self._fetch_inputs(job, attempt, pinned)
            self.lifecycle.data_ready(job, self.name, fetched_mb)

            self.lifecycle.start(job, self.name)
            for fname in job.input_files:
                # Under overload a remote-read input was never stored,
                # and under durability a quarantine may have removed an
                # input between its fetch and here — nothing to touch
                # or count then.
                if ((self.overload is None
                        and self.datamover.durability is None)
                        or fname in self.storage):
                    self.storage.record_access(fname, self.sim.now)
            if attempt is not None:
                attempt.computing = True
            self.compute.compute_started()
            yield self.sim.timeout(job.runtime_s)
            self.compute.compute_finished()
            if attempt is not None:
                attempt.computing = False
        except (Interrupt, DataUnavailableError) as err:
            if attempt is None:
                raise
            # Return the processor slot iff one was ever granted (the
            # remaining steps after the compute yield are synchronous, so
            # a granted slot cannot have been returned twice).
            if grant.triggered:
                self._free_processors += 1
                self._try_dispatch()
            self._unwind(job, attempt, err)
            return job

        if job.output_size_mb > 0:
            self._store_output(job)

        self._free_processors += 1
        self._try_dispatch()
        for fname in (job.input_files if pinned is None else pinned):
            self.storage.unpin(fname)
        self.lifecycle.finish(job, self.name)
        self.jobs_in_system -= 1
        self.jobs_completed += 1
        for listener in self.completion_listeners:
            listener(job)
        return job

    def _execute(self, job: Job, request, prefetches, attempt=None):
        pinned = [] if self.overload is not None else None
        try:
            # 1. Wait for a processor, in LS-decided order — racing the
            #    queue deadline when one is set.  A tie at the same
            #    instant goes to execution.
            deadline = self._deadline_of(job)
            if deadline > 0:
                expiry = self.sim.timeout(deadline)
                yield self.sim.any_of([request, expiry])
                if not request.triggered:
                    # Releasing an ungranted request cancels it, so the
                    # processor can never be granted to the dead job.
                    self.compute.release(request)
                    self._expire(job, deadline)
                    return job
            else:
                yield request
            job.processor_at = self.sim.now

            # 2. Hold the processor until the input data is local and
            #    pinned.  Usually the prefetch already landed (or is joined
            #    in flight) and this is instantaneous.
            prefetched = yield self.sim.all_of(prefetches)
            fetched_mb = sum(prefetched.values())
            fetched_mb += yield from self._fetch_inputs(job, attempt, pinned)
            self.lifecycle.data_ready(job, self.name, fetched_mb)

            # 3. Compute.
            self.lifecycle.start(job, self.name)
            for fname in job.input_files:
                # Under overload a remote-read input was never stored,
                # and under durability a quarantine may have removed an
                # input between its fetch and here — nothing to touch
                # or count then.
                if ((self.overload is None
                        and self.datamover.durability is None)
                        or fname in self.storage):
                    self.storage.record_access(fname, self.sim.now)
            if attempt is not None:
                attempt.computing = True
            self.compute.compute_started()
            yield self.sim.timeout(job.runtime_s)
            self.compute.compute_finished()
            if attempt is not None:
                attempt.computing = False
        except (Interrupt, DataUnavailableError) as err:
            if attempt is None:
                raise
            # Release covers every request state: granted (returns the
            # slot, grants the next waiter) and still-queued (cancels).
            self.compute.release(request)
            self._unwind(job, attempt, err)
            return job

        # 4. Write the output (stored locally, never transferred — §5.1
        #    ignores output transfer costs; the bytes still occupy the
        #    site's LRU-managed storage when output modelling is on).
        if job.output_size_mb > 0:
            self._store_output(job)

        # 5. Clean up.
        self.compute.release(request)
        for fname in (job.input_files if pinned is None else pinned):
            self.storage.unpin(fname)
        self.lifecycle.finish(job, self.name)
        self.jobs_in_system -= 1
        self.jobs_completed += 1
        for listener in self.completion_listeners:
            listener(job)
        return job

    def _fetch_inputs(self, job: Job, attempt, pinned=None):
        """Pin every input locally; fault mode tracks the in-flight fetch.

        ``pinned`` (overload mode) collects the names actually pinned:
        a fetch degraded to a remote read (:class:`RemoteReadMB`) stored
        and pinned nothing, so completion must not unpin it.
        """
        fetched_mb = 0.0
        for fname in job.input_files:
            if attempt is None:
                moved = yield self.datamover.ensure_local(
                    self.name, fname, pin=True)
                fetched_mb += moved
                if pinned is not None and not isinstance(moved, RemoteReadMB):
                    pinned.append(fname)
                continue
            attempt.fetch = self.datamover.ensure_local(
                self.name, fname, pin=True)
            attempt.fetch_name = fname
            moved = yield attempt.fetch
            fetched_mb += moved
            attempt.fetch = None
            attempt.fetch_name = None
            if not isinstance(moved, RemoteReadMB):
                attempt.pinned.append(fname)
                if pinned is not None:
                    pinned.append(fname)
        return fetched_mb

    def _unwind(self, job: Job, attempt, err) -> None:
        """Undo everything a killed execution attempt still holds."""
        if attempt.computing:
            self.compute.compute_aborted()
            attempt.computing = False
        for fname in attempt.pinned:
            self.storage.unpin(fname)
        attempt.pinned = []
        if attempt.fetch is not None:
            self._settle_orphan_fetch(attempt.fetch, attempt.fetch_name)
            attempt.fetch = None
            attempt.fetch_name = None
        self.jobs_in_system -= 1
        if isinstance(err, Interrupt) and err.cause == _PREEMPT_CAUSE:
            # Speculation loser: absorbing terminal edge, not a retry.
            self.lifecycle.preempt(job, self.name, _PREEMPT_CAUSE)
        else:
            self.lifecycle.kill(job, str(err) or type(err).__name__)

    def _settle_orphan_fetch(self, fetch: Process, fname: str) -> None:
        """Tie off a pinned fetch whose job was killed mid-wait.

        The fetch process keeps running in the background; if it lands it
        will pin the file for a job that no longer exists, so unpin on
        success.  On failure, defuse — nobody waits on it anymore.
        """
        storage = self.storage

        def settle(event) -> None:
            if event.ok:
                # A remote read pinned nothing; there is nothing to undo.
                if not isinstance(event.value, RemoteReadMB):
                    storage.unpin(fname)
            else:
                event.defuse()

        if fetch.processed:
            if fetch.ok and not isinstance(fetch.value, RemoteReadMB):
                storage.unpin(fname)
        else:
            fetch.callbacks.append(settle)

    def _store_output(self, job: Job) -> None:
        """Write the job's output file into local storage (best effort)."""
        from repro.grid.files import Dataset
        from repro.grid.storage import StorageFullError

        output = Dataset(f"output-job{job.job_id}", job.output_size_mb)
        try:
            self.storage.add(output, self.sim.now, pin=False)
        except StorageFullError:
            # A site whose storage is entirely pinned simply loses the
            # output; real grids stage such outputs to tape/elsewhere.
            self.outputs_dropped += 1
            return
        # Outputs are registered as replicas but kept out of the shared
        # (workload-owned, reusable) DatasetCollection; no job ever reads
        # another job's output in this model.
        self.outputs[output.name] = output
        self.datamover.catalog.register(output.name, self.name)
