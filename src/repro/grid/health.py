"""Observed failure detection: heartbeats, breakers, and speculation.

The fault layer gives the schedulers *oracle* knowledge: the instant a
site dies, the information service stops advertising it.  Real grids
only ever observe failure — a heartbeat that stops arriving, a transfer
that times out, a dispatch hand-off that bounces.  This module closes
that gap with three cooperating mechanisms, bundled (like
:class:`~repro.grid.overload.OverloadPolicy` for saturation) into one
frozen :class:`HealthPolicy`:

* **Heartbeat failure detector** — every site emits heartbeats; a
  detector tracks the inter-arrival history and computes a phi-style
  suspicion level (elapsed silence over the windowed mean interval).
  Crossing ``phi_threshold`` raises a *suspicion*: no oracle is
  consulted, so detection has latency and (with heartbeat jitter and a
  tight threshold) measurable false positives.  A beat changes nothing
  but its own site's detector state, so no kernel event carries it:
  each site keeps a cursor (its stream, its next beat, and when that
  beat's timeout would have been created), and the beats due are
  replayed where something reads or changes what a beat sees — the
  detector tick, a re-admission, and every reachability change the
  fault injector makes (see :meth:`HealthMonitor.replay_beats`).
* **Circuit breakers** — one per site and one per used link::

      CLOSED --suspicion / repeated failures--> OPEN
      OPEN --probe scheduled (backoff)--> HALF_OPEN
      HALF_OPEN --probe ok x probe_successes--> CLOSED
      HALF_OPEN --probe failed--> OPEN

  An open *site* breaker hides the site from the information service
  (quarantine: External Scheduler candidate sets and Dataset Scheduler
  replication targets both shrink); an open *link* breaker deprioritizes
  that source for replica fetches.  With ``observed_only`` the oracle
  channel is cut entirely: outages never mark sites down in the
  information service, and the detector + breakers are the only way the
  schedulers learn about failure.
* **Speculative backup execution** — a scanner watches FETCHING/RUNNING
  jobs; one whose attempt age exceeds ``speculate_multiplier`` × the
  ``speculate_quantile`` completed-duration quantile gets a *backup
  clone* dispatched to another site.  A logical job has at most one live
  backup at a time; a primary whose backup died alone may get another.
  The attempts of one logical job form a *family*, and its one outcome
  follows one rule: **a backup can only win.**  A backup ends DONE or
  retires into the ``SPECULATED`` terminal state (preempted, killed, or
  past its queue deadline).  Whichever attempt reaches DONE retires
  every other live attempt.  A primary that can no longer carry the job
  (retries exhausted, input lost, shed, every site gone) first waits for
  its live backup's race (:meth:`HealthMonitor.race`) and books its own
  outcome only if the backup did not win; a primary past its queue
  deadline cannot wait, so its expiry retires the live backup.

Every knob defaults *off*: a grid built without a policy (or with a null
one) takes the exact pre-health code paths, keeping the committed golden
trace digests bitwise-identical.  Enabled runs draw all randomness from
the dedicated ``"health"`` stream (per-site heartbeat sub-streams in
sorted site order, one shared probe-jitter stream), so they stay
deterministic at any worker count.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.faults.backoff import BackoffPolicy
from repro.grid.job import Job
from repro.grid.lifecycle import TERMINAL_STATES, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.network.transfer import Transfer
    from repro.sim.core import Simulator
    from repro.sim.process import Process

#: Breaker states.  Strings, not an enum: they go straight into trace
#: detail fields and watchdog messages.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: First backup-clone job id.  Far above any workload generator's range,
#: so clone ids can never collide with primaries.
SPECULATIVE_ID_BASE = 1_000_000_000

# A replayed beat due at exactly a step's instant runs first when the
# kernel would have run it first: events of one (time, priority) bucket
# run in the order their timeouts were created, so a step is ranked by
# (creation time, rank) against a beat's (creation time, _BEAT).  Faults
# install before health, so at one creation instant a fault step's
# timeout precedes a beat's, and a beat's precedes the detector's.
_FAULT_STEP = 0
_BEAT = 1
_HEALTH_STEP = 2
#: Ranks after every beat due now: a re-admission overwrites what a beat
#: at its instant would leave, so either order gives the same state.
_AFTER_EVERY_BEAT = (float("inf"), _HEALTH_STEP)


@dataclass(frozen=True)
class HealthPolicy:
    """Observed-health policy for one grid.

    Attributes
    ----------
    heartbeat_interval_s:
        Nominal spacing of each site's heartbeats.  0 = the detector,
        breakers, and probers are all off.
    heartbeat_jitter:
        Fractional spread in ``[0, 1)`` applied to each heartbeat gap
        (seeded per-site streams).  Nonzero jitter makes a tight
        ``phi_threshold`` produce measurable false positives.
    phi_threshold:
        Suspicion trips when the silence since the last heartbeat
        exceeds this multiple of the windowed mean inter-arrival time.
    detector_window:
        Inter-arrival samples kept per site for the mean.
    probe_interval_s / probe_backoff_cap_s / probe_jitter:
        Half-open probe schedule: capped exponential backoff between
        probes (:class:`~repro.faults.backoff.BackoffPolicy`), with
        optional seeded jitter to break probe synchronization.
    probe_successes:
        Consecutive successful probes required to close a breaker
        (hysteresis against flapping sites).
    link_failure_threshold:
        Consecutive transfer failures on one link before its breaker
        opens.  Any transfer success on the link closes it again.
    observed_only:
        Cut the oracle channel: fault-injector outages no longer mark
        sites down in the information service — the detector is the only
        source of site-health knowledge.  Requires heartbeats.
    speculate_quantile:
        Completed-duration quantile defining "normal" attempt age
        (e.g. 0.9).  0 = speculation off.
    speculate_multiplier:
        Straggler threshold = multiplier × the quantile duration.
    speculate_min_samples:
        Completed durations required before any speculation happens.
    speculate_check_interval_s:
        Straggler scanner period.
    """

    heartbeat_interval_s: float = 0.0
    heartbeat_jitter: float = 0.0
    phi_threshold: float = 3.0
    detector_window: int = 8
    probe_interval_s: float = 30.0
    probe_backoff_cap_s: float = 240.0
    probe_jitter: float = 0.0
    probe_successes: int = 2
    link_failure_threshold: int = 3
    observed_only: bool = False
    speculate_quantile: float = 0.0
    speculate_multiplier: float = 2.0
    speculate_min_samples: int = 5
    speculate_check_interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s < 0:
            raise ValueError(
                f"heartbeat interval must be >= 0, "
                f"got {self.heartbeat_interval_s!r}")
        if not 0.0 <= self.heartbeat_jitter < 1.0:
            raise ValueError(
                f"heartbeat jitter must be in [0, 1), "
                f"got {self.heartbeat_jitter!r}")
        if self.phi_threshold <= 1.0:
            raise ValueError(
                f"phi threshold must be > 1 (a beat is due every mean "
                f"interval), got {self.phi_threshold!r}")
        if self.detector_window < 1:
            raise ValueError(
                f"detector window must be >= 1, "
                f"got {self.detector_window!r}")
        if self.probe_interval_s <= 0:
            raise ValueError(
                f"probe interval must be > 0, got {self.probe_interval_s!r}")
        if self.probe_backoff_cap_s < self.probe_interval_s:
            raise ValueError(
                f"probe backoff cap ({self.probe_backoff_cap_s!r}) must "
                f"be >= the probe interval ({self.probe_interval_s!r})")
        if not 0.0 <= self.probe_jitter < 1.0:
            raise ValueError(
                f"probe jitter must be in [0, 1), got {self.probe_jitter!r}")
        if self.probe_successes < 1:
            raise ValueError(
                f"probe successes must be >= 1, "
                f"got {self.probe_successes!r}")
        if self.link_failure_threshold < 1:
            raise ValueError(
                f"link failure threshold must be >= 1, "
                f"got {self.link_failure_threshold!r}")
        if self.observed_only and self.heartbeat_interval_s == 0:
            raise ValueError(
                "observed_only cuts the oracle channel, so it needs the "
                "heartbeat detector: set heartbeat_interval_s > 0")
        if not 0.0 <= self.speculate_quantile < 1.0:
            raise ValueError(
                f"speculation quantile must be in [0, 1), "
                f"got {self.speculate_quantile!r}")
        if self.speculate_multiplier < 1.0:
            raise ValueError(
                f"speculation multiplier must be >= 1, "
                f"got {self.speculate_multiplier!r}")
        if self.speculate_min_samples < 1:
            raise ValueError(
                f"speculation min samples must be >= 1, "
                f"got {self.speculate_min_samples!r}")
        if self.speculate_check_interval_s <= 0:
            raise ValueError(
                f"speculation check interval must be > 0, "
                f"got {self.speculate_check_interval_s!r}")

    @property
    def is_null(self) -> bool:
        """True when no mechanism is armed (grid runs pre-health paths)."""
        return (self.heartbeat_interval_s == 0
                and self.speculate_quantile == 0)


class HealthStats:
    """Shared mutable health counters for one grid run.

    Plain attributes, no simulator events — updating a counter can never
    perturb event order.  The ``false_suspicions`` / detection-latency
    fields are the *only* place the health layer reads oracle state, and
    they feed metrics exclusively, never behavior.
    """

    __slots__ = (
        "suspicions",
        "false_suspicions",
        "detections",
        "detection_latency_total_s",
        "breaker_trips",
        "breaker_restores",
        "probes",
        "speculative_launched",
        "speculative_losers",
        "speculative_wasted_s",
    )

    def __init__(self) -> None:
        #: Detector suspicions raised (phi threshold crossings).
        self.suspicions = 0
        #: Suspicions raised against a site that was actually reachable.
        self.false_suspicions = 0
        #: Suspicions that detected a genuinely unreachable site.
        self.detections = 0
        #: Sum over detections of (suspicion time - unreachable-since).
        self.detection_latency_total_s = 0.0
        #: Breakers opened (site + link).
        self.breaker_trips = 0
        #: Breakers closed again (site + link).
        self.breaker_restores = 0
        #: Half-open probes attempted.
        self.probes = 0
        #: Backup clones dispatched.
        self.speculative_launched = 0
        #: Attempts retired through the SPECULATED edge.
        self.speculative_losers = 0
        #: Attempt-time thrown away by preempted losers.
        self.speculative_wasted_s = 0.0

    @property
    def false_positive_rate(self) -> float:
        """Fraction of suspicions that were wrong (0 when none raised)."""
        return (self.false_suspicions / self.suspicions
                if self.suspicions else 0.0)

    @property
    def mean_detection_latency_s(self) -> float:
        """Mean silence-to-suspicion lag for real failures."""
        return (self.detection_latency_total_s / self.detections
                if self.detections else 0.0)


class CircuitBreaker:
    """One breaker: state plus the counters its transitions consult."""

    __slots__ = ("state", "failures", "probe_successes")

    def __init__(self) -> None:
        self.state = CLOSED
        #: Consecutive observed failures while closed (link breakers).
        self.failures = 0
        #: Consecutive successful probes while half-open (site breakers).
        self.probe_successes = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CircuitBreaker {self.state} failures={self.failures}>"


class _BeatCursor:
    """One site's heartbeat stream, replayed on demand.

    ``due`` is the time of the site's next beat and ``created`` the time
    that beat's timeout would have been created: the previous beat's
    time, or the install time for the first beat.
    """

    __slots__ = ("site", "rng", "due", "created")

    def __init__(self, site: str, rng: random.Random, due: float,
                 created: float) -> None:
        self.site = site
        self.rng = rng
        self.due = due
        self.created = created


class HealthMonitor:
    """Drives observed failure detection for one wired grid.

    Owns the heartbeat cursors, the detector, every breaker, the
    half-open probers, and the speculation manager.  Constructed and
    installed by :meth:`~repro.grid.grid.DataGrid.create` when a non-null
    :class:`HealthPolicy` is given.
    """

    def __init__(self, sim: "Simulator", grid: "DataGrid",
                 policy: HealthPolicy,
                 rng: Optional[random.Random] = None) -> None:
        if policy.is_null:
            raise ValueError(
                "null health policy: build the grid without a monitor")
        self.sim = sim
        self.grid = grid
        self.policy = policy
        self.rng = rng or random.Random(0)
        self.stats = HealthStats()
        self.tracer = None
        #: Per-site breakers (all sites, created up front in sorted order).
        self.site_breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker() for name in sorted(grid.sites)}
        #: Per-link breakers, keyed by the sorted endpoint pair (lazy:
        #: only links that ever fail get one).
        self.link_breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        # Detector state: last beat seen and the inter-arrival window.
        # Seeding last-beat at t=0 means a site that is dead from the
        # start (and so never beats) is still detectable.
        self._last_beat: Dict[str, float] = {
            name: 0.0 for name in sorted(grid.sites)}
        self._intervals: Dict[str, Deque[float]] = {
            name: deque(maxlen=policy.detector_window)
            for name in sorted(grid.sites)}
        #: Per-site heartbeat cursors, in sorted site order (empty until
        #: :meth:`install` starts the heartbeats).
        self._beats: Dict[str, _BeatCursor] = {}
        # Shared probe-jitter stream, drawn before the per-site heartbeat
        # sub-streams so the draw order is fixed.
        self._probe_rng = random.Random(self.rng.randrange(2 ** 62))
        self._probe_backoff = BackoffPolicy(
            policy.probe_interval_s, policy.probe_backoff_cap_s,
            jitter=policy.probe_jitter)
        # Speculation state.
        self._clone_ids = itertools.count(SPECULATIVE_ID_BASE)
        #: Speculation families: primary id -> the logical job's attempts
        #: in launch order (the primary, then each backup cloned from it).
        self.families: Dict[int, List[Job]] = {}
        #: primary id -> the race of its live backup (see :meth:`race`).
        #: A primary with a live backup gets no second one.
        self._races: Dict[int, "Process"] = {}
        #: Completed attempt durations, the straggler threshold's sample
        #: population.  Both they and an attempt's age run from when it
        #: got its processor (``job.processor_at``, None while queued), so
        #: queue wait is excluded on both sides of the comparison and a
        #: backlog of healthy queued jobs never looks like stragglers
        #: (queue pressure is the overload layer's domain, not this one's).
        self._durations: List[float] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wire the monitor into the grid and spawn its processes."""
        grid = self.grid
        grid.health = self
        grid.datamover.health = self
        self.tracer = grid.tracer
        for site in grid.sites.values():
            site.health = self
        grid.transfers.on_abort.append(self._on_transfer_abort)
        if self.policy.heartbeat_interval_s > 0:
            self._start_heartbeats()
            self.sim.process(self._detector_loop(), name="health:detector")
        if self.policy.speculate_quantile > 0:
            grid.lifecycle.hooks.append(self._on_transition)
            self.sim.process(self._straggler_loop(),
                             name="health:speculator")

    def _emit(self, kind: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, kind, **detail)

    # -- gating queries (the hot-path surface) ------------------------------

    def allows(self, site: str) -> bool:
        """Whether dispatch/replication may target the site (breaker
        closed).  Half-open admits only the prober, not real work."""
        return self.site_breakers[site].state is CLOSED

    #: The same gate under its old name, which perfbench's span table
    #: still wraps; callers in the simulator use :meth:`allows`.
    allow_replication = allows

    def link_open(self, a: str, b: str) -> bool:
        """Whether the a--b link breaker is currently open."""
        breaker = self.link_breakers.get((a, b) if a <= b else (b, a))
        return breaker is not None and breaker.state is OPEN

    # -- heartbeats and detection -------------------------------------------

    def _reachable(self, site: str) -> bool:
        faults = self.grid.faults
        return faults is None or faults.is_reachable(site)

    def _beat_wait(self, rng: random.Random) -> float:
        """The gap to a site's next beat (one jitter draw when armed)."""
        wait = self.policy.heartbeat_interval_s
        jitter = self.policy.heartbeat_jitter
        if jitter > 0:
            wait *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
        return wait

    def _start_heartbeats(self) -> None:
        # Per-site heartbeat sub-streams drawn in sorted order:
        # deterministic and independent of later interleaving.
        now = self.sim.now
        for name in sorted(self.grid.sites):
            rng = random.Random(self.rng.randrange(2 ** 62))
            self._beats[name] = _BeatCursor(
                name, rng, now + self._beat_wait(rng), now)

    def _replay(self, cursor: _BeatCursor, now: float,
                step: Optional[Tuple[float, int]]) -> None:
        """Replay the cursor's beats that run before a step at ``now``.

        Beats due before ``now`` all ran earlier.  A beat due at ``now``
        runs first only if its ``(created, _BEAT)`` ranks below ``step``;
        ``step=None`` (a direct call from outside the kernel) runs before
        every beat due now.
        """
        site = cursor.site
        faults = self.grid.faults
        last_beat = self._last_beat
        while cursor.due < now or (
                cursor.due == now and step is not None
                and (cursor.created, _BEAT) < step):
            beat = cursor.due
            # An unreachable site's beat is lost on the wire.
            if faults is None or faults.is_reachable(site):
                last = last_beat[site]
                if beat > last:
                    self._intervals[site].append(beat - last)
                last_beat[site] = beat
            cursor.created = beat
            cursor.due = beat + self._beat_wait(cursor.rng)

    def replay_beats(self, site: str,
                     scheduled_at: Optional[float] = None) -> None:
        """Replay ``site``'s beats that run before a reachability change.

        The fault injector calls this just before it changes whether the
        site is reachable, so each replayed beat sees the state it would
        have seen live.  ``scheduled_at`` is when the fault step's timeout
        was created; None (a direct call) changes the state before any
        beat due now.
        """
        cursor = self._beats.get(site)
        if cursor is not None:
            self._replay(cursor, self.sim.now,
                         None if scheduled_at is None
                         else (scheduled_at, _FAULT_STEP))

    def _detector_loop(self):
        interval = self.policy.heartbeat_interval_s
        names = sorted(self.grid.sites)
        cursors = list(self._beats.values())
        while True:
            scheduled = self.sim.now
            yield self.sim.timeout(interval)
            now = self.sim.now
            step = (scheduled, _HEALTH_STEP)
            for cursor in cursors:
                if cursor.due <= now:
                    self._replay(cursor, now, step)
            for site in names:
                if self.site_breakers[site].state is not CLOSED:
                    continue  # already suspected; the prober owns it
                elapsed = now - self._last_beat[site]
                window = self._intervals[site]
                mean = (sum(window) / len(window) if window
                        else interval)
                if mean <= 0:  # pragma: no cover - defensive
                    mean = interval
                phi = elapsed / mean
                if phi >= self.policy.phi_threshold:
                    self._suspect_site(site, phi)

    def _suspect_site(self, site: str, phi: float) -> None:
        stats = self.stats
        stats.suspicions += 1
        self._emit("health.suspect", site=site, phi=round(phi, 3))
        # Oracle reads below feed *metrics only*: whether the suspicion
        # was right, and how late it came.  Behavior never branches on
        # them.
        faults = self.grid.faults
        if faults is None or self._reachable(site):
            stats.false_suspicions += 1
        else:
            since = faults.unobservable_since(site)
            if since is not None:
                stats.detections += 1
                stats.detection_latency_total_s += self.sim.now - since
        self._trip_site(site, reason="missed-heartbeats")

    def _trip_site(self, site: str, reason: str) -> None:
        breaker = self.site_breakers[site]
        if breaker.state is not CLOSED:
            return
        breaker.state = OPEN
        breaker.probe_successes = 0
        self.stats.breaker_trips += 1
        self._emit("health.trip", site=site, reason=reason)
        self.grid.info.mark_site_suspect(site)
        if self.policy.heartbeat_interval_s > 0:
            self.sim.process(self._probe_loop(site),
                             name=f"health:probe:{site}")
        else:
            # No prober without heartbeats (speculation-only policies):
            # re-admit on a fixed delay so a trip cannot be permanent.
            self.sim.process(self._untrip_later(site),
                             name=f"health:untrip:{site}")

    def record_dispatch_failure(self, site: str) -> None:
        """A dispatch hand-off to the site bounced (hard observation)."""
        self._trip_site(site, reason="dispatch-failed")

    def _probe_loop(self, site: str):
        breaker = self.site_breakers[site]
        policy = self.policy
        rng = self._probe_rng if policy.probe_jitter > 0 else None
        attempt = 0
        while True:
            attempt += 1
            yield self.sim.timeout(
                self._probe_backoff.delay(min(attempt, 64), rng=rng))
            breaker.state = HALF_OPEN
            self.stats.probes += 1
            ok = self._reachable(site)
            self._emit("health.probe", site=site, ok=ok, attempt=attempt)
            if ok:
                breaker.probe_successes += 1
                if breaker.probe_successes >= policy.probe_successes:
                    self._restore_site(site)
                    return
                # Confirmation probes come at the base interval again.
                attempt = 0
            else:
                breaker.state = OPEN
                breaker.probe_successes = 0

    def _untrip_later(self, site: str):
        yield self.sim.timeout(self.policy.probe_interval_s)
        self._restore_site(site)

    def _restore_site(self, site: str) -> None:
        cursor = self._beats.get(site)
        if cursor is not None:
            self._replay(cursor, self.sim.now, _AFTER_EVERY_BEAT)
        breaker = self.site_breakers[site]
        breaker.state = CLOSED
        breaker.probe_successes = 0
        self.stats.breaker_restores += 1
        self._emit("health.restore", site=site)
        self.grid.info.clear_site_suspect(site)
        # Re-resolve the detector: the next silence is measured from the
        # re-admission, not from a beat that predates the outage.
        self._last_beat[site] = self.sim.now
        self._intervals[site].clear()
        if self.grid.faults is not None:
            # A parked recovery supervisor may be waiting for exactly
            # this re-admission (observed mode hides sites it cannot
            # otherwise un-hide).
            self.grid.faults.wake_recovery_waiters(site)

    # -- link breakers (transfer feedback) ----------------------------------

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _on_transfer_abort(self, transfer: "Transfer") -> None:
        if transfer.src != transfer.dst:
            self.record_transfer_failure(transfer.src, transfer.dst)

    def record_transfer_failure(self, src: str, dst: str) -> None:
        """A transfer between the endpoints failed or was aborted."""
        if src == dst:
            return
        key = self._link_key(src, dst)
        breaker = self.link_breakers.get(key)
        if breaker is None:
            breaker = self.link_breakers[key] = CircuitBreaker()
        breaker.failures += 1
        if (breaker.state is CLOSED
                and breaker.failures >= self.policy.link_failure_threshold):
            breaker.state = OPEN
            self.stats.breaker_trips += 1
            self._emit("health.trip", link=f"{key[0]}-{key[1]}",
                       reason="transfer-failures")

    def record_transfer_success(self, src: str, dst: str) -> None:
        """Bytes crossed between the endpoints: the link works."""
        if src == dst:
            return
        breaker = self.link_breakers.get(self._link_key(src, dst))
        if breaker is None:
            return
        breaker.failures = 0
        if breaker.state is not CLOSED:
            # Deprioritize-not-ban means real transfers still cross an
            # open link when it holds the only replica — each success is
            # a free probe that closes the breaker.
            breaker.state = CLOSED
            key = self._link_key(src, dst)
            self.stats.breaker_restores += 1
            self._emit("health.restore", link=f"{key[0]}-{key[1]}")

    # -- speculative backup execution ---------------------------------------

    def _straggler_threshold(self) -> Optional[float]:
        """Attempt-age threshold, or None while the sample is too thin."""
        durations = self._durations
        if len(durations) < self.policy.speculate_min_samples:
            return None
        ordered = sorted(durations)
        index = int(self.policy.speculate_quantile * (len(ordered) - 1))
        return ordered[index] * self.policy.speculate_multiplier

    def _straggler_loop(self):
        engine = self.grid.lifecycle
        while True:
            yield self.sim.timeout(self.policy.speculate_check_interval_s)
            threshold = self._straggler_threshold()
            if threshold is None:
                continue
            now = self.sim.now
            for state in (JobState.FETCHING, JobState.RUNNING):
                for job in engine.jobs_in(state):
                    if job.speculative_of is not None:
                        continue  # backups never speculate
                    if job.job_id in self._races:
                        continue
                    started = job.processor_at
                    if started is None or now - started < threshold:
                        continue
                    self._launch_backup(job)

    def _launch_backup(self, primary: Job) -> None:
        grid = self.grid
        durability = grid.durability
        if durability is not None and any(
                durability.is_lost(name) for name in primary.input_files):
            # A clone could only die fetching the lost input and retire
            # SPECULATED; the straggler stays eligible next tick.
            return
        info = grid.info
        candidates = [name for name in info.site_names
                      if name != primary.execution_site]
        if not candidates:
            return
        site_name = info.least_loaded(candidates)
        if grid.faults is not None and not grid.faults.is_reachable(
                site_name):
            # The hand-off itself bounces — which is an observation, so
            # feed the breaker; the straggler stays eligible next tick.
            self.record_dispatch_failure(site_name)
            return
        overload = grid.overload
        if (overload is not None and overload.queue_capacity
                and grid.sites[site_name].load >= overload.queue_capacity):
            # ``least_loaded`` may read a stale load snapshot, and even
            # the least-loaded queue can be full.  A backup respects the
            # queue bound like any job; the straggler stays eligible
            # next tick.
            return
        clone = Job(
            job_id=next(self._clone_ids),
            user=primary.user,
            origin_site=primary.origin_site,
            input_files=list(primary.input_files),
            runtime_s=primary.runtime_s,
            output_size_mb=primary.output_size_mb,
            deadline_s=primary.deadline_s,
            speculative_of=primary.job_id,
        )
        self.families.setdefault(primary.job_id, [primary]).append(clone)
        self.stats.speculative_launched += 1
        self._emit("job.speculated", job=primary.job_id,
                   clone=clone.job_id, site=site_name)
        grid.submitted_jobs.append(clone)
        engine = grid.lifecycle
        engine.register(clone)
        engine.submit(clone)
        engine.dispatch(clone, site_name)
        # Enqueued now, not in the waiting process, so the next launch of
        # this tick sees the clone in the site's load.
        execution = grid.sites[site_name].enqueue(clone)
        self._races[primary.job_id] = self.sim.process(
            self._run_backup(primary, clone, execution),
            name=f"health:backup:{clone.job_id}")

    def _run_backup(self, primary: Job, clone: Job, execution):
        yield execution
        # The backup attempt returned: it won (DONE), or it retired into
        # SPECULATED (preempted, or past its queue deadline), or it was
        # killed.  A backup is never retried, so a killed one retires
        # here; the primary still carries the logical job.
        if clone.state is JobState.RETRYING:
            self.grid.lifecycle.concede(
                clone, clone.failure_reason or "backup attempt killed")
        del self._races[primary.job_id]

    def race(self, primary: Job) -> Optional["Process"]:
        """The race of ``primary``'s live backup (None without one).

        The process ends when that backup has either won (retiring
        ``primary``) or retired into SPECULATED itself.  A primary that
        can no longer carry its job waits for it before booking an
        outcome.
        """
        return self._races.get(primary.job_id)

    def _on_transition(self, job: Job, src: JobState, dst: JobState,
                       edge: str, now: float) -> None:
        """Transition-engine hook (registered only with speculation on).

        The attempt that books its logical job's one outcome retires
        every other live attempt: a DONE from either side, or any other
        terminal edge of the primary (in practice a queue-deadline
        expiry, the one ending that cannot wait for the race).
        """
        if dst is JobState.SPECULATED:
            self.stats.speculative_losers += 1
            started = job.processor_at
            if started is not None:
                self.stats.speculative_wasted_s += now - started
        elif dst is JobState.DONE:
            started = job.processor_at
            if started is not None:
                self._durations.append(now - started)
        primary_id = job.speculative_of
        if primary_id is None:
            if dst not in TERMINAL_STATES:
                return
            primary_id = job.job_id
        elif dst is not JobState.DONE:
            return
        family = self.families.get(primary_id)
        if family is None:
            return
        for other in family:
            if other is job:
                continue
            state = other.state
            if state is JobState.FETCHING or state is JobState.RUNNING:
                site = self.grid.sites.get(other.execution_site)
                if site is not None:
                    site.preempt_attempt(other)
            elif state is JobState.READY or state is JobState.RETRYING:
                # No attempt in flight (retry backoff, parked, or waiting
                # for this race): concede directly; the recovery
                # supervisor sees SPECULATED when it wakes.
                self.grid.lifecycle.concede(other, "speculation race lost")
