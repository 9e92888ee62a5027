"""Overload protection: admission control and graceful degradation.

The paper's grid never saturates — queues are unbounded, eviction always
succeeds, and every job eventually runs.  Under the heavy open-loop
traffic the ROADMAP targets, that assumption collapses: a site whose
queue grows without bound wedges the whole study, and two concurrent
transfers into a nearly-full storage element can overcommit capacity.
This module bundles every saturation-survival knob into one frozen
policy, mirroring :class:`~repro.grid.staleness.InfoPolicy` for the
information-quality family:

* **Bounded queues with backpressure** — ``queue_capacity`` caps each
  site's waiting-job count; an overflowing dispatch is *deflected* back
  for re-placement (``deflect_budget`` times, reusing the bounce
  machinery's accounting shape) and finally *shed* with a counted and
  traced ``job.shed`` event — never silently dropped.
* **Storage reservations** — ``storage_reservations`` makes the data
  mover reserve space at transfer start (released on abort/failover),
  closing the window where two in-flight transfers both pass
  ``can_fit`` and overcommit the destination.  A pinned fetch that
  cannot reserve space for ``remote_read_after`` retry rounds degrades
  to a *remote read*: the bytes stream to the job without being stored.
* **Deadlines and aging** — ``job_deadline_s`` bounds a job's queue wait
  (expired jobs are counted and traced, not lost); ``aging_factor``
  ages priority-scheduler queue keys so SJF/data-aware policies cannot
  starve large jobs forever.
* **Degraded-mode ES** — when the External Scheduler wedges (no
  candidate sites) or every choice is saturated, placement falls back
  to ``degraded_es`` (a registry name) or, last of all, a deterministic
  least-loaded scan.

Every knob defaults *off*: a grid built with a null policy takes the
exact pre-overload code paths, so disabled runs stay bitwise-identical
to the committed golden trace digests.  Saturated runs draw no new
randomness outside the dedicated ``"overload"`` stream, so they stay
deterministic at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OverloadPolicy:
    """Saturation-protection policy for one grid.

    Attributes
    ----------
    queue_capacity:
        Maximum jobs *waiting* at any site (the paper's load measure).
        0 = unbounded queues (the paper's model).
    deflect_budget:
        How many times a job aimed at a saturated site may be deflected
        to another site before it is shed.  Only meaningful when
        ``queue_capacity`` > 0.
    job_deadline_s:
        Maximum time a job may wait in a site queue before it expires
        (counted, traced, terminal).  0 = no deadline.
    aging_factor:
        Priority-aging rate for queue-reordering local schedulers, in
        priority-seconds of credit per second waited.  With uniform
        linear aging the pairwise order of two waiting jobs never
        changes after both are enqueued, so aging folds into a constant
        key at enqueue time (``base + factor * now``) — zero ongoing
        cost, bitwise-deterministic.  0 = no aging.
    degraded_es:
        Registry name of the last-resort External Scheduler used when
        the primary wedges or every candidate is saturated ("" = use a
        deterministic least-loaded scan).
    storage_reservations:
        Route data-mover transfers through the storage reservation
        ledger (reserve at transfer start, release on abort) so
        concurrent inbound transfers can never overcommit capacity.
    remote_read_after:
        Pinned-fetch retry rounds (of the data mover's blocked-fetch
        interval) tolerated before degrading to a remote read.  Only
        consulted when ``storage_reservations`` is on.
    """

    queue_capacity: int = 0
    deflect_budget: int = 1
    job_deadline_s: float = 0.0
    aging_factor: float = 0.0
    degraded_es: str = ""
    storage_reservations: bool = False
    remote_read_after: int = 3

    def __post_init__(self) -> None:
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue capacity must be >= 0, got {self.queue_capacity!r}")
        if self.deflect_budget < 0:
            raise ValueError(
                f"deflect budget must be >= 0, got {self.deflect_budget!r}")
        if self.job_deadline_s < 0:
            raise ValueError(
                f"job deadline must be >= 0, got {self.job_deadline_s!r}")
        if self.aging_factor < 0:
            raise ValueError(
                f"aging factor must be >= 0, got {self.aging_factor!r}")
        if self.remote_read_after < 0:
            raise ValueError(
                f"remote_read_after must be >= 0, "
                f"got {self.remote_read_after!r}")

    @property
    def is_null(self) -> bool:
        """True when every mechanism is off (grid runs pre-overload paths).

        ``deflect_budget`` and ``remote_read_after`` are modifiers of
        other knobs and do not activate anything on their own.
        """
        return (self.queue_capacity == 0
                and self.job_deadline_s == 0
                and self.aging_factor == 0
                and not self.degraded_es
                and not self.storage_reservations)


class SaturationStats:
    """Shared mutable saturation counters for one grid run.

    One instance is wired into the grid and the data mover so the
    metrics layer has a single place to read.  Plain attributes,
    no simulator events — updating a counter can never perturb event
    order.
    """

    __slots__ = ("jobs_deflected", "degraded_dispatches", "remote_reads")

    def __init__(self) -> None:
        #: Deflection events (a job may be deflected more than once).
        self.jobs_deflected = 0
        #: Placements decided by the degraded-mode fallback selector.
        self.degraded_dispatches = 0
        #: Pinned fetches degraded to streaming reads (nothing stored).
        self.remote_reads = 0
