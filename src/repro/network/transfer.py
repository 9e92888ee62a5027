"""Wide-area data transfers under link contention.

The :class:`TransferManager` executes every data movement in the grid (job
input fetches *and* asynchronous replications — both compete for the same
links, which is essential to the paper's comparison).  Whenever a transfer
starts or finishes, only the links on its route change load, so only the
transfers crossing them can change rate; under equal sharing, only those
whose bottleneck share moved do.

Two rate allocators are provided:

* :class:`EqualShareAllocator` — the paper's model: each link divides its
  capacity equally among the transfers crossing it, and a transfer moves at
  the *minimum* share over its route (the bottleneck link).
* :class:`MaxMinFairAllocator` — classic progressive-filling max–min
  fairness, an extension used in ablation studies; it never allocates more
  total rate through a link than its capacity.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Optional

from repro.network.link import Link
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.sim.core import Simulator
from repro.sim.events import Event

#: Remaining-MB tolerance below which a transfer counts as complete.
_EPSILON_MB = 1e-9
#: Guard against zero-length reschedule loops from float rounding.
_MIN_DT = 1e-9
#: Start of the running minimum in the rate and next-completion loops.
_INF = float("inf")


class Transfer:
    """One in-flight (or finished) data movement.

    Attributes
    ----------
    done:
        Kernel event that succeeds (with the transfer itself as value) when
        the last byte arrives — or when the transfer is *aborted* by fault
        injection.  Waiters must check :attr:`failed` after the event fires;
        ``done`` never fails, so shared waiters (and ``AnyOf`` races) stay
        safe without defusing gymnastics.
    failed:
        ``True`` if the transfer was aborted before the last byte arrived.
    purpose:
        Free-form tag — the grid uses ``"job-fetch"`` and ``"replication"``
        so the metrics layer can attribute traffic.
    bottleneck:
        The link on the route whose share sets :attr:`rate` under equal
        sharing (``None`` until the transfer is first rated).
    """

    __slots__ = (
        "src", "dst", "size_mb", "remaining_mb", "rate", "route",
        "done", "started_at", "finished_at", "purpose", "metadata",
        "weight", "failed", "bottleneck",
    )

    def __init__(self, sim: Simulator, src: str, dst: str, size_mb: float,
                 route: List[Link], purpose: str,
                 metadata: Optional[Dict[str, Any]] = None,
                 weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"transfer weight must be positive, "
                             f"got {weight!r}")
        self.src = src
        self.dst = dst
        self.size_mb = float(size_mb)
        self.remaining_mb = float(size_mb)
        self.rate = 0.0
        self.route = route
        self.done = Event(sim)
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.purpose = purpose
        self.metadata = metadata or {}
        #: Share weight: a transfer opened with N parallel streams
        #: (GridFTP-style) competes for link capacity as N unit flows.
        self.weight = float(weight)
        self.failed = False
        self.bottleneck: Optional[Link] = None

    def __repr__(self) -> str:
        state = "done" if self.finished_at is not None else (
            f"{self.remaining_mb:.1f}MB left @ {self.rate:.2f}MB/s")
        return f"<Transfer {self.src}->{self.dst} {self.size_mb:.0f}MB {state}>"

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) duration; raises if unfinished."""
        if self.finished_at is None:
            raise ValueError("transfer has not finished")
        return self.finished_at - self.started_at


class EqualShareAllocator:
    """The paper's contention model.

    Each link gives each of its ``n`` transfers ``capacity / n``; a transfer
    runs at the minimum share along its route.  (The bottleneck share may be
    left unused on other links — this slight pessimism matches the paper's
    simple description.)

    Weighted transfers (GridFTP-style parallel streams) count as
    ``weight`` unit flows: a link carrying weights {1, 3} gives them 25%
    and 75% of its capacity.

    A link's share is read from its running :attr:`Link.active_weight`,
    so ``transfers`` may be any subset of the attached transfers: a rate
    depends only on the links its transfer crosses (:attr:`local`).
    :meth:`allocate` scans each route and records the link that sets the
    rate as the transfer's :attr:`~Transfer.bottleneck`; :meth:`rerate`
    uses it to move rates without a scan.
    """

    name = "equal-share"
    #: Rates depend only on the loads of the links each transfer crosses,
    #: so the manager hands :meth:`rerate` just the links whose load
    #: changed.
    local = True

    def allocate(self, transfers: Collection[Transfer]
                 ) -> Dict[Transfer, float]:
        rates: Dict[Transfer, float] = {}
        for t in transfers:
            weight = t.weight
            rate = _INF
            for link in t.route:
                share = link.capacity_mbps * weight / link.active_weight
                if share < rate:
                    rate = share
                    bottleneck = link
            t.bottleneck = bottleneck
            rates[t] = rate
        return rates

    def rerate(self, dirty: Dict[Link, float]) -> List[Transfer]:
        """Move rates from the links whose load changed; list what to scan.

        ``dirty`` maps each such link to its :attr:`Link.active_weight`
        when the current rates were set.  A rate is the minimum share over
        its route, a clean link's share has not moved, and ``min`` does not
        round, so a dirty link whose share fell below a rate becomes that
        transfer's bottleneck exactly.  Only a transfer whose bottleneck
        share rose needs its route scanned; each is listed once, for
        :meth:`allocate`.  A transfer not rated yet (rate 0.0) is left to
        the caller.
        """
        scan: List[Transfer] = []
        for link, rated_weight in dirty.items():
            weight = link.active_weight
            if weight < rated_weight:
                # Every share on a lighter link rose (division is
                # monotone), which moves only the rates it bottlenecks.
                for t in link.active:
                    if t.bottleneck is link:
                        scan.append(t)
            elif weight > rated_weight:
                capacity = link.capacity_mbps
                for t in link.active:
                    share = capacity * t.weight / weight
                    if t.bottleneck is link:
                        if share <= t.rate:
                            t.rate = share
                        else:
                            scan.append(t)
                    elif share < t.rate:
                        t.rate = share
                        t.bottleneck = link
        return scan


class MaxMinFairAllocator:
    """Progressive-filling max–min fairness (extension / ablation).

    Repeatedly raise all unfrozen transfer rates together until some link
    saturates; freeze the transfers on saturated links; continue with the
    residual capacity.
    """

    name = "max-min"
    #: Freezing one bottleneck frees capacity elsewhere, so any start or
    #: finish can move every rate: the manager always passes them all.
    local = False

    def allocate(self, transfers: Collection[Transfer]
                 ) -> Dict[Transfer, float]:
        rates: Dict[Transfer, float] = {t: 0.0 for t in transfers}
        if not transfers:
            return rates
        remaining_cap: Dict[Link, float] = {}
        active_on: Dict[Link, set] = {}
        for t in transfers:
            for link in t.route:
                remaining_cap.setdefault(link, link.capacity_mbps)
                active_on.setdefault(link, set()).add(t)
        unfrozen = set(transfers)
        while unfrozen:
            # Smallest per-unit-weight increment that saturates some link
            # (weights model parallel streams, as in EqualShareAllocator).
            increment = min(
                remaining_cap[link]
                / sum(t.weight for t in active_on[link] & unfrozen)
                for link in remaining_cap
                if active_on[link] & unfrozen
            )
            for t in unfrozen:
                rates[t] += increment * t.weight
            newly_frozen = set()
            for link in list(remaining_cap):
                users = active_on[link] & unfrozen
                if not users:
                    continue
                remaining_cap[link] -= increment * sum(
                    t.weight for t in users)
                if remaining_cap[link] <= 1e-12:
                    newly_frozen |= users
            if not newly_frozen:  # pragma: no cover - float safety valve
                break
            unfrozen -= newly_frozen
        return rates


class TransferManager:
    """Runs all transfers in the grid under a shared contention model.

    Parameters
    ----------
    sim:
        The simulator.
    topology:
        The network; routes are shortest paths over it.
    allocator:
        Rate allocator (defaults to the paper's equal-share model): an
        ``allocate(transfers)`` method returning a rate per transfer, and
        a ``local`` flag saying whether a rate depends only on the links
        its transfer crosses.  A local allocator also re-rates from the
        links whose load changed (``rerate(dirty)``, as
        :meth:`EqualShareAllocator.rerate`), and ``allocate`` scans only
        the transfers it lists plus each new one.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 allocator: Optional[Any] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.router = Router(topology)
        self.allocator = allocator or EqualShareAllocator()
        self.active: List[Transfer] = []
        self.completed: List[Transfer] = []
        #: Links whose load changed since the last rebalance, each mapped
        #: to its ``active_weight`` at that rebalance: only the transfers
        #: crossing them can need new rates.
        self._dirty: Dict[Link, float] = {}
        #: When every active transfer's progress was last folded.  A new
        #: transfer has rate 0.0, so folding it over any interval is a
        #: no-op and one clock serves them all.
        self._folded_at = sim.now
        self._timer_token = 0
        #: Called with each transfer the moment it completes (used by the
        #: NWS-style bandwidth forecaster, tracing, ...).  Aborted
        #: transfers do NOT reach observers — a dropped connection carries
        #: no useful bandwidth sample.
        self.observers: List[Any] = []
        #: Called with each network transfer the moment it starts (used by
        #: the fault injector's sabotage hook).  Empty unless faults are on.
        self.on_start: List[Any] = []
        #: Called with each transfer killed by :meth:`abort`, before its
        #: ``done`` event fires (used by the health layer's circuit
        #: breakers as failure feedback).  Empty unless health is on.
        self.on_abort: List[Any] = []
        #: Transfers killed by :meth:`abort` (fault injection).
        self.n_aborted = 0
        #: Domain-event tracer (None = tracing off; one attribute check).
        self.tracer = None

    # -- public API ----------------------------------------------------------

    def start(self, src: str, dst: str, size_mb: float,
              purpose: str = "data",
              metadata: Optional[Dict[str, Any]] = None,
              weight: float = 1.0) -> Transfer:
        """Begin moving ``size_mb`` MB from ``src`` to ``dst``.

        Returns the :class:`Transfer`; wait on ``transfer.done`` for
        completion.  Local moves (``src == dst``) and empty transfers
        complete instantly at zero network cost.  ``weight`` models
        parallel streams: a weight-``k`` transfer competes as ``k`` unit
        flows when links are shared.
        """
        if size_mb < 0:
            raise ValueError(f"negative transfer size {size_mb!r}")
        route = self.router.route(src, dst)
        transfer = Transfer(self.sim, src, dst, size_mb, route,
                            purpose, metadata, weight=weight)
        if self.tracer is not None:
            self._trace_transfer("transfer.start", transfer)
        if not route or size_mb == 0:
            transfer.remaining_mb = 0.0
            transfer.finished_at = self.sim.now
            self.completed.append(transfer)
            for observer in self.observers:
                observer(transfer)
            if self.tracer is not None:
                self._trace_transfer("transfer.done", transfer, duration_s=0.0)
            transfer.done.succeed(transfer)
            return transfer
        now = self.sim.now
        dirty = self._dirty
        for link in route:
            if link not in dirty:
                dirty[link] = link.active_weight
            link.attach(transfer, now)
            link.active_weight += transfer.weight
        self.active.append(transfer)
        for hook in self.on_start:
            hook(transfer)
        self._rebalance(fresh=transfer)
        return transfer

    def abort(self, transfer: Transfer, reason: str = "") -> bool:
        """Kill an in-flight transfer (fault injection).

        The partial progress is credited to the links it crossed, the
        transfer is marked :attr:`~Transfer.failed`, and its ``done`` event
        *succeeds* — waiters are woken and must inspect ``failed``.
        Returns ``False`` if the transfer had already finished.
        """
        if transfer.finished_at is not None or transfer not in self.active:
            return False
        # Fold the victim's progress up to now; the others fold in the
        # rebalance below, at the same instant and the same rates.
        now = self.sim.now
        dt = now - self._folded_at
        if dt > 0:
            left = transfer.remaining_mb - transfer.rate * dt
            transfer.remaining_mb = left if left > 0.0 else 0.0
        transfer.finished_at = now
        transfer.failed = True
        if reason:
            transfer.metadata.setdefault("abort_reason", reason)
        carried = transfer.size_mb - transfer.remaining_mb
        self._detach(transfer, now, carried)
        self.active.remove(transfer)
        self.n_aborted += 1
        if self.tracer is not None:
            self._trace_transfer("transfer.abort", transfer,
                                 reason=reason or "aborted",
                                 carried_mb=carried)
        for hook in self.on_abort:
            hook(transfer)
        transfer.done.succeed(transfer)
        self._rebalance()
        return True

    def rebalance(self) -> None:
        """Recompute every rate now (e.g. after a link capacity change)."""
        self._rebalance(rerate_all=True)

    def estimated_transfer_time(self, src: str, dst: str,
                                size_mb: float) -> float:
        """Uncontended lower bound on the transfer time (used by heuristic
        schedulers that need a cost estimate, not by the paper's four ES
        algorithms)."""
        route = self.router.route(src, dst)
        if not route or size_mb == 0:
            return 0.0
        bottleneck = min(link.capacity_mbps for link in route)
        return size_mb / bottleneck

    def base_transfer_time(self, src: str, dst: str, size_mb: float) -> float:
        """Uncontended time over *nominal* (undegraded) capacities.

        Fault-mode transfer timeouts are sized from this so that a
        degraded link reads as a stall instead of silently inflating the
        allowance.
        """
        route = self.router.route(src, dst)
        if not route or size_mb == 0:
            return 0.0
        bottleneck = min(link.base_capacity_mbps for link in route)
        return size_mb / bottleneck

    # -- internals -----------------------------------------------------------

    def _detach(self, transfer: Transfer, now: float,
                carried_mb: float) -> None:
        """Take ``transfer`` off its route and mark those links dirty."""
        weight = transfer.weight
        dirty = self._dirty
        for link in transfer.route:
            if link not in dirty:
                dirty[link] = link.active_weight
            link.detach(transfer, now, carried_mb)
            # An emptied link restarts its sum at exactly 0.0, so rounding
            # from fractional weights never outlives a busy period.
            link.active_weight = (link.active_weight - weight
                                  if link.active else 0.0)

    def _rebalance(self, rerate_all: bool = False,
                   fresh: Optional[Transfer] = None) -> None:
        """Fold progress, retire finished transfers, re-rate, re-arm.

        The fold runs over every active transfer at every rebalance, even
        those whose rate is unchanged, so each ``remaining_mb`` follows the
        same float chain as recomputing every rate would.  A local
        allocator re-rates from the dirty links and scans only ``fresh``
        (the transfer just started) and the transfers its ``rerate``
        lists; ``rerate_all``, or an allocator that is not
        :attr:`~EqualShareAllocator.local`, scans every active transfer.
        """
        now = self.sim.now
        dt = now - self._folded_at
        self._folded_at = now
        active = self.active
        finished = False
        for t in active:
            left = t.remaining_mb - t.rate * dt
            if left > _EPSILON_MB:
                t.remaining_mb = left
                continue
            finished = True
            t.remaining_mb = 0.0
            t.finished_at = now
            self._detach(t, now, t.size_mb)
            self.completed.append(t)
            for observer in self.observers:
                observer(t)
            if self.tracer is not None:
                self._trace_transfer("transfer.done", t,
                                     duration_s=t.duration)
            t.done.succeed(t)
        if finished:
            active = self.active = [t for t in active if t.finished_at is None]
        dirty = self._dirty
        if not active:
            dirty.clear()
            return
        allocator = self.allocator
        if rerate_all or not allocator.local:
            scan: List[Transfer] = active
        else:
            scan = allocator.rerate(dirty)
            if fresh is not None and fresh.finished_at is None:
                scan.append(fresh)
        dirty.clear()
        if scan:
            rates = allocator.allocate(scan)
            for t in scan:
                t.rate = rates[t]
                if t.rate <= 0:  # pragma: no cover - allocators give > 0
                    raise RuntimeError(
                        f"allocator assigned zero rate to {t!r}")
        next_dt = _INF
        for t in active:
            dt = t.remaining_mb / t.rate
            if dt < next_dt:
                next_dt = dt
        next_dt = max(next_dt, _MIN_DT)
        self._timer_token += 1
        token = self._timer_token
        timer = self.sim.timeout(next_dt)
        timer.callbacks.append(lambda _ev: self._on_timer(token))

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a later rebalance
        self._rebalance()

    def _trace_transfer(self, kind: str, transfer: Transfer,
                        **extra: Any) -> None:
        self.tracer.emit(
            self.sim.now, kind, src=transfer.src, dst=transfer.dst,
            size_mb=transfer.size_mb, purpose=transfer.purpose,
            dataset=transfer.metadata.get("dataset"), **extra)

    # -- statistics ----------------------------------------------------------

    @property
    def total_mb_moved(self) -> float:
        """MB moved by all *completed* transfers."""
        return sum(t.size_mb for t in self.completed)

    def mb_moved_by_purpose(self) -> Dict[str, float]:
        """Completed traffic broken down by purpose tag."""
        out: Dict[str, float] = {}
        for t in self.completed:
            out[t.purpose] = out.get(t.purpose, 0.0) + t.size_mb
        return out
