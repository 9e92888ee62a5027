"""A network link with capacity shared among concurrent transfers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.transfer import Transfer


class Link:
    """An undirected link between two topology nodes.

    Capacity is in MB/s (the paper's "connectivity bandwidth", Table 1:
    10 MB/s in scenario 1, 100 MB/s in scenario 2).  The link does not
    enforce a rate itself — the :class:`~repro.network.transfer
    .TransferManager`'s allocator divides capacity among the transfers
    currently crossing it.

    The link also keeps cumulative statistics used by the metrics layer:

    * ``bytes_carried`` — total MB that crossed the link.
    * ``busy_time`` — integral of "link has ≥1 active transfer" over time.
    * ``load_integral`` — integral of active-transfer count over time
      (average concurrency = load_integral / horizon).

    ``active_weight`` is the running sum of the share weights of the
    transfers in ``active``.  The transfer manager keeps it as it attaches
    and detaches transfers, and resets it to 0.0 when the link empties, so
    the equal-share rate of any one transfer can be read off its route
    without recounting every link.
    """

    __slots__ = (
        "a",
        "b",
        "capacity_mbps",
        "base_capacity_mbps",
        "active",
        "active_weight",
        "bytes_carried",
        "busy_time",
        "load_integral",
        "_last_change",
    )

    def __init__(self, a: str, b: str, capacity_mbps: float) -> None:
        if capacity_mbps <= 0:
            raise ValueError(
                f"link {a!r}-{b!r} capacity must be positive, "
                f"got {capacity_mbps!r}")
        self.a = a
        self.b = b
        self.capacity_mbps = float(capacity_mbps)
        #: Nominal (undegraded) capacity.  Fault injection mutates
        #: ``capacity_mbps`` only; timeouts and restores use this.
        self.base_capacity_mbps = float(capacity_mbps)
        self.active: Set["Transfer"] = set()
        self.active_weight = 0.0
        self.bytes_carried = 0.0
        self.busy_time = 0.0
        self.load_integral = 0.0
        self._last_change = 0.0

    def __repr__(self) -> str:
        return (f"<Link {self.a}--{self.b} {self.capacity_mbps} MB/s, "
                f"{len(self.active)} active>")

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The (unordered) pair of node names this link connects."""
        return (self.a, self.b)

    @property
    def concurrency(self) -> int:
        """Number of transfers currently crossing the link."""
        return len(self.active)

    def equal_share(self) -> float:
        """Bandwidth each active transfer would get under equal sharing."""
        n = len(self.active)
        return self.capacity_mbps if n == 0 else self.capacity_mbps / n

    # -- statistics bookkeeping (driven by the TransferManager) -------------

    def account(self, now: float) -> None:
        """Fold utilization statistics up to ``now``."""
        dt = now - self._last_change
        if dt > 0:
            n = len(self.active)
            if n > 0:
                self.busy_time += dt
            self.load_integral += dt * n
        self._last_change = now

    def attach(self, transfer: "Transfer", now: float) -> None:
        """Register a transfer as crossing this link."""
        self.account(now)
        self.active.add(transfer)

    def detach(self, transfer: "Transfer", now: float,
               carried_mb: float) -> None:
        """Unregister a transfer and credit the MB it carried."""
        self.account(now)
        self.active.discard(transfer)
        self.bytes_carried += carried_mb

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the link was busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
