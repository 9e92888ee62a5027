"""Network substrate: topology, contended links, and data transfers.

The paper models network contention by "keeping track of the number of
simultaneous data transfers across a link and decreasing the bandwidth
available for each transfer accordingly" (§5.1).  This package implements
that model:

* :mod:`~repro.network.topology` — the site/router graph, including the
  hierarchical GriPhyN-style topology the paper assumes, plus flat/star and
  random builders for experimentation.
* :mod:`~repro.network.link` — a :class:`Link` with fixed capacity shared
  equally among concurrent transfers.
* :mod:`~repro.network.routing` — shortest-path route computation + cache.
* :mod:`~repro.network.transfer` — the :class:`TransferManager`, which runs
  all wide-area transfers under a rate allocator (the paper's equal-share
  bottleneck model, or optionally true max–min fairness) and re-rates
  the transfers sharing a link with any transfer that starts or finishes.
"""

from repro.network.forecast import (
    BandwidthHistory,
    NWSForecaster,
)
from repro.network.link import Link
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.network.transfer import (
    EqualShareAllocator,
    MaxMinFairAllocator,
    Transfer,
    TransferManager,
)

__all__ = [
    "BandwidthHistory",
    "EqualShareAllocator",
    "Link",
    "MaxMinFairAllocator",
    "NWSForecaster",
    "Router",
    "Topology",
    "Transfer",
    "TransferManager",
]
