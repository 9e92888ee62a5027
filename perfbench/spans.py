"""Span recorder and the layer wrappers of the traced pass.

The traced pass replaces public functions of each layer with wrappers
that record one span (name, start, end, parent) per call.  Spans are kept
in memory, in flat arrays, and written out once the run ends.  Self time
is a span's duration minus the time its child spans cover; it is summed
per span name as calls return, so reading a layer's numbers needs no pass
over the stored spans.

Wrappers live on the classes, never on instances, and are installed
before the grid is built, so every instance and every bound method taken
during wiring sees them.  :func:`installed` removes them on exit.
"""

from __future__ import annotations

import contextlib
from array import array
from pathlib import Path
from time import perf_counter
from types import FunctionType
from typing import Dict, Iterator, List, Tuple

import numpy as np


class SpanRecorder:
    """Spans of one traced pass, plus per-name call and self-time totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: Per name id: calls and summed self time (seconds).
        self.ncalls: List[int] = []
        self.self_s: List[float] = []
        #: Plain counters (calls counted without a span, model counts).
        self.counters: Dict[str, float] = {}
        # Open spans: their indices and the child time seen so far.
        self._open: List[int] = []
        self._child: List[float] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.ncalls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per call."""
        nid = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        opened, child = self._open, self._child
        ncalls, self_s = self.ncalls, self.self_s

        def spanned(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(opened[-1] if opened else -1)
            ends.append(0.0)
            opened.append(index)
            child.append(0.0)
            start = perf_counter()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[index] = end
                opened.pop()
                duration = end - start
                self_s[nid] += duration - child.pop()
                ncalls[nid] += 1
                if child:
                    child[-1] += duration

        spanned.__wrapped__ = fn
        return spanned

    def count_calls(self, name: str, fn):
        """``fn`` counting its calls under ``name``, with no span."""
        counters = self.counters
        counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.ncalls[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def total_time(self, name: str) -> float:
        """Summed inclusive duration of every ``name`` span."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        mask = ids == nid
        return float((np.frombuffer(self.ends)[mask]
                      - np.frombuffer(self.starts)[mask]).sum())

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (a NumPy ``.npz`` archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                     parent=np.frombuffer(self.parents, dtype=np.int32),
                     start=np.frombuffer(self.starts),
                     end=np.frombuffer(self.ends))


def _spanned_functions() -> List[Tuple[str, object, Tuple[str, ...]]]:
    """(span name, owner, function names) for every wrapped layer call."""
    from repro.experiments import runner
    from repro.faults.injector import FaultInjector
    from repro.grid.catalog import ReplicaCatalog
    from repro.grid.datamover import DataMover
    from repro.grid.durability import DurabilityManager
    from repro.grid.grid import DataGrid
    from repro.grid.health import HealthMonitor
    from repro.grid.info import InformationService
    from repro.grid.lifecycle import TransitionEngine
    from repro.grid.site import Site
    from repro.grid.staleness import StaleReplicaView
    from repro.grid.storage import StorageElement
    from repro.metrics.collector import RunMetrics
    from repro.network.routing import Router
    from repro.network.transfer import EqualShareAllocator, TransferManager
    from repro.scheduling import registry  # noqa: F401  (imports every ES)
    from repro.scheduling.base import ExternalScheduler
    from repro.sim.core import Simulator
    from repro.watchdog import Watchdog

    es_classes, todo = [], list(ExternalScheduler.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select_site" in vars(cls):
            es_classes.append(cls)
    return [
        ("setup.make_workload", runner, ("make_workload",)),
        ("setup.build_grid", runner, ("build_grid",)),
        ("metrics.from_grid", RunMetrics, ("from_grid",)),
        ("grid.run", DataGrid, ("run",)),
        ("sim.run", Simulator, ("run",)),
        ("net.allocate", EqualShareAllocator, ("allocate",)),
        ("net.start", TransferManager, ("start",)),
        ("net.abort", TransferManager, ("abort",)),
        ("net.route", Router, ("route",)),
        ("lifecycle.transition", TransitionEngine, ("transition",)),
        ("info.query", InformationService, (
            "is_available", "is_suspected", "load", "loads", "least_loaded",
            "dataset_locations", "sites_with_all", "has_replica",
            "replica_count", "bytes_present_by_site")),
        ("catalog.update", ReplicaCatalog, ("register", "deregister")),
        ("staleness.query", StaleReplicaView, (
            "locations", "location_set", "has_replica", "replica_count",
            "bytes_present_by_site")),
        *(("es.select_site", cls, ("select_site",)) for cls in es_classes),
        ("site.enqueue", Site, ("enqueue",)),
        ("datamover.ensure_local", DataMover, ("ensure_local",)),
        ("storage.ops", StorageElement, (
            "add", "touch", "record_access", "reset_popularity", "pin",
            "unpin", "remove", "idle_files", "can_fit", "is_pinned",
            "is_reserved", "datasets")),
        ("overload.reserve", StorageElement, (
            "reserve", "commit_reservation", "release_reservation")),
        ("health", HealthMonitor, (
            "allows", "allow_replication", "link_open",
            "record_dispatch_failure", "record_transfer_failure",
            "record_transfer_success")),
        ("durability", DurabilityManager, (
            "verify_local", "verify_transfer", "source_taint", "on_landed",
            "on_register", "on_deregister", "is_lost")),
        ("faults", FaultInjector, (
            "is_up", "is_reachable", "any_site_up", "fallback_site")),
        ("watchdog.check", Watchdog, ("check_now",)),
    ]


def _counted_functions():
    from repro.grid.datamover import DataMover
    from repro.sim.core import Simulator

    return [
        ("sim.processes", Simulator, "process"),
        ("sim.timeouts", Simulator, "timeout"),
        ("ds.replicate.calls", DataMover, "replicate"),
    ]


def _allocate_probe(recorder: SpanRecorder, spanned):
    """Around the spanned ``allocate``: count rates computed and changed.

    A rate "changed" when it differs from the transfer's rate before the
    call (a newly started transfer's rate is 0, so it always changes).
    """
    def allocate(self, transfers):
        before = [t.rate for t in transfers]
        rates = spanned(self, transfers)
        recorder.add("net.allocate.rated", len(before))
        recorder.add("net.allocate.changed", sum(
            1 for t, old in zip(transfers, before) if rates[t] != old))
        return rates

    allocate.__wrapped__ = spanned
    return allocate


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every layer wrapper for the duration of the block."""
    saved = []

    def patch(owner, attr, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, FunctionType):
            replacement = make(original)
        else:
            raise TypeError(f"cannot wrap {owner!r}.{attr}: {original!r}")
        saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    try:
        for name, owner, attrs in _spanned_functions():
            for attr in attrs:
                if name == "net.allocate":
                    patch(owner, attr, lambda fn: _allocate_probe(
                        recorder, recorder.wrap(name, fn)))
                else:
                    patch(owner, attr,
                          lambda fn, name=name: recorder.wrap(name, fn))
        for name, owner, attr in _counted_functions():
            patch(owner, attr,
                  lambda fn, name=name: recorder.count_calls(name, fn))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
