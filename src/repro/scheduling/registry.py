"""Name-based factories for the scheduler families.

The experiment harness sweeps algorithms by name (e.g. the paper's 4×3
cross product ``ALL_ES × ALL_DS``); this module is the single place the
string names are defined.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.scheduling.adaptive import AdaptiveExternalScheduler
from repro.scheduling.base import (
    DatasetScheduler,
    ExternalScheduler,
    LocalScheduler,
)
from repro.scheduling.dataset import (
    DataBestClient,
    DataDoNothing,
    DataLeastLoaded,
    DataRandom,
)
from repro.scheduling.external import (
    JobDataPresent,
    JobHealthFiltered,
    JobLeastLoaded,
    JobLocal,
    JobRandom,
    JobRoundRobin,
)
from repro.scheduling.local import (
    DataAwareFIFOScheduler,
    FIFOLocalScheduler,
    LongestJobFirstScheduler,
    ShortestJobFirstScheduler,
)

#: The paper's four External Scheduler algorithms, in figure order.
ALL_ES: List[str] = [
    "JobRandom",
    "JobLeastLoaded",
    "JobDataPresent",
    "JobLocal",
]

#: The paper's three Dataset Scheduler algorithms, in figure order.
ALL_DS: List[str] = [
    "DataDoNothing",
    "DataRandom",
    "DataLeastLoaded",
]

#: Local schedulers (paper: FIFO only; the rest are extensions).
ALL_LS: List[str] = ["FIFO", "SJF", "LJF", "FIFO-DataAware"]

_ES_FACTORIES: Dict[str, Callable[..., ExternalScheduler]] = {
    "JobRandom": lambda rng, **kw: JobRandom(rng),
    "JobLeastLoaded": lambda rng, **kw: JobLeastLoaded(rng),
    "JobDataPresent": lambda rng, **kw: JobDataPresent(rng),
    "JobLocal": lambda rng, **kw: JobLocal(),
    "JobRoundRobin": lambda rng, **kw: JobRoundRobin(),
    "JobAdaptive": lambda rng, **kw: AdaptiveExternalScheduler(rng, **kw),
}


def _health_variant(base: str) -> Callable[..., ExternalScheduler]:
    inner = _ES_FACTORIES[base]
    return lambda rng, **kw: JobHealthFiltered(inner(rng, **kw), rng)


# Circuit-breaker-aware variants of the paper's four algorithms: the
# inner ES proposes, the wrapper vetoes picks whose site breaker is open
# (see repro.grid.health).  Pass-throughs when no health monitor runs.
for _base in ("JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal"):
    _ES_FACTORIES[f"{_base}+Health"] = _health_variant(_base)
del _base

#: Every External Scheduler name :func:`make_external_scheduler` accepts.
ES_NAMES: Tuple[str, ...] = tuple(_ES_FACTORIES)

_LS_FACTORIES: Dict[str, Callable[[], LocalScheduler]] = {
    "FIFO": FIFOLocalScheduler,
    "SJF": ShortestJobFirstScheduler,
    "LJF": LongestJobFirstScheduler,
    "FIFO-DataAware": DataAwareFIFOScheduler,
}


def make_external_scheduler(name: str, rng: random.Random,
                            **kwargs) -> ExternalScheduler:
    """Instantiate an External Scheduler by registry name."""
    try:
        factory = _ES_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown external scheduler {name!r}; "
            f"known: {sorted(_ES_FACTORIES)}") from None
    return factory(rng, **kwargs)


def make_local_scheduler(name: str) -> LocalScheduler:
    """Instantiate a Local Scheduler by registry name."""
    try:
        factory = _LS_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown local scheduler {name!r}; "
            f"known: {sorted(_LS_FACTORIES)}") from None
    return factory()


def make_dataset_scheduler(
    name: str,
    rng: random.Random,
    popularity_threshold: int = 5,
    check_interval_s: float = 300.0,
    neighbor_hops: int = 2,
    delete_idle_after_s: float = 0.0,
) -> DatasetScheduler:
    """Instantiate a Dataset Scheduler by registry name."""
    if name == "DataDoNothing":
        return DataDoNothing()
    if name == "DataRandom":
        return DataRandom(rng, popularity_threshold, check_interval_s,
                          delete_idle_after_s)
    if name == "DataLeastLoaded":
        return DataLeastLoaded(rng, popularity_threshold, check_interval_s,
                               neighbor_hops, delete_idle_after_s)
    if name == "DataBestClient":
        return DataBestClient(rng, popularity_threshold, check_interval_s,
                              delete_idle_after_s)
    raise ValueError(
        f"unknown dataset scheduler {name!r}; known: {ALL_DS}")
