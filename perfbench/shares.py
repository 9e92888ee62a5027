"""Self time per ``repro`` module, from a cProfile of the run phase.

Time spent in a function outside ``repro`` (a builtin such as ``min``,
or ``Enum.__hash__`` from the standard library) is charged to the repro
modules that called it, in proportion to the time each caller spent in
it, walking up the callers until a repro frame is found.  What reaches
no repro frame is charged to ``other``.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Tuple

FuncKey = Tuple[str, int, str]

#: Caller levels walked before giving up and charging ``other``.
_MAX_DEPTH = 8


def _module_of(key: FuncKey, src: Path) -> Optional[str]:
    """``grid.lifecycle`` for ``<src>/repro/grid/lifecycle.py``."""
    try:
        rel = Path(key[0]).resolve().relative_to(src / "repro")
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


def module_shares(profile: cProfile.Profile, src: Path) -> Dict[str, float]:
    """Each repro module's share of the profile's total self time."""
    raw = pstats.Stats(profile).stats
    modules = {key: _module_of(key, src) for key in raw}
    charged: Dict[FuncKey, Dict[str, float]] = {}

    def charge(key: FuncKey, depth: int) -> Dict[str, float]:
        """How ``key``'s self time splits over modules (sums to 1)."""
        if modules.get(key):
            return {modules[key]: 1.0}
        if key in charged:
            return charged[key]
        charged[key] = {"other": 1.0}  # breaks caller cycles
        callers = raw[key][4] if key in raw else {}
        total = sum(stat[2] for stat in callers.values())
        if depth >= _MAX_DEPTH or total <= 0:
            return charged[key]
        split: Dict[str, float] = defaultdict(float)
        for caller, stat in callers.items():
            for module, part in charge(caller, depth + 1).items():
                split[module] += part * stat[2] / total
        charged[key] = dict(split)
        return charged[key]

    seconds: Dict[str, float] = defaultdict(float)
    for key, (_cc, _nc, self_s, _cum, _callers) in raw.items():
        for module, part in charge(key, 0).items():
            seconds[module] += self_s * part
    total = sum(seconds.values())
    return {module: s / total for module, s in seconds.items()} if total else {}
