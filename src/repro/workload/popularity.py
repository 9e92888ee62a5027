"""Dataset popularity models.

The paper (Figure 2): "The jobs (i.e., input file names) needed by a
particular user are generated randomly according to a geometric
distribution, with the goal of modeling situations in which a community
focuses on some datasets more than others.  Note that we do not attempt to
model changes in dataset popularity over time."

Rank 0 is the most popular dataset.  Which *concrete* dataset holds each
rank is decided by the workload generator (identity mapping by default);
the popularity model only draws ranks.
"""

from __future__ import annotations

import abc
import math
import random
from typing import List


class PopularityModel(abc.ABC):
    """Draws dataset *ranks* in ``[0, n_items)``; rank 0 is hottest."""

    name: str = "abstract"

    def __init__(self, n_items: int) -> None:
        if n_items < 1:
            raise ValueError(f"need at least one item, got {n_items}")
        self.n_items = n_items

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""

    @abc.abstractmethod
    def pmf(self) -> List[float]:
        """Probability of each rank (sums to 1)."""

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` independent ranks."""
        if count < 0:
            raise ValueError(f"negative count {count}")
        return [self.sample(rng) for _ in range(count)]

    def expected_counts(self, total_requests: int) -> List[float]:
        """Expected request count per rank for a given workload size
        (the theoretical curve behind Figure 2)."""
        return [p * total_requests for p in self.pmf()]


class GeometricPopularity(PopularityModel):
    """Truncated geometric distribution — the paper's model.

    ``P(rank = k) ∝ (1 - p)^k`` for ``k`` in ``[0, n_items)``.  Sampling is
    by inverse CDF of the truncated distribution, so every draw is O(1)
    and always in range.

    Parameters
    ----------
    n_items:
        Number of datasets.
    p:
        Geometric success probability; larger values concentrate requests
        on fewer datasets.  The paper does not publish its value; 0.02 over
        200 datasets gives a Figure-2-like spread (the hottest dataset gets
        roughly 2% of all requests, the coldest almost none).
    """

    name = "geometric"

    def __init__(self, n_items: int, p: float = 0.02) -> None:
        super().__init__(n_items)
        if not 0 < p < 1:
            raise ValueError(f"p must be in (0, 1), got {p!r}")
        self.p = p
        self._tail = (1 - p) ** n_items  # mass beyond the truncation point

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        # Invert the truncated-geometric CDF:  F(k) = (1 - (1-p)^(k+1)) / (1 - tail)
        k = int(math.floor(
            math.log(1 - u * (1 - self._tail)) / math.log(1 - self.p)))
        return min(k, self.n_items - 1)

    def pmf(self) -> List[float]:
        norm = 1 - self._tail
        return [
            (1 - self.p) ** k * self.p / norm for k in range(self.n_items)
        ]


class ZipfPopularity(PopularityModel):
    """Zipf(``alpha``) popularity (extension; common in trace studies)."""

    name = "zipf"

    def __init__(self, n_items: int, alpha: float = 1.0) -> None:
        super().__init__(n_items)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha!r}")
        self.alpha = alpha
        weights = [1.0 / (k + 1) ** alpha for k in range(n_items)]
        total = sum(weights)
        self._pmf = [w / total for w in weights]
        self._cdf: List[float] = []
        acc = 0.0
        for p in self._pmf:
            acc += p
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard float drift

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        lo, hi = 0, self.n_items - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def pmf(self) -> List[float]:
        return list(self._pmf)


class UniformPopularity(PopularityModel):
    """Every dataset equally likely (extension; no hotspots)."""

    name = "uniform"

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n_items)

    def pmf(self) -> List[float]:
        return [1.0 / self.n_items] * self.n_items


_MODELS = {
    "geometric": GeometricPopularity,
    "zipf": ZipfPopularity,
    "uniform": UniformPopularity,
}
#: Every model name :func:`make_popularity_model` accepts.
POPULARITY_MODELS = tuple(_MODELS)


def make_popularity_model(name: str, n_items: int, **kwargs) -> PopularityModel:
    """Factory by name: ``geometric`` (paper), ``zipf``, ``uniform``."""
    try:
        cls = _MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown popularity model {name!r}; known: {sorted(_MODELS)}"
        ) from None
    return cls(n_items, **kwargs)
