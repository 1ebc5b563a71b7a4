"""Seeded random-variate machinery for the synthetic workload generator.

The workload models in :mod:`repro.workload` are calibrated against the
quantiles the paper publishes (e.g. "50% of objects fetched are less than
3 KB", "7.4% of sessions last less than a second"). The helpers here make
that calibration direct:

- :func:`lognormal_from_quantiles` solves for the (mu, sigma) of a lognormal
  that passes through two target quantiles, so a distribution can be pinned
  to two published CDF points.
- :class:`Mixture` composes weighted component distributions, which is how
  the paper's visibly multi-modal distributions (session bytes, HDratio) are
  produced.
- Everything draws from an injected ``random.Random`` so scenarios are fully
  reproducible from a single seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "Distribution",
    "Uniform",
    "LogNormal",
    "Pareto",
    "Mixture",
    "lognormal_from_quantiles",
    "normal_quantile_unit",
]

from repro.stats.median_ci import normal_quantile as normal_quantile_unit


class Distribution:
    """A samplable scalar distribution with optional truncation bounds."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Distribution):
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("high must be >= low")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Lognormal parameterized by the underlying normal's mu/sigma.

    ``low``/``high`` clamp samples — used to keep e.g. response sizes within
    physically sensible bounds without distorting the body of the
    distribution.
    """

    mu: float
    sigma: float
    low: float = 0.0
    high: float = math.inf

    def sample(self, rng: random.Random) -> float:
        # exp(gauss) rather than lognormvariate: identical distribution,
        # measurably faster (gauss skips normalvariate's rejection loop),
        # and this is the hottest sampler in trace generation.
        value = math.exp(rng.gauss(self.mu, self.sigma))
        return min(max(value, self.low), self.high)

    @property
    def median(self) -> float:
        return math.exp(self.mu)


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto (heavy tail) with scale ``xm`` and shape ``alpha``."""

    xm: float
    alpha: float
    high: float = math.inf

    def sample(self, rng: random.Random) -> float:
        value = self.xm * (1.0 - rng.random()) ** (-1.0 / self.alpha)
        return min(value, self.high)


class Mixture(Distribution):
    """Weighted mixture of component distributions.

    >>> rng = random.Random(7)
    >>> m = Mixture([(0.5, Uniform(1.0, 1.0)), (0.5, Uniform(2.0, 2.0))])
    >>> {m.sample(rng) for _ in range(100)} == {1.0, 2.0}
    True
    """

    def __init__(self, components: Sequence[Tuple[float, Distribution]]):
        if not components:
            raise ValueError("mixture needs at least one component")
        total = sum(weight for weight, _ in components)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self._components = [(weight / total, dist) for weight, dist in components]

    def sample(self, rng: random.Random) -> float:
        roll = rng.random()
        cumulative = 0.0
        for weight, dist in self._components:
            cumulative += weight
            if roll <= cumulative:
                return dist.sample(rng)
        return self._components[-1][1].sample(rng)

    @property
    def components(self) -> List[Tuple[float, Distribution]]:
        return list(self._components)


def lognormal_from_quantiles(
    q1: float, x1: float, q2: float, x2: float,
    low: float = 0.0, high: float = math.inf,
) -> LogNormal:
    """Fit a lognormal through two quantile points.

    Solves for (mu, sigma) such that ``P(X <= x1) = q1`` and
    ``P(X <= x2) = q2``. For a lognormal, ``ln X`` is Normal(mu, sigma), so
    ``ln x = mu + sigma * z(q)`` gives two linear equations.

    >>> d = lognormal_from_quantiles(0.5, 3000.0, 0.9, 50000.0)
    >>> abs(d.median - 3000.0) < 1e-6
    True
    """
    if not (0.0 < q1 < 1.0 and 0.0 < q2 < 1.0):
        raise ValueError("quantiles must be in (0, 1)")
    if q1 == q2:
        raise ValueError("quantiles must differ")
    if x1 <= 0 or x2 <= 0:
        raise ValueError("lognormal quantile values must be positive")
    z1 = normal_quantile_unit(q1)
    z2 = normal_quantile_unit(q2)
    sigma = (math.log(x2) - math.log(x1)) / (z2 - z1)
    if sigma <= 0:
        raise ValueError("quantile points imply non-increasing CDF")
    mu = math.log(x1) - sigma * z1
    return LogNormal(mu=mu, sigma=sigma, low=low, high=high)
