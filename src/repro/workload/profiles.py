"""Per-continent access-network profiles.

The paper's per-continent results (Figure 6) are driven by two physical
factors this module models: how far users are from PoPs (handled by
:mod:`repro.edge`) and what their access networks look like — bandwidth,
last-mile latency, loss. Profiles below are calibrated so the synthetic
population reproduces the paper's observations:

- median MinRTT: AF ≈ 58 ms, AS ≈ 51 ms, SA ≈ 40 ms, EU/NA/OC ≈ 25 ms or
  less; global median < 39 ms;
- sessions with HDratio = 0: AF 36%, AS 24%, SA 27%, others well below;
- the long MinRTT tail (seconds-scale) from bufferbloat and poor last
  miles (§3.3).

Each access class gives the *client-side* contribution: downlink rate,
last-mile RTT added on top of the backbone propagation RTT, and a loss
floor. Class mixes differ per continent (mobile-heavy in AF/AS/SA,
fibre/cable-heavy in EU/NA/OC).

The LTE/high-mobility classes (:func:`lte_class`, :func:`rail_class`)
additionally carry jitter and *burst* loss — the correlated fades measured
on high-speed rails — for the congestion-control scenario matrix; they are
exposed through :func:`mobile_profiles` rather than mixed into
:func:`default_profiles`, whose sampled populations are golden-pinned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.edge.geo import Continent
from repro.stats.sampling import Distribution, LogNormal, Mixture, Uniform

__all__ = [
    "AccessClass",
    "AccessProfile",
    "ContinentProfile",
    "default_profiles",
    "lte_class",
    "mobile_profiles",
    "rail_class",
]


@dataclass(frozen=True)
class AccessClass:
    """One access technology's parameters.

    ``jitter_ms`` and ``burst_loss`` default to ``None`` (not "a
    distribution of zero"): sampling draws from the RNG only for classes
    that define them, so adding these fields did not shift the random
    stream — and therefore the golden populations — of the pre-existing
    classes.
    """

    name: str
    downlink_mbps: Distribution
    last_mile_rtt_ms: Distribution
    loss_probability: Distribution
    jitter_ms: Optional[Distribution] = None
    burst_loss: Optional[Distribution] = None

    def sample(self, rng: random.Random) -> "AccessProfile":
        profile = AccessProfile(
            technology=self.name,
            downlink_mbps=max(self.downlink_mbps.sample(rng), 0.05),
            last_mile_rtt_ms=max(self.last_mile_rtt_ms.sample(rng), 0.2),
            loss_probability=min(max(self.loss_probability.sample(rng), 0.0), 0.3),
        )
        if self.jitter_ms is None and self.burst_loss is None:
            return profile
        jitter = (
            max(self.jitter_ms.sample(rng), 0.0)
            if self.jitter_ms is not None
            else 0.0
        )
        burst = (
            min(max(self.burst_loss.sample(rng), 0.0), 0.3)
            if self.burst_loss is not None
            else 0.0
        )
        return AccessProfile(
            technology=profile.technology,
            downlink_mbps=profile.downlink_mbps,
            last_mile_rtt_ms=profile.last_mile_rtt_ms,
            loss_probability=profile.loss_probability,
            jitter_ms=jitter,
            burst_loss_probability=burst,
        )


@dataclass(frozen=True)
class AccessProfile:
    """A single client's sampled access-network condition."""

    technology: str
    downlink_mbps: float
    last_mile_rtt_ms: float
    loss_probability: float
    jitter_ms: float = 0.0
    burst_loss_probability: float = 0.0


@dataclass(frozen=True)
class ContinentProfile:
    """Mixture of access classes for one continent.

    ``last_mile_scale`` multiplies the sampled last-mile RTT and
    ``loss_scale`` the sampled loss probability — regional infrastructure
    quality knobs used to pin the per-continent medians of Figure 6.
    """

    continent: Continent
    classes: Sequence[Tuple[float, AccessClass]]
    last_mile_scale: float = 1.0
    loss_scale: float = 1.0

    def draw_class(self, rng: random.Random) -> AccessClass:
        """Pick an access class according to the continent's mix."""
        roll = rng.random()
        total = sum(weight for weight, _ in self.classes)
        cumulative = 0.0
        for weight, access_class in self.classes:
            cumulative += weight / total
            if roll <= cumulative:
                return access_class
        return self.classes[-1][1]

    def sample_from_class(
        self, access_class: AccessClass, rng: random.Random
    ) -> AccessProfile:
        """Sample a client profile from a given class, applying the
        continent's infrastructure scales."""
        profile = access_class.sample(rng)
        if self.last_mile_scale == 1.0 and self.loss_scale == 1.0:
            return profile
        return AccessProfile(
            technology=profile.technology,
            downlink_mbps=profile.downlink_mbps,
            last_mile_rtt_ms=profile.last_mile_rtt_ms * self.last_mile_scale,
            loss_probability=min(profile.loss_probability * self.loss_scale, 0.3),
            jitter_ms=profile.jitter_ms,
            burst_loss_probability=profile.burst_loss_probability,
        )

    def sample(self, rng: random.Random) -> AccessProfile:
        return self.sample_from_class(self.draw_class(rng), rng)


def _fiber() -> AccessClass:
    return AccessClass(
        name="fiber",
        downlink_mbps=LogNormal(mu=4.0, sigma=0.6, low=20.0, high=1000.0),
        last_mile_rtt_ms=Uniform(1.0, 5.0),
        loss_probability=Uniform(0.0, 0.001),
    )


def _cable() -> AccessClass:
    return AccessClass(
        name="cable",
        downlink_mbps=LogNormal(mu=3.2, sigma=0.7, low=8.0, high=500.0),
        last_mile_rtt_ms=Uniform(3.0, 12.0),
        loss_probability=Uniform(0.0, 0.004),
    )


def _dsl() -> AccessClass:
    return AccessClass(
        name="dsl",
        downlink_mbps=LogNormal(mu=2.0, sigma=0.7, low=1.0, high=60.0),
        last_mile_rtt_ms=Uniform(8.0, 30.0),
        loss_probability=Uniform(0.0, 0.008),
    )


def _mobile_good() -> AccessClass:
    """4G in decent coverage."""
    return AccessClass(
        name="mobile-4g",
        downlink_mbps=LogNormal(mu=2.3, sigma=0.8, low=1.0, high=150.0),
        last_mile_rtt_ms=LogNormal(mu=3.0, sigma=0.5, low=10.0, high=150.0),
        loss_probability=Uniform(0.0, 0.01),
    )


def _mobile_weak() -> AccessClass:
    """2G/3G or congested 4G — the non-HD-capable population."""
    return AccessClass(
        name="mobile-3g",
        downlink_mbps=LogNormal(mu=0.2, sigma=0.9, low=0.1, high=4.0),
        last_mile_rtt_ms=LogNormal(mu=4.0, sigma=0.6, low=30.0, high=2000.0),
        loss_probability=Uniform(0.005, 0.04),
    )


def _satellite() -> AccessClass:
    return AccessClass(
        name="satellite",
        downlink_mbps=LogNormal(mu=1.8, sigma=0.5, low=1.0, high=30.0),
        last_mile_rtt_ms=Uniform(450.0, 650.0),
        loss_probability=Uniform(0.001, 0.02),
    )


def lte_class() -> AccessClass:
    """LTE in decent coverage, with the radio's jitter and burst fades.

    The active-passive LTE studies show last-mile RTT variance (handover
    and scheduler-induced jitter in the tens of milliseconds) and loss that
    arrives in bursts rather than i.i.d. — the regime where loss-based
    congestion control collapses and rate-based control holds goodput.
    """
    return AccessClass(
        name="mobile-lte",
        downlink_mbps=LogNormal(mu=2.8, sigma=0.7, low=2.0, high=200.0),
        last_mile_rtt_ms=LogNormal(mu=3.2, sigma=0.5, low=15.0, high=200.0),
        loss_probability=Uniform(0.0, 0.005),
        jitter_ms=Uniform(5.0, 40.0),
        burst_loss=Uniform(0.001, 0.01),
    )


def rail_class() -> AccessClass:
    """High-mobility LTE (high-speed rail): deep correlated fades.

    Frequent handovers at speed produce loss trains and seconds-scale RTT
    spikes; the mean burst is longer and the entry probability higher than
    stationary LTE.
    """
    return AccessClass(
        name="mobile-rail",
        downlink_mbps=LogNormal(mu=1.8, sigma=0.9, low=0.5, high=100.0),
        last_mile_rtt_ms=LogNormal(mu=3.8, sigma=0.7, low=25.0, high=800.0),
        loss_probability=Uniform(0.001, 0.01),
        jitter_ms=Uniform(15.0, 80.0),
        burst_loss=Uniform(0.005, 0.03),
    )


def mobile_profiles() -> Dict[str, AccessClass]:
    """The mobile/high-loss classes of the CC scenario matrix, by name.

    Kept separate from :func:`default_profiles` so the golden-pinned
    continent populations are untouched; the CC-matrix ablation samples
    these directly.
    """
    return {
        "lte": lte_class(),
        "rail": rail_class(),
    }


def default_profiles() -> Dict[Continent, ContinentProfile]:
    """Access-class mixes per continent, calibrated to Figure 6(c).

    Weak-mobile shares approximate the HDratio=0 fractions the paper
    reports (AF 36%, AS 24%, SA 27%), with small additions from DSL/
    satellite tails elsewhere.
    """
    C = Continent
    return {
        C.EUROPE: ContinentProfile(
            C.EUROPE,
            (
                (0.36, _fiber()),
                (0.26, _cable()),
                (0.15, _dsl()),
                (0.16, _mobile_good()),
                (0.07, _mobile_weak()),
            ),
            last_mile_scale=1.5,
            loss_scale=1.5,
        ),
        C.NORTH_AMERICA: ContinentProfile(
            C.NORTH_AMERICA,
            (
                (0.28, _fiber()),
                (0.34, _cable()),
                (0.12, _dsl()),
                (0.17, _mobile_good()),
                (0.08, _mobile_weak()),
                (0.01, _satellite()),
            ),
            last_mile_scale=1.7,
            loss_scale=1.5,
        ),
        C.OCEANIA: ContinentProfile(
            C.OCEANIA,
            (
                (0.25, _fiber()),
                (0.28, _cable()),
                (0.22, _dsl()),
                (0.18, _mobile_good()),
                (0.06, _mobile_weak()),
                (0.01, _satellite()),
            ),
            last_mile_scale=1.0,
            loss_scale=1.3,
        ),
        C.ASIA: ContinentProfile(
            C.ASIA,
            (
                (0.15, _fiber()),
                (0.11, _cable()),
                (0.14, _dsl()),
                (0.32, _mobile_good()),
                (0.28, _mobile_weak()),
            ),
            last_mile_scale=1.4,
            loss_scale=2.0,
        ),
        C.SOUTH_AMERICA: ContinentProfile(
            C.SOUTH_AMERICA,
            (
                (0.11, _fiber()),
                (0.17, _cable()),
                (0.18, _dsl()),
                (0.23, _mobile_good()),
                (0.31, _mobile_weak()),
            ),
            last_mile_scale=1.1,
            loss_scale=1.8,
        ),
        C.AFRICA: ContinentProfile(
            C.AFRICA,
            (
                (0.03, _fiber()),
                (0.05, _cable()),
                (0.13, _dsl()),
                (0.36, _mobile_good()),
                (0.41, _mobile_weak()),
                (0.02, _satellite()),
            ),
            last_mile_scale=0.95,
            loss_scale=2.2,
        ),
    }
