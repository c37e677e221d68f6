"""Per-device speed profiles: the first heterogeneity source.

§I: "The clock rate and memory latency display oscillations on GPUs with the
same model from the same vendor... the gap between the fastest and slowest
GPU is as large as 32%" (Figure 1). A :class:`SpeedProfile` models a
device's relative performance as a function of simulated time:

``speed(t) = base × (1 + osc_amp · sin(2π t / osc_period + phase)) × jitter(t)``

where ``jitter`` is a slowly-varying bounded random walk resampled every
``jitter_interval`` seconds. All draws come from a dedicated stream, so a
device's timing trace is deterministic in the experiment seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gpu.churn import CHURN_PRESETS, churn_preset_names
from repro.utils.rng import RngFactory
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "SpeedProfile",
    "ThrottledProfile",
    "CHURN_PRESETS",
    "churn_preset_names",
    "make_heterogeneous_profiles",
    "make_uniform_profiles",
]

@dataclass
class SpeedProfile:
    """Deterministic time-varying speed multiplier for one device."""

    base: float = 1.0
    osc_amplitude: float = 0.03
    osc_period_s: float = 7.0
    phase: float = 0.0
    jitter_amplitude: float = 0.02
    jitter_interval_s: float = 2.0
    seed: int = 0
    _jitter_cache: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        check_positive("base", self.base)
        check_in_range("osc_amplitude", self.osc_amplitude, 0.0, 0.5)
        check_positive("osc_period_s", self.osc_period_s)
        check_in_range("jitter_amplitude", self.jitter_amplitude, 0.0, 0.5)
        check_positive("jitter_interval_s", self.jitter_interval_s)
        self._rng = RngFactory(self.seed).get("speed-jitter")

    def _jitter(self, t: float) -> float:
        """Piecewise-constant bounded random walk, extended lazily."""
        if self.jitter_amplitude == 0.0:
            return 1.0
        index = int(t // self.jitter_interval_s)
        while len(self._jitter_cache) <= index:
            previous = self._jitter_cache[-1] if self._jitter_cache else 0.0
            step = float(self._rng.normal(0.0, self.jitter_amplitude / 2.0))
            walk = float(
                np.clip(previous + step, -self.jitter_amplitude, self.jitter_amplitude)
            )
            self._jitter_cache.append(walk)
        return 1.0 + self._jitter_cache[index]

    def speed(self, t: float) -> float:
        """Relative speed multiplier at simulated time ``t`` (always > 0)."""
        if t < 0:
            raise ConfigurationError(f"time must be >= 0, got {t}")
        osc = 1.0 + self.osc_amplitude * math.sin(
            2.0 * math.pi * t / self.osc_period_s + self.phase
        )
        return self.base * osc * self._jitter(t)


@dataclass
class ThrottledProfile:
    """Fault injection: step changes layered over a base speed profile.

    Models events the paper's heterogeneity sources imply but its testbed
    did not isolate — thermal throttling, a co-tenant grabbing the device,
    recovery after cooling. ``events`` is a list of ``(time, factor)``
    pairs: from ``time`` onward the base profile's speed is multiplied by
    ``factor`` until the next event. Used by the resilience tests/examples
    to show Adaptive SGD re-balancing around a mid-run slowdown (and
    Elastic SGD not).
    """

    base_profile: SpeedProfile
    events: List[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        last_t = -1.0
        for t, factor in self.events:
            if t < 0 or t <= last_t:
                raise ConfigurationError(
                    f"throttle events must have strictly increasing, "
                    f"non-negative times: {self.events}"
                )
            if not (factor > 0):
                raise ConfigurationError(
                    f"throttle factor must be > 0, got {factor}"
                )
            last_t = t

    @property
    def base(self) -> float:
        """Nominal base multiplier (delegates to the wrapped profile)."""
        return self.base_profile.base

    def speed(self, t: float) -> float:
        """Base profile speed times the most recent event's factor."""
        factor = 1.0
        for event_time, event_factor in self.events:
            if t >= event_time:
                factor = event_factor
            else:
                break
        return self.base_profile.speed(t) * factor


def make_heterogeneous_profiles(
    n: int,
    *,
    max_gap: float = 0.32,
    osc_amplitude: float = 0.03,
    jitter_amplitude: float = 0.02,
    seed: int = 0,
) -> List[SpeedProfile]:
    """Profiles for ``n`` same-model GPUs with a fastest↔slowest base gap.

    Base speeds are spread so the slowest device is ``(1 - max_gap)`` of the
    fastest (matching Figure 1's 32% observation at the default), with the
    intermediate devices evenly placed and a small random shuffle of the
    assignment so device id does not encode rank.
    """
    if n < 1:
        raise ConfigurationError(f"need >= 1 device, got {n}")
    check_in_range("max_gap", max_gap, 0.0, 0.9)
    rng = RngFactory(seed).get("profile-assignment")
    if n == 1:
        bases = np.array([1.0])
    else:
        bases = np.linspace(1.0, 1.0 - max_gap, n)
    order = rng.permutation(n)
    profiles = []
    for device_id in range(n):
        profiles.append(
            SpeedProfile(
                base=float(bases[order[device_id]]),
                osc_amplitude=osc_amplitude,
                osc_period_s=5.0 + 2.0 * float(rng.random()),
                phase=float(rng.random() * 2.0 * math.pi),
                jitter_amplitude=jitter_amplitude,
                seed=int(rng.integers(2**31)),
            )
        )
    return profiles


def make_uniform_profiles(n: int, *, seed: int = 0) -> List[SpeedProfile]:
    """Idealized homogeneous devices (no skew, no oscillation, no jitter).

    Useful as the control in ablations: with these profiles Adaptive SGD and
    Elastic SGD should behave near-identically.
    """
    if n < 1:
        raise ConfigurationError(f"need >= 1 device, got {n}")
    return [
        SpeedProfile(
            base=1.0, osc_amplitude=0.0, jitter_amplitude=0.0, seed=seed + i
        )
        for i in range(n)
    ]
