"""Measurement probes for simulations.

Fig. 2 of the paper plots server CPU utilization and disk I/O at one-
second granularity; Fig. 1 needs per-request phase timelines.  The
classes here collect those series without the model code knowing how
they will be aggregated.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["TimeSeries", "Counter", "UtilizationTracker", "RateTracker"]


class TimeSeries:
    """Append-only (time, value) series with step-function semantics.

    ``value_at(t)`` returns the most recent sample at or before ``t`` —
    the natural reading for state variables like "containers running"
    or "memory reserved".
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample (times must be non-decreasing)."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"non-monotonic sample at t={time} (last t={self._times[-1]})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values)

    def value_at(self, time: float) -> float:
        """Step-function lookup; 0.0 before the first sample."""
        idx = bisect.bisect_right(self._times, time) - 1
        return self._values[idx] if idx >= 0 else 0.0

    def resample(self, t0: float, t1: float, dt: float = 1.0) -> np.ndarray:
        """Sample the step function on a regular grid [t0, t1) with step dt."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        grid = np.arange(t0, t1, dt)
        return np.array([self.value_at(t) for t in grid])

    def time_average(self, t0: float, t1: float) -> float:
        """Exact time-weighted mean of the step function over [t0, t1]."""
        if t1 <= t0:
            raise ValueError("t1 must exceed t0")
        total = 0.0
        prev_t, prev_v = t0, self.value_at(t0)
        start = bisect.bisect_right(self._times, t0)
        for t, v in zip(self._times[start:], self._values[start:]):
            if t >= t1:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
        total += prev_v * (t1 - prev_t)
        return total / (t1 - t0)


class Counter:
    """Monotone event counter with timestamped increments."""

    def __init__(self, name: str = ""):
        self.name = name
        self._events: List[Tuple[float, float]] = []
        self.total = 0.0

    def add(self, time: float, amount: float = 1.0) -> None:
        """Record ``amount`` occurring at ``time``."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        self._events.append((float(time), float(amount)))
        self.total += amount

    def __len__(self) -> int:
        return len(self._events)

    def rate_series(self, t0: float, t1: float, dt: float = 1.0) -> np.ndarray:
        """Amount accumulated per ``dt``-wide bin over [t0, t1) — e.g. MB/s."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        nbins = max(0, int(math.ceil((t1 - t0) / dt)))
        bins = np.zeros(nbins)
        for t, amount in self._events:
            if t0 <= t < t1:
                bins[int((t - t0) // dt)] += amount
        return bins / dt


class UtilizationTracker:
    """Tracks busy-capacity of a multi-unit resource over time.

    Feed it ``acquire``/``release`` transitions; read back a percent-
    utilization series (CPU in Fig. 2 is this over 12 cores... the
    paper normalizes to 100 %).
    """

    def __init__(self, env: "Environment", capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.series = TimeSeries(name)
        self._busy = 0.0
        self.series.record(env.now, 0.0)

    @property
    def busy(self) -> float:
        return self._busy

    def acquire(self, amount: float = 1.0) -> None:
        """Mark ``amount`` of capacity busy."""
        self._busy += amount
        if self._busy > self.capacity + 1e-9:
            raise ValueError("utilization exceeded capacity")
        self.series.record(self.env.now, self._busy)

    def release(self, amount: float = 1.0) -> None:
        """Return ``amount`` of busy capacity."""
        self._busy -= amount
        if self._busy < -1e-9:
            raise ValueError("released more than acquired")
        self._busy = max(self._busy, 0.0)
        self.series.record(self.env.now, self._busy)

    def percent_series(self, t0: float, t1: float, dt: float = 1.0) -> np.ndarray:
        """Utilization percent sampled on a regular grid."""
        return 100.0 * self.series.resample(t0, t1, dt) / self.capacity

    def mean_percent(self, t0: float, t1: float) -> float:
        """Exact time-weighted mean utilization percent over a window."""
        return 100.0 * self.series.time_average(t0, t1) / self.capacity


class RateTracker:
    """Byte counter pair (read/write) convertible to MB/s series (Fig. 2)."""

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.reads = Counter(f"{name}.reads")
        self.writes = Counter(f"{name}.writes")

    def read(self, nbytes: float) -> None:
        """Record ``nbytes`` read now."""
        self.reads.add(self.env.now, nbytes)

    def write(self, nbytes: float) -> None:
        """Record ``nbytes`` written now."""
        self.writes.add(self.env.now, nbytes)

    def mbps_series(self, t0: float, t1: float, dt: float = 1.0) -> Dict[str, np.ndarray]:
        """Read/write MB-per-second series on a regular grid."""
        scale = 1.0 / (1024.0 * 1024.0)
        return {
            "read": self.reads.rate_series(t0, t1, dt) * scale,
            "write": self.writes.rate_series(t0, t1, dt) * scale,
        }
