"""Observability layer: request tracing + metrics registry.

The paper's Monitor & Scheduler observes per-container load to drive
dispatch; this subpackage generalizes that into a platform-wide
observability plane:

- :class:`Tracer` — typed spans (``queued``/``boot``/``upload``/
  ``stage``/``execute``/``collect`` + ``connect``/``transfer``/
  ``prepare`` detail) with deterministic sim-time stamps;
- :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms registered by component (dispatcher, warehouse, shared
  I/O layer, links, faults), snapshotable mid-run;
- :class:`Observability` — the per-environment bundle, reachable from
  any component as ``env.obs``.

**Zero cost when disabled**: ``env.obs`` is ``None`` by default and
every instrumentation site guards on that with one attribute check, so
the default experiment suite is unchanged byte-for-byte and, per
``make bench-compare``, within noise on wall-clock.  Enable per
environment (``Observability(env)``), or process-wide for every
future environment with :func:`enable_auto` — which is what the
``rattrap-experiments --trace/--metrics`` flags do.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..sim.core import Environment
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metrics_snapshots,
)
from .tracer import PHASE_KINDS, Span, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "PHASE_KINDS",
    "MetricsRegistry",
    "merge_metrics_snapshots",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "trace_span",
    "metrics_of",
    "tracer_of",
    "enable_auto",
    "disable_auto",
    "auto_flags",
    "absorb",
    "drain",
]


class Observability:
    """Tracing + metrics for one environment; installs as ``env.obs``."""

    def __init__(self, env: Environment, tracing: bool = True, metrics: bool = True):
        self.env = env
        self.tracer: Optional[Tracer] = Tracer(env) if tracing else None
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry() if metrics else None
        env.obs = self

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of everything collected so far."""
        return {
            "sim_now": self.env.now,
            "spans": self.tracer.as_rows() if self.tracer is not None else None,
            "metrics": self.metrics.snapshot() if self.metrics is not None else None,
        }


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def trace_span(env: Environment, kind: str, who: str = "", trace: str = ""):
    """A span context manager, or a shared no-op when tracing is off.

    The disabled path costs one attribute read and one ``is None``
    check — cheap enough for every phase of every request.
    """
    obs = env.obs
    if obs is None or obs.tracer is None:
        return _NULL_SPAN
    return obs.tracer.span(kind, who, trace)


def tracer_of(env: Environment) -> Optional[Tracer]:
    """The environment's tracer, or ``None`` when tracing is off."""
    obs = env.obs
    return None if obs is None else obs.tracer


def metrics_of(env: Environment) -> Optional[MetricsRegistry]:
    """The environment's metrics registry, or ``None`` when disabled."""
    obs = env.obs
    return None if obs is None else obs.metrics


# -- process-wide auto attachment (runner --trace/--metrics) ------------------

#: Observability instances (or already-taken snapshot dicts absorbed
#: from worker processes) accumulated since the last drain()
_auto_created: List[Any] = []

#: (tracing, metrics) while auto-attach is on, else None — lets the
#: experiment engine re-enable identical capture inside pool workers
_auto_flags: Optional[Tuple[bool, bool]] = None


def enable_auto(tracing: bool = True, metrics: bool = True) -> None:
    """Attach an :class:`Observability` to every future Environment.

    Instances accumulate in a module-level list until :func:`drain`
    collects their snapshots — which is how the experiment runner dumps
    per-experiment observability JSON without the experiments knowing.
    """
    global _auto_flags

    def factory(env: Environment) -> Observability:
        obs = Observability(env, tracing=tracing, metrics=metrics)
        _auto_created.append(obs)
        return obs

    _auto_flags = (tracing, metrics)
    Environment.obs_factory = factory


def disable_auto() -> None:
    """Stop auto-attaching; already-created instances keep collecting."""
    global _auto_flags
    _auto_flags = None
    Environment.obs_factory = None
    _auto_created.clear()


def auto_flags() -> Optional[Tuple[bool, bool]]:
    """``(tracing, metrics)`` while auto-attach is on, else ``None``."""
    return _auto_flags


def absorb(snapshots: List[Dict[str, Any]]) -> None:
    """Merge snapshots taken in another process (engine pool workers).

    The dicts join the auto-created list in call order, so a parallel
    run's :func:`drain` output is identical to the serial run's —
    environments appear in cell submission order either way.
    """
    _auto_created.extend(snapshots)


def drain() -> List[Dict[str, Any]]:
    """Snapshots of every auto-created Observability, then forget them."""
    snaps = [
        obs if isinstance(obs, dict) else obs.snapshot() for obs in _auto_created
    ]
    _auto_created.clear()
    return snaps
