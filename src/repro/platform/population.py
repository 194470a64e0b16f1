"""Mesoscale device populations: analytic arrival aggregates.

The discrete serve path costs dozens of kernel events per request —
fine for 10k devices, hopeless for a million.  This module makes the
same move for *device populations* that
:class:`~repro.network.link.FluidChannel` made for flows: replace
per-entity events with piecewise-linear aggregates, so kernel events
fire only at **rate-change points** (population start, saturation,
drain-out) plus a fixed observability cadence — O(sim-duration), not
O(devices).

A :class:`PopulationSource` models ``n`` cold devices submitting one
request each at a deterministic spacing ``1/rate`` (the same open-loop
schedule the discrete scale experiment uses).  Service is a fluid
queue with capacity ``capacity_req_s``: with ``rho = min(rate,
capacity)`` the i-th completion lands at ``start + i/rho +
base_response_s``, which is exact for the deterministic D/D/fluid
system and gives closed forms for backlog, in-flight count, mean wait
and end time.  ``base_response_s`` is *calibrated from the discrete
model* — the caller measures one warm probe request in an identical
zone and hands the measured response in — so the uncontended mesoscale
cell reproduces discrete response times exactly, not just in shape.

Conserved totals are exact by construction: every device completes, so
``completed == n``, bytes are ``n ×`` the per-request message sizes
(the identical integers the discrete path moves for a warm cache), and
radio energy follows from bytes and bandwidth because fluid fair
sharing conserves total airtime.  The anchor-cell test in
``tests/test_megascale.py`` pins this against the fully discrete
model.

The aggregate keeps the rest of the platform honest too: each tick it
feeds its arrival count into the node's
:class:`~repro.platform.scheduler.WarmPoolPredictor` (via
``observe_aggregate``) and the metrics registry, so predictive warm
pools and dashboards behave as if the crowd were discrete.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..obs import metrics_of
from ..offload.messages import result_message, upload_messages

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.process import Process
    from ..workloads.base import WorkloadProfile
    from .scheduler import WarmPoolPredictor

__all__ = ["PopulationSource", "per_request_bytes"]


def per_request_bytes(profile: "WorkloadProfile") -> Tuple[int, int]:
    """(upload, download) goodput bytes of one warm-cache request.

    Exactly the integers the discrete serve path moves once the app's
    code is cached: files + parameters + control up, the result down.
    """
    up = sum(m.size_bytes for m in upload_messages(profile, include_code=False))
    return up, result_message(profile).size_bytes


class PopulationSource:
    """Fluid aggregate of ``n`` cold devices offloading one request each.

    Events scale with sim duration (one per ``tick_s`` while active),
    never with ``n``; all per-device quantities are closed-form.
    """

    def __init__(
        self,
        env: "Environment",
        profile: "WorkloadProfile",
        n: int,
        rate_req_s: float,
        start_s: float,
        base_response_s: float,
        capacity_req_s: float,
        predictor: Optional["WarmPoolPredictor"] = None,
        tick_s: float = 1.0,
        name: str = "population",
        cache_hit_rate: float = 0.0,
        hit_response_s: Optional[float] = None,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        if rate_req_s <= 0 or capacity_req_s <= 0:
            raise ValueError("rate_req_s and capacity_req_s must be positive")
        if base_response_s <= 0:
            raise ValueError("base_response_s must be positive")
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if not (0.0 <= cache_hit_rate <= 1.0):
            raise ValueError("cache_hit_rate must be in [0, 1]")
        if hit_response_s is not None and hit_response_s <= 0:
            raise ValueError("hit_response_s must be positive")
        self.env = env
        self.profile = profile
        self.n = int(n)
        self.rate = float(rate_req_s)
        self.start_s = float(start_s)
        self.base_response_s = float(base_response_s)
        self.capacity = float(capacity_req_s)
        self.predictor = predictor
        self.tick_s = float(tick_s)
        self.name = name
        #: effective completion rate of the fluid queue
        self.rho = min(self.rate, self.capacity)
        #: compute-cache closed form: this fraction of the population's
        #: requests is served from the result cache (calibrated hit
        #: response ``hit_response_s`` instead of ``base_response_s``).
        #: The drain schedule stays paced by the *miss* response — a
        #: conservative bound, exact at hit rate 0 — while the mean
        #: response and hit accounting use the mixture.
        self.cache_hit_rate = float(cache_hit_rate)
        self.hit_response_s = (
            float(hit_response_s) if hit_response_s is not None else self.base_response_s
        )
        self.bytes_up_each, self.bytes_down_each = per_request_bytes(profile)
        self._settled_arrivals = 0
        self._settled_completions = 0
        self._settled_hits = 0
        self._proc: Optional["Process"] = None

    # -- closed forms ---------------------------------------------------------
    def completion_time(self, i: int) -> float:
        """Analytic completion instant of device ``i``.

        For ``rate <= capacity`` each request rides through unqueued
        (``arrival + base``); past saturation completions pace at the
        capacity, which is the exact fluid limit of the deterministic
        queue: ``start + i/rho + base``.
        """
        return self.start_s + i / self.rho + self.base_response_s

    def arrived(self, t: float) -> int:
        """Devices that have submitted by time ``t``."""
        if t < self.start_s:
            return 0
        return min(self.n, int(math.floor((t - self.start_s) * self.rate + 1e-9)) + 1)

    def completed_by(self, t: float) -> int:
        """Devices whose requests have completed by time ``t``."""
        dt = t - self.start_s - self.base_response_s
        if dt < 0:
            return 0
        return min(self.n, int(math.floor(dt * self.rho + 1e-9)) + 1)

    @property
    def end_time_s(self) -> float:
        """Instant the last request completes."""
        return self.completion_time(self.n - 1)

    @property
    def mean_wait_s(self) -> float:
        """Mean fluid queueing delay (0 below saturation)."""
        if self.rate <= self.capacity:
            return 0.0
        return (self.n - 1) / 2.0 * (1.0 / self.capacity - 1.0 / self.rate)

    @property
    def mean_response_s(self) -> float:
        """Mean end-to-end response: calibrated base + fluid wait.

        With a cache hit rate ``h`` the base is the closed-form mixture
        ``h * hit_response_s + (1 - h) * base_response_s``.
        """
        h = self.cache_hit_rate
        base = h * self.hit_response_s + (1.0 - h) * self.base_response_s
        return base + self.mean_wait_s

    def hits_by_completed(self, completed: int) -> int:
        """Cache hits among the first ``completed`` completions.

        Deterministic Bresenham spread of the hit rate over the
        completion sequence, so incremental settlement conserves the
        total exactly: ``hits_by_completed(n) == floor(h * n)``.
        """
        return int(math.floor(self.cache_hit_rate * completed + 1e-9))

    @property
    def completed(self) -> int:
        """Completions settled into the counters so far."""
        return self._settled_completions

    @property
    def cache_hits(self) -> int:
        """Cache hits settled into the counters so far."""
        return self._settled_hits

    def start(self) -> "Process":
        """Spawn the tick process (idempotent); returns it."""
        if self._proc is None:
            self._proc = self.env.process(self._run(self.env))
        return self._proc

    def _settle(self, t: float) -> None:
        """Fold arrivals/completions up to ``t`` into counters and feeds."""
        arrivals = self.arrived(t)
        completions = self.completed_by(t)
        hits = self.hits_by_completed(completions)
        new_arrivals = arrivals - self._settled_arrivals
        new_completions = completions - self._settled_completions
        new_hits = hits - self._settled_hits
        self._settled_arrivals = arrivals
        self._settled_completions = completions
        self._settled_hits = hits
        if new_arrivals and self.predictor is not None:
            self.predictor.observe_aggregate(self.profile.name, new_arrivals)
        metrics = metrics_of(self.env)
        if metrics is not None:
            if new_arrivals:
                metrics.counter("population.arrivals").inc(new_arrivals)
            if new_completions:
                metrics.counter("population.completed").inc(new_completions)
                metrics.counter("population.bytes_up").inc(
                    new_completions * self.bytes_up_each
                )
                metrics.counter("population.bytes_down").inc(
                    new_completions * self.bytes_down_each
                )
            if new_hits:
                metrics.counter("population.cache_hits").inc(new_hits)
            metrics.gauge("population.inflight").set(arrivals - completions)

    def _run(self, env: "Environment"):
        """Tick process: O(duration / tick_s) events, none per device.

        When nothing consumes the per-tick feed — no predictor and no
        metrics registry — the run coalesces into a single wake at
        ``end_time_s``: the closed forms make intermediate settlement
        pure bookkeeping, and a tick-free population leaves the shard
        heap empty between epochs so the sharded kernel's idle-epoch
        skipping (:mod:`repro.sim.shard`) can elide the sync barriers.
        """
        if self.start_s > env.now:
            yield env.timeout(self.start_s - env.now)
        if self.predictor is None and metrics_of(env) is None:
            yield env.timeout(max(self.end_time_s - env.now, 1e-9))
            self._settle(self.end_time_s)
            return
        while self._settled_completions < self.n:
            remaining = self.end_time_s - env.now
            yield env.timeout(min(self.tick_s, max(remaining, 1e-9)))
            t = env.now
            if t >= self.end_time_s - 1e-9:
                t = self.end_time_s  # final settlement: exact totals
            self._settle(t)

    def summary(self) -> Dict[str, Any]:
        """Picklable aggregate record (what shard finalizers return)."""
        return {
            "name": self.name,
            "devices": self.n,
            "completed": self.completed,
            "bytes_up": self.completed * self.bytes_up_each,
            "bytes_down": self.completed * self.bytes_down_each,
            "mean_response_s": self.mean_response_s,
            "mean_wait_s": self.mean_wait_s,
            "end_time_s": self.end_time_s,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_hits": self.cache_hits,
        }
