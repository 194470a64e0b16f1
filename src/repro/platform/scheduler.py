"""Monitor & Scheduler: process-level resource scheduling (Fig. 4).

The paper contrasts Rattrap's scheduling granularity with VM clouds:
"Monitor & Scheduler conducts resource scheduling at process-level,
rather than at VM-level in existing platforms".  Here that means the
scheduler sees every request (a process inside a container), tracks
per-runtime concurrency, and picks targets by instantaneous load.

The predictive extension adds a control loop inside the same server:
a :class:`WarmPoolPredictor` watches per-app arrival-rate EWMAs and
its own dispatcher's pending cold boots, and keeps a warm-container
pool sized to the demand forecast, so a cold-start wave lands on
pre-booted CACs instead of stalling behind fresh boots.  Dispatch
becomes *tail-aware* at the same time:
:meth:`MonitorScheduler.pick_least_loaded` ranks warm candidates by a
decayed per-runtime response p95 the scheduler keeps itself, steering
traffic away from containers whose tail latency is drifting.  Both
signals live on the node; the metrics registry, when attached, only
receives exports.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..obs import Histogram, metrics_of
from ..obs.metrics import Gauge, MetricsRegistry
from .container_db import ContainerDB, ContainerRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment, Ticker
    from .base import CloudPlatform

__all__ = [
    "MonitorScheduler",
    "ArrivalRateEWMA",
    "PredictiveConfig",
    "WarmPoolPredictor",
]

#: EWMA smoothing applied to each runtime's response p95
TAIL_GAMMA = 0.2
#: safety multiplier on the expected arrivals-per-boot-window
HEADROOM = 1.5
#: drain the pool once expected arrivals-per-boot-window falls below
#: this (and the hold window has lapsed) — the low edge of the
#: hysteresis band; the high edge is any positive demand
LOW_WATERMARK = 0.05
#: samples of the dispatcher's pending cold boots kept for the trend boost
TREND_WINDOW = 5
#: ticks a quiet run stops short of the first tick whose target could
#: change (a decaying demand crossing an edge, a hold window lapsing),
#: so float drift in that forecast can only cost a slow tick
QUIET_MARGIN = 2


class MonitorScheduler:
    """Tracks request concurrency and schedules among ready runtimes."""

    def __init__(self, env: "Environment", db: ContainerDB):
        self.env = env
        self.db = db
        self._active = 0
        self.peak_active = 0
        #: tail-aware ranking: when True (predictive platforms) every
        #: response feeds :meth:`note_response`, and a candidate's
        #: decayed p95 outranks raw load
        self.tail_ranking = False
        self._response_s: Dict[str, Histogram] = {}
        self._tail_p95: Dict[str, float] = {}

    # -- monitoring ------------------------------------------------------------
    def request_started(self, cid: str) -> None:
        """A request entered the runtime; update load accounting."""
        self.db.begin_request(cid)
        self._active += 1
        self.peak_active = max(self.peak_active, self._active)
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.gauge("scheduler.active_requests").set(self._active)

    def request_finished(self, cid: str) -> None:
        """A request left the runtime; update load accounting."""
        self.db.end_request(cid)
        self.db.get(cid).last_used = self.env.now
        self._active -= 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.gauge("scheduler.active_requests").set(self._active)

    def note_response(self, cid: str, response_s: float) -> None:
        """Fold one end-to-end response into the runtime's tail estimate.

        Feeds this scheduler's own histogram for the runtime and keeps a
        decayed copy of its p95, which is what tail-aware ranking sorts
        by.  The histograms are per node: cids repeat across the nodes
        of a cluster, so a shared registry could not keep them apart.
        """
        hist = self._response_s.get(cid)
        if hist is None:
            hist = self._response_s[cid] = Histogram(cid)
        hist.observe(response_s)
        p95 = hist.quantile(0.95)
        prev = self._tail_p95.get(cid)
        self._tail_p95[cid] = p95 if prev is None else prev + TAIL_GAMMA * (p95 - prev)

    def tail_p95(self, cid: str) -> float:
        """Decayed response-time p95 for a runtime (0.0 = no data yet)."""
        return self._tail_p95.get(cid, 0.0)

    @property
    def active_requests(self) -> int:
        return self._active

    # -- scheduling -----------------------------------------------------------------
    def pick_least_loaded(
        self, candidates: Iterable[ContainerRecord]
    ) -> Optional[ContainerRecord]:
        """Least-active-requests-first among ready candidates; ties break
        toward the runtime that has served more total requests (warmer
        caches).  Under tail-aware ranking the decayed per-runtime p95
        leads the key: a runtime whose tail is drifting loses traffic to
        one that is responding briskly, load being the tie-breaker."""
        ready = [r for r in candidates if r.runtime.is_ready]
        if not ready:
            return None
        if self.tail_ranking and self._tail_p95:
            tails = self._tail_p95
            return min(
                ready,
                key=lambda r: (
                    tails.get(r.cid, 0.0),
                    r.active_requests,
                    -r.total_requests,
                    r.cid,
                ),
            )
        return min(ready, key=lambda r: (r.active_requests, -r.total_requests, r.cid))


#: an EWMA rate below the smallest normal float is idle: the decay's
#: rounding would otherwise leave it stuck at a subnormal, never 0
_RATE_FLOOR = sys.float_info.min


class ArrivalRateEWMA:
    """Per-app arrival-rate estimator over fixed ticks.

    Arrivals are counted between ticks; each :meth:`tick` folds the
    instantaneous rate into an exponentially weighted moving average.
    Under a constant rate ``r`` the estimate converges monotonically to
    ``r`` (property-tested), and after demand stops it decays
    geometrically — the hysteresis the warm pool drains on — until it
    falls below the smallest normal float and reads exactly 0.
    """

    def __init__(self, alpha: float = 0.2, tick_s: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.alpha = alpha
        self.tick_s = tick_s
        self._counts: Dict[str, int] = {}
        self._rates: Dict[str, float] = {}

    def observe(self, app_id: str) -> None:
        """Count one arrival for the app since the last tick."""
        self._counts[app_id] = self._counts.get(app_id, 0) + 1

    def observe_bulk(self, app_id: str, count: int) -> None:
        """Count ``count`` arrivals at once (mesoscale aggregate feed).

        Equivalent to ``count`` calls to :meth:`observe`; lets a
        :class:`~repro.platform.population.PopulationSource` report a
        whole tick's worth of fluid arrivals in O(1).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if count:
            self._counts[app_id] = self._counts.get(app_id, 0) + count

    def tick(self) -> Tuple[str, ...]:
        """Fold the tick's counts into every app's rate estimate.

        Returns the apps that had arrivals since the last tick.
        """
        counts = self._counts
        rates = self._rates
        alpha = self.alpha
        if not counts:
            # the zero count's rate, 0 / tick_s, is exactly 0.0
            for app_id, prev in rates.items():
                rate = prev + alpha * (0.0 - prev)
                rates[app_id] = rate if rate >= _RATE_FLOOR else 0.0
            return ()
        for app_id in counts:
            if app_id not in rates:
                rates[app_id] = 0.0
        for app_id, prev in rates.items():
            inst = counts.get(app_id, 0) / self.tick_s
            rate = prev + alpha * (inst - prev)
            rates[app_id] = rate if rate >= _RATE_FLOOR else 0.0
        counted = tuple(counts)
        counts.clear()
        return counted

    def idle(self, ticks: int) -> None:
        """Fold ``ticks`` ticks without arrivals, bit for bit as that
        many :meth:`tick` calls would (nothing may be counted)."""
        alpha = self.alpha
        rates = self._rates
        for app_id, rate in rates.items():
            for _ in range(ticks):
                if not rate:
                    break  # an idle rate stays exactly 0
                rate = rate + alpha * (0.0 - rate)
                if rate < _RATE_FLOOR:
                    rate = 0.0
            rates[app_id] = rate

    def counting(self) -> bool:
        """Have arrivals been counted since the last tick?"""
        return bool(self._counts)

    @property
    def estimates(self) -> Dict[str, float]:
        """Every app's current rate estimate, in first-seen order
        (read-only view)."""
        return self._rates

    def rate(self, app_id: str) -> float:
        """Current estimated arrivals/second for the app."""
        return self._rates.get(app_id, 0.0)

    def apps(self) -> List[str]:
        """Apps with an estimate, in first-seen order (deterministic)."""
        return list(self._rates)


@dataclass(frozen=True)
class PredictiveConfig:
    """Knobs of the warm-pool predictor (see docs/PERFORMANCE.md)."""

    #: predictor cadence in simulated seconds
    tick_s: float = 1.0
    #: EWMA smoothing per tick for the arrival-rate estimate
    alpha: float = 0.2
    #: per-app ceiling on warm spares + in-flight pre-boots
    max_pool: int = 4
    #: keep at least one spare warm this long after the app's last
    #: arrival, even once the rate estimate has decayed to ~0 — the
    #: knob that lets session-structured traces land warm
    hold_s: float = 300.0
    #: consecutive surplus ticks required before draining one spare
    drain_ticks: int = 3
    #: node-wide cap on warm slots across all apps (spares + in-flight
    #: pre-boots); None = unbounded.  The multi-tenant guardrail: a
    #: squatter inflating its own forecast cannot grow the pool past it
    pool_capacity: Optional[int] = None
    #: per-app reservation floors as (app_id, floor) pairs — under
    #: capacity contention each floor's capacity stays reserved for its
    #: owner, and the owner keeps at least that many runtimes warm
    pool_floors: tuple = ()


class WarmPoolPredictor:
    """Demand-driven warm-pool sizing for one platform node.

    Each tick the predictor folds the arrival-rate EWMAs, samples its
    own dispatcher's pending cold boots (:meth:`Dispatcher.pending_boots`)
    for the trend, and reconciles every known app's warm capacity
    (ready runtimes + pool spares + in-flight boots) against the demand
    forecast: pre-booting spares on a deficit, draining one per tick on
    a persistent surplus.  It reads nothing from the metrics registry;
    with one attached it exports its node's
    ``sched.arrival_rate.<node>.<app>`` and ``sched.target_pool.<node>.<app>``
    on every tick it wakes for.

    A reconciliation that leaves every app at its target, with no boot
    trend, *settles* the pool.  Until something arrives, the Container
    DB's version moves or a decaying forecast nears a target edge
    (computed ahead, see :meth:`_steady_ticks`), the following ticks are
    *quiet*: they would only fold the EWMAs and sample the unchanged
    pending-boot count.  A tick with arrivals re-aims only the apps that
    had them (:meth:`_still_settled`).

    The tick loop runs on a :class:`~repro.sim.core.Ticker`, and a
    settled predictor *sleeps* through its quiet ticks: it wakes on the
    first tick after an arrival, a Container DB version change (a
    pending-boot change is one), an outage edge, or on its
    ``_quiet_until`` deadline.  Whatever reads its state first catches
    up: the skipped ticks' EWMA folds, :attr:`ticks` and pending-boot
    samples are replayed in order (:meth:`_catch_up`), so every rate is
    the bit-same float the every-tick loop computes.
    """

    def __init__(self, platform: "CloudPlatform", config: Optional[PredictiveConfig] = None):
        self.platform = platform
        self.cfg = config if config is not None else PredictiveConfig()
        self._rates = ArrivalRateEWMA(self.cfg.alpha, self.cfg.tick_s)
        self._last_arrival: Dict[str, float] = {}
        self._surplus_ticks: Dict[str, int] = {}
        self._pending_samples: Deque[int] = deque(maxlen=TREND_WINDOW)
        self._boot_s: Optional[float] = None
        #: ticks folded so far (:attr:`ticks` catches up first)
        self._ticks = 0
        self.drains = 0
        #: the tick loop's instants (None until :meth:`start`)
        self._ticker: Optional["Ticker"] = None
        #: per-app targets of the last reconciliation and the hold flags
        #: they assumed (None once a tick folded rates without one)
        self._targets: Optional[Dict[str, int]] = None
        self._held: Dict[str, bool] = {}
        #: earliest last arrival among the held apps (inf: none held) —
        #: every flag still holds while ``now - _held_since <= hold_s``
        self._held_since = math.inf
        #: quiet-tick gate: the DB version and pending boots the
        #: pool settled at
        self._settled_version = -1
        self._settled_pending = -1
        #: per app, the last tick its target provably holds without an
        #: arrival; their minimum (-1: the pool is not settled)
        self._until: Dict[str, float] = {}
        self._quiet_until: float = -1
        #: (app, arrival-rate gauge, target gauge, target) per app, for
        #: the registry and the targets they came from
        self._registry: Optional[MetricsRegistry] = None
        self._exported: Optional[Dict[str, int]] = None
        self._gauges: List[Tuple[str, Gauge, Gauge, int]] = []
        #: protected_cids' last answer and the (DB version,
        #: targets, busy CIDs) it was computed under
        self._protect_key: Optional[Tuple[int, Dict[str, int], FrozenSet[str]]] = None
        self._protected: FrozenSet[str] = frozenset()

    # -- sleeping through quiet ticks ---------------------------------------------
    @property
    def ticks(self) -> int:
        """Ticks the loop has run, the slept-through ones included."""
        self._catch_up()
        return self._ticks

    @property
    def rates(self) -> ArrivalRateEWMA:
        """The per-app arrival-rate estimates, caught up to now."""
        self._catch_up()
        return self._rates

    def start(self) -> "Ticker":
        """Start the tick loop (see :meth:`CloudPlatform.start_predictor`)."""
        if self._ticker is not None:
            raise RuntimeError("the predictor's tick loop is already running")
        env = self.platform.env
        self._ticker = ticker = env.ticker(self.cfg.tick_s, self._on_tick)
        ticker.wake()
        return ticker

    def wake(self) -> None:
        """Something the quiet check reads moved: tick at the next instant."""
        if self._ticker is not None:
            self._ticker.wake()

    def db_changed(self) -> None:
        """Container DB hook: a version the pool did not settle at
        ends the quiet ticks."""
        if self.platform.db.version != self._settled_version:
            self.wake()

    def _catch_up(self, upto: Optional[int] = None) -> None:
        """Replay the quiet ticks slept through, up to tick ``upto``
        (default: every tick the loop has passed).

        A slept-through tick is quiet by construction: it folds the
        EWMAs with no arrival and samples the pending-boot count the
        pool settled at.  Neither reads the clock or the counted
        arrivals, so the replay may run at any read before the next
        tick.
        """
        ticker = self._ticker
        if ticker is None:
            return
        behind = (ticker.passed if upto is None else upto) - self._ticks
        if behind > 0:
            self._ticks += behind
            self._rates.idle(behind)
            self._pending_samples.extend(
                [self._settled_pending] * min(behind, TREND_WINDOW)
            )

    def _on_tick(self) -> None:
        """The ticker woke the loop: catch up, tick, plan the next wake."""
        ticker = self._ticker
        self._catch_up(ticker.passed - 1)
        targets = self._targets
        self.tick()
        quiet_until = self._quiet_until
        if quiet_until < 0:
            ticker.sleep(ticker.passed + 1)
        elif quiet_until < math.inf:
            ticker.sleep(math.floor(quiet_until) + 1)
        else:
            ticker.sleep()
        if self._targets is not targets:  # new targets, hold flags or both
            self.platform._predictor_moved()

    def _arrived(self, app_id: str, count: int) -> None:
        """Count arrivals toward the next tick and wake for it."""
        self.wake()
        self._rates.observe_bulk(app_id, count)
        self._last_arrival[app_id] = self.platform.env.now
        if self._held.get(app_id) is False:
            # a hold flag flips: protected_cids re-aims before the tick
            self.platform._predictor_moved()

    # -- signals ---------------------------------------------------------------
    def observe_arrival(self, request) -> None:
        """Platform serve-path hook: one request arrived for its app."""
        self._arrived(request.app_id, 1)

    def observe_aggregate(self, app_id: str, count: int) -> None:
        """Mesoscale hook: ``count`` fluid arrivals landed for an app.

        Populations modelled analytically never touch the serve path,
        so they report arrivals in bulk instead; the rate EWMA and the
        hold-window clock see exactly what ``count`` discrete calls to
        :meth:`observe_arrival` would have produced.
        """
        if count > 0:
            self._arrived(app_id, count)

    def boot_estimate_s(self) -> float:
        """Cold-boot duration the pool math amortizes (probe, cached)."""
        if self._boot_s is None:
            probe = self.platform.make_pool_runtime("probe", "probe")
            self._boot_s = probe.boot_sequence.idle_duration_s
        return self._boot_s

    def pending_boots_trend(self) -> int:
        """Rise of the dispatcher's pending cold boots over the window."""
        if len(self._pending_samples) < 2:
            return 0
        return self._pending_samples[-1] - self._pending_samples[0]

    def target_pool(self, app_id: str) -> int:
        """Warm runtimes the forecast wants for an app right now."""
        self._catch_up()
        now = self.platform.env.now
        return self._target(app_id, self._is_held(app_id, now), self.pending_boots_trend())

    def _is_held(self, app_id: str, now: float) -> bool:
        """Is the app inside its hold window (an arrival within hold_s)?"""
        last = self._last_arrival.get(app_id)
        return last is not None and now - last <= self.cfg.hold_s

    def _target(self, app_id: str, held: bool, trend: int) -> int:
        cfg = self.cfg
        floor = self.platform.dispatcher.pool_floors.get(app_id, 0)
        boot_s = self._boot_s if self._boot_s is not None else self.boot_estimate_s()
        demand = self._rates.rate(app_id) * boot_s * HEADROOM
        if demand < LOW_WATERMARK and not held:
            # A reservation floor keeps its owner warm even after the
            # demand estimate decays — that is the guarantee.
            return min(floor, cfg.max_pool)
        target = max(1, math.ceil(demand), floor)
        if trend > 0:
            # Boots are piling up faster than they settle: a cold wave
            # is landing — widen the pool by the observed rise.
            target += trend
        return min(target, cfg.max_pool)

    def protection_holds_until(self) -> float:
        """The time before which :meth:`protected_cids` can change only
        on a tick, an arrival or a Container DB change: the first hold
        window's lapse (``-inf`` with no targets yet or while offline,
        when its answer follows the rates)."""
        if self._targets is None:
            return -math.inf
        return self._held_since + self.cfg.hold_s

    def protected_cids(self) -> FrozenSet[str]:
        """Runtimes the idle reaper must spare: pool members, plus up to
        ``target_pool`` idle warm runtimes per app (pool-by-retention —
        cheaper than reaping a warm runtime only to re-boot a spare).

        With a ``pool_capacity`` the retained runtimes count against the
        same budget as pooled spares, reservation-floor owners first —
        retention cannot become a back door around the capacity a
        squatter is being held to.

        The answer is a function of the Container DB's version, of which
        runtimes are busy and of the targets, so it is reused while all
        three stand still.  The last tick's targets still hold while
        every app's hold flag does.
        """
        self._catch_up()
        platform = self.platform
        db = platform.db
        now = platform.env.now
        targets = self._targets
        if targets is None or (
            # an arrival or a lapse may have flipped a hold flag
            (self._rates.counting() or now - self._held_since > self.cfg.hold_s)
            and any(
                self._is_held(app_id, now) is not held
                for app_id, held in self._held.items()
            )
        ):
            trend = self.pending_boots_trend()
            targets = {
                app_id: self._target(app_id, self._is_held(app_id, now), trend)
                for app_id in self._rates.apps()
            }
        key = self._protect_key
        if (
            key is not None
            and key[0] == db.version
            and key[2] == db.busy
            and key[1] == targets
        ):
            return self._protected
        dispatcher = platform.dispatcher
        out = dispatcher.pooled_cids()
        capacity = dispatcher.pool_capacity
        budget = math.inf if capacity is None else max(0, capacity - len(out))
        floors = dispatcher.pool_floors
        apps = sorted(targets, key=lambda a: -floors.get(a, 0)) if floors else targets
        for app_id in apps:
            if budget <= 0:
                break
            need = targets[app_id] - dispatcher.pool_spares(app_id)
            if need <= 0:
                continue
            if need > budget:
                need = int(budget)
            for record in db.with_app(app_id):
                if record.active_requests == 0 and record.cid not in out:
                    out.add(record.cid)
                    budget -= 1
                    need -= 1
                    if need == 0:
                        break
        self._protect_key = (db.version, targets, frozenset(db.busy))
        self._protected = frozenset(out)
        return self._protected

    # -- the control loop ---------------------------------------------------------
    def tick(self) -> None:
        """One control-loop pass (every ``tick_s`` sim-seconds the
        predictor does not sleep through): fold the rates, then
        reconcile unless the pool is still settled."""
        self._ticks += 1
        arrived = self._rates.tick()
        platform = self.platform
        if platform.offline:
            # Failover-aware: a dark node neither pre-boots nor drains;
            # its traffic rehashes elsewhere and grows pools there.
            self._surplus_ticks.clear()
            self._targets = None
            self._quiet_until = -1
            return
        pending = platform.dispatcher.pending_boots()
        self._pending_samples.append(pending)
        settled = self._quiet_until >= 0 and pending == self._settled_pending
        quiet = (
            settled
            and not arrived
            and self._ticks <= self._quiet_until
            and platform.db.version == self._settled_version
        )
        if not quiet and not (settled and self._still_settled(arrived)):
            self._reconcile()
        metrics = metrics_of(platform.env)
        if metrics is not None:
            self._export(metrics)

    def _still_settled(self, arrived: Tuple[str, ...]) -> bool:
        """Does the settled pool still meet every target?

        Only apps with arrivals, or past the tick their target was known
        to hold until, get a new target; every app's warm count is
        re-read only if the DB's version moved.  Nothing is changed
        unless the answer is True.
        """
        ticks = self._ticks
        version = self.platform.db.version
        until = self._until
        if ticks <= self._quiet_until:
            aim = arrived
        else:
            aim = arrived + tuple(
                a for a, last in until.items() if ticks > last and a not in arrived
            )
        now = self.platform.env.now
        targets = self._targets
        was_held = self._held
        rates = self._rates.estimates
        #: apps whose target or hold flag moved: app -> (held, target)
        fresh: Dict[str, Tuple[bool, int]] = {}
        for app_id in aim:
            held = self._is_held(app_id, now)
            if held and was_held.get(app_id) and ticks <= until[app_id]:
                # Still held and on its old bound: arrivals only raised
                # the demand (and moved the lapse later), so the target
                # stands unless the demand passed its ceil edge.
                target = targets[app_id]
                if (
                    target >= self.cfg.max_pool
                    or rates[app_id] * self._boot_s * HEADROOM <= target
                ):
                    continue
            fresh[app_id] = (held, self._target(app_id, held, 0))
        if version != self._settled_version or fresh:
            dispatcher = self.platform.dispatcher
            ready_count = self.platform.db.ready_count
            names = fresh if version == self._settled_version else {**targets, **fresh}
            for app_id in names:
                entry = fresh.get(app_id)
                target = targets[app_id] if entry is None else entry[1]
                if ready_count(app_id) + dispatcher.pool_size(app_id) != target:
                    return False
        if fresh:
            targets = self._targets = dict(targets)
            for app_id, (held, target) in fresh.items():
                targets[app_id] = target
                was_held[app_id] = held
                self._surplus_ticks[app_id] = 0
                until[app_id] = ticks + self._steady_ticks(app_id, target, held, now)
            self._quiet_until = min(until.values())
            self._held_since = self._earliest_held()
        self._settled_version = version
        return True

    def _reconcile(self) -> None:
        """Size every app's warm capacity to its target (the full pass)."""
        platform = self.platform
        dispatcher = platform.dispatcher
        db = platform.db
        now = platform.env.now
        trend = self.pending_boots_trend()
        targets: Dict[str, int] = {}
        held: Dict[str, bool] = {}
        settled = True
        for app_id in self._rates.apps():
            app_held = held[app_id] = self._is_held(app_id, now)
            target = targets[app_id] = self._target(app_id, app_held, trend)
            have = db.ready_count(app_id) + dispatcher.pool_size(app_id)
            if have < target:
                settled = False
                for _ in range(target - have):
                    if dispatcher.preboot(app_id) is None:
                        break
                self._surplus_ticks[app_id] = 0
            elif have > target:
                settled = False
                streak = self._surplus_ticks.get(app_id, 0) + 1
                self._surplus_ticks[app_id] = streak
                if streak >= self.cfg.drain_ticks and dispatcher.drain_pool(app_id):
                    self.drains += 1
            else:
                self._surplus_ticks[app_id] = 0
        self._targets = targets
        self._held = held
        self._held_since = self._earliest_held()
        samples = self._pending_samples
        if settled and samples.count(samples[-1]) == len(samples):
            # A uniform trend window stays uniform (trend 0) while the
            # pending count stands still.
            self._settled_version = db.version
            self._settled_pending = samples[-1]
            self._until = {
                app_id: self._ticks + self._steady_ticks(app_id, target, held[app_id], now)
                for app_id, target in targets.items()
            }
            self._quiet_until = min(self._until.values(), default=math.inf)
        else:
            self._quiet_until = -1

    def _earliest_held(self) -> float:
        """The earliest last arrival among held apps (inf: none held)."""
        last = self._last_arrival
        return min((last[a] for a, held in self._held.items() if held), default=math.inf)

    def _steady_ticks(self, app_id: str, target: int, held: bool, now: float) -> float:
        """Ticks after this one that provably keep the app's target,
        with no arrival and no trend (-1 or less: none).

        With no arrivals each tick multiplies the app's rate by
        ``1 - alpha``, so its demand decays geometrically and the first
        tick whose target differs is known ahead: the demand falls to
        ``target - 1`` (the ceil edge), or under ``LOW_WATERMARK`` where
        that branch lowers the target, or the hold window lapses.  The
        answer stops :data:`QUIET_MARGIN` ticks short of the earliest,
        so float drift in the forecast can only cost a full pass.
        """
        cfg = self.cfg
        bound = math.inf
        if held and cfg.hold_s < math.inf:
            lapse = self._last_arrival[app_id] + cfg.hold_s
            bound = math.floor((lapse - now) / cfg.tick_s)
        demand = self._rates.rate(app_id) * self.boot_estimate_s() * HEADROOM
        if demand < LOW_WATERMARK and not held:
            return math.inf  # decay keeps it in the low branch
        floor = self.platform.dispatcher.pool_floors.get(app_id, 0)
        if target > max(1, floor):
            edge = target - 1.0
        elif held or min(floor, cfg.max_pool) == target:
            return bound - QUIET_MARGIN  # clamped at the floor in either branch
        else:
            edge = LOW_WATERMARK
        decay = 1.0 - cfg.alpha
        if decay <= 0.0 or demand <= edge:
            return -1
        ahead = math.floor(math.log(edge / demand) / math.log(decay))
        return min(bound, ahead) - QUIET_MARGIN

    def _export(self, metrics: MetricsRegistry) -> None:
        """Export each app's arrival rate and target as this node's gauges."""
        targets = self._targets
        if metrics is not self._registry or targets is not self._exported:
            # Targets are replaced, never edited: rebuild on a new dict.
            self._registry = metrics
            self._exported = targets
            node = self.platform.node_name
            self._gauges = [
                (
                    app_id,
                    metrics.gauge(f"sched.arrival_rate.{node}.{app_id}"),
                    metrics.gauge(f"sched.target_pool.{node}.{app_id}"),
                    target,
                )
                for app_id, target in targets.items()
            ]
        rates = self._rates.estimates
        for app_id, rate_gauge, target_gauge, target in self._gauges:
            rate_gauge.set(rates[app_id])
            target_gauge.set(target)
