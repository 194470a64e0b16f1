"""Dispatcher: allocates execution environments to offloading requests.

Fig. 4: the Dispatcher "handles the new arrived offloading requests and
allocates execution environments for them".  With the App Warehouse's
cache table it "tends to allocate offloading tasks to the Cloud
Android Container where requests from the same application have been
executed before, which saves the time for loading codes".  That
app -> CID mapping is read from the Container DB (READY runtimes that
hold the app's code); the warehouse's CID set mirrors it.

Two policies are provided:

- ``per-device`` — each device owns one runtime (the evaluation setup:
  5 devices, 5 VMs/containers);
- ``app-affinity`` — route to any warm, least-loaded runtime holding
  the app's code; boot a new runtime only when none exists.

Every request takes one path (:meth:`Dispatcher.acquire`): a warm
runtime for its allocation key; else a READY spare from the app's warm
pool; else it waits on the key's in-flight cold boot or the app's
earliest in-flight pre-boot; else it cold-boots.  A boot in flight
lives on its record (``ContainerRecord.boot``).  Requests waiting on a
boot wake **FIFO by request id** — each parks on its own proxy event
and the settle callback triggers them in sorted order, so recovery
tables are stable across seeds — and a boot that crashes sends its
waiters back to the top.

With a predictive platform (``CloudPlatform.enable_predictive``) the
dispatcher keeps that **warm pool**: :meth:`preboot` boots a spare
ahead of demand, and one list per app holds the spares, booting ones
in start order and settled ones in settle order.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..faults.errors import NodeDown
from ..obs import metrics_of, trace_span
from ..offload.request import OffloadRequest
from ..runtime.base import RuntimeEnvironment, RuntimeState
from .container_db import ContainerDB, ContainerRecord
from .scheduler import MonitorScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.events import Event

__all__ = ["Dispatcher"]

RuntimeFactory = Callable[[str, OffloadRequest], RuntimeEnvironment]
#: pool-runtime factory: (cid, app_id) — no request exists yet
PoolRuntimeFactory = Callable[[str, str], RuntimeEnvironment]


class Dispatcher:
    """Runtime allocation with cold-boot coordination."""

    #: simulated latency of handing a request to an already-READY runtime
    warm_dispatch_s = 0.002

    def __init__(
        self,
        env: "Environment",
        db: ContainerDB,
        scheduler: MonitorScheduler,
        runtime_factory: RuntimeFactory,
        policy: str = "per-device",
    ):
        if policy not in ("per-device", "app-affinity"):
            raise ValueError(f"unknown dispatch policy {policy!r}")
        self.env = env
        self.db = db
        self.scheduler = scheduler
        self.runtime_factory = runtime_factory
        self.policy = policy
        #: pending cold boots: allocation key -> the booting record
        self._boots: Dict[str, ContainerRecord] = {}
        #: requests parked on a boot: boot process -> sorted
        #: [(request_id, proxy event)] — woken FIFO by request id
        self._waiters: Dict["Event", List[Tuple[int, "Event"]]] = {}
        #: warm-pool state (predictive platforms only; empty otherwise):
        #: app -> spares, booting (``record.boot`` set) and settled alike
        self._pool_factory: Optional[PoolRuntimeFactory] = None
        self._spares: Dict[str, List[ContainerRecord]] = {}
        #: node-wide cap on warm slots (spares + in-flight pre-boots);
        #: None = unbounded (set via PredictiveConfig.pool_capacity)
        self.pool_capacity: Optional[int] = None
        #: per-app reservation floors honoured under capacity contention
        #: — a squatter cannot pre-boot into capacity other apps are
        #: still owed (set via PredictiveConfig.pool_floors)
        self.pool_floors: Dict[str, int] = {}
        self.preboot_refusals = 0
        #: allocation keys that have ever had a ready runtime — a boot
        #: stall behind such a key was warm-capable (better scheduling
        #: could have kept a runtime hot)
        self._ever_warm: Set[str] = set()
        self.cold_boots = 0
        self.warm_dispatches = 0
        self.preboots = 0
        self.preboot_hits = 0
        self.pool_drained = 0
        self.boot_stalls = 0
        self.warmable_stalls = 0

    # -- allocation keys ---------------------------------------------------------
    def allocation_key(self, request: OffloadRequest) -> str:
        """The key runtimes are pooled under for this request."""
        if self.policy == "per-device":
            return request.device_id
        return f"app:{request.app_id}"

    def record_for_key(self, key: str) -> Optional[ContainerRecord]:
        """The runtime a request under ``key`` would be handed now.

        App keys: the least-loaded READY runtime holding the app's code
        (the cache-table affinity).  Device keys: the device's own live
        runtime, which may still be booting.
        """
        if key.startswith("app:"):
            candidates = self.db.with_app(key[4:])
            return self.scheduler.pick_least_loaded(candidates)
        for record in self.db.by_device(key):
            if record.runtime.state in (RuntimeState.BOOTING, RuntimeState.READY):
                return record
        return None

    # -- acquisition ---------------------------------------------------------------
    def acquire(self, request: OffloadRequest) -> Generator:
        """Process generator: resolve a READY runtime for ``request``.

        Returns the :class:`ContainerRecord`.  Elapsed simulated time is
        the request's *Runtime Preparation* phase — traced as one
        ``queued`` span covering warm waits, shared-boot waits and cold
        boots alike (crash-recovery re-acquisition stays inside it).
        """
        with trace_span(self.env, "queued", who="dispatcher", trace=request.trace_id):
            return (yield from self._acquire(request))

    def _acquire(self, request: OffloadRequest) -> Generator:
        key = self.allocation_key(request)
        app_id = request.app_id
        record = self.record_for_key(key)
        if record is None or not record.runtime.is_ready:
            record = self._pool_take(app_id)
        if record is not None:
            self.warm_dispatches += 1
            metrics = metrics_of(self.env)
            if metrics is not None:
                metrics.counter("dispatch.warm_dispatches").inc()
            yield self.env.timeout(self.warm_dispatch_s)
            return record
        booting = self._boots.get(key)
        was_spare = booting is None
        if was_spare:
            # Ride the app's earliest in-flight pre-boot rather than
            # racing it with another cold boot.
            spares = self._spares.get(app_id, ())
            booting = next((r for r in spares if r.boot is not None), None)
            if booting is None:
                return (yield from self._cold_boot(key, request))
        # Park on the boot until it settles (FIFO by request id).
        self._count_stall(key)
        proxy = self.env.event()
        insort(
            self._waiters.setdefault(booting.boot, []),
            (request.request_id, proxy),
            key=itemgetter(0),
        )
        try:
            yield proxy
        except BaseException as exc:
            if (
                proxy.triggered
                and proxy.exception is exc
                and booting.runtime.state is RuntimeState.CRASHED
            ):
                # The boot died under an injected fault; the dead record
                # was already evicted — start over (a fresh boot, or a
                # runtime that survived elsewhere).
                return (yield from self._acquire(request))
            raise
        record = self.record_for_key(key)
        if record is not None:
            return record
        if not was_spare:
            return booting
        if booting.runtime.is_ready:
            spares = self._spares[app_id]
            if booting in spares:  # gone once an earlier rider claimed it
                spares.remove(booting)
                self.db.pool_changed()
            self._count_pool_hit(app_id)
            return booting
        # The spare died between settle and wake; start over.
        return (yield from self._acquire(request))

    def _count_stall(self, key: str) -> None:
        """A request is about to wait out a boot (initiator or waiter)."""
        self.boot_stalls += 1
        warmable = key in self._ever_warm
        if warmable:
            self.warmable_stalls += 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("dispatch.boot_stalls").inc()
            if warmable:
                metrics.counter("dispatch.boot_stalls_warmable").inc()

    def _cold_boot(self, key: str, request: OffloadRequest) -> Generator:
        self.cold_boots += 1
        self._count_stall(key)
        cid = self.db.new_cid()
        runtime = self.runtime_factory(cid, request)
        owner = request.device_id if self.policy == "per-device" else ""
        record = self.db.register(runtime, owner_device=owner, now=self.env.now)
        boot = record.boot = self.env.process(runtime.boot())
        self._boots[key] = record
        self.db.pool_changed()
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("dispatch.cold_boots").inc()
            metrics.gauge("dispatch.pending_boots").set(len(self._boots))
        # Bookkeeping settles in an event callback, not after the yield:
        # callbacks run before any waiter resumes, so every waiter — and
        # an interrupted initiator's successors — observes a consistent
        # DB, and a failed boot's dead record never lingers.
        boot.add_callback(lambda ev: self._boot_settled(key, record))
        try:
            yield boot
        except BaseException as exc:
            if (
                boot.triggered
                and boot.exception is exc
                and record.runtime.state is RuntimeState.CRASHED
            ):
                # Our own boot was killed by a fault — recover by
                # re-entering acquisition from the top.
                return (yield from self._acquire(request))
            raise
        return record

    def _boot_settled(self, key: str, record: ContainerRecord) -> None:
        """Boot-completion bookkeeping (runs before waiters resume)."""
        boot, record.boot = record.boot, None
        self.db.pool_changed()
        if self._boots.get(key) is record:
            del self._boots[key]
            metrics = metrics_of(self.env)
            if metrics is not None:
                metrics.gauge("dispatch.pending_boots").set(len(self._boots))
        if boot.exception is None:
            self._ever_warm.add(key)
        else:
            # Failed boot: evict the dead record so nothing dispatches to
            # it and the DB's memory/disk accounting stays honest.
            self.db.unregister(record.cid)
            if record.runtime.state is RuntimeState.CRASHED:
                # An injected-fault death is recoverable; don't let an
                # unwatched boot failure crash the kernel while the
                # waiters that will handle it are still queued to resume.
                boot.defused = True
        self._wake_waiters(boot)

    def _wake_waiters(self, boot: "Event") -> None:
        """Trigger the boot's parked proxies in request-id order."""
        waiters = self._waiters.pop(boot, None)
        if not waiters:
            return
        exc = boot.exception
        for _rid, proxy in waiters:
            if exc is None:
                proxy.succeed()
            else:
                # Each proxy has exactly one (live or detached) waiter;
                # pre-defuse so an interrupted waiter's orphaned proxy
                # cannot crash the kernel.
                proxy.defused = True
                proxy.fail(exc)

    # -- warm pool (predictive platforms) -----------------------------------------
    def preboot(self, app_id: str) -> Optional[ContainerRecord]:
        """Boot one warm spare for ``app_id`` ahead of demand.

        Returns the registered record, or ``None`` when no spare can be
        created (no pool factory, pool at capacity, node offline).  Any
        other error from the pool factory propagates.  The boot runs
        under a ``preboot`` span; requests arriving before it settles
        ride it instead of cold-booting.
        """
        if self._pool_factory is None:
            return None
        if not self._capacity_allows(app_id):
            self.preboot_refusals += 1
            metrics = metrics_of(self.env)
            if metrics is not None:
                metrics.counter("sched.preboot_refusals").inc()
            return None
        cid = self.db.new_cid()
        try:
            runtime = self._pool_factory(cid, app_id)
        except NodeDown:
            return None
        runtime.prewarmed = True
        record = self.db.register(runtime, now=self.env.now)
        boot = record.boot = self.env.process(self._preboot_proc(runtime))
        # A spare nobody ever waits on must not crash the kernel if its
        # boot dies (node outage mid-pre-boot).
        boot.defused = True
        self._spares.setdefault(app_id, []).append(record)
        self.db.pool_changed()
        self.preboots += 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("sched.preboots").inc()
            metrics.gauge("sched.pool_size").set(self._total_pool())
        boot.add_callback(lambda ev: self._preboot_settled(app_id, record))
        self._note_pool(app_id)
        return record

    def _capacity_allows(self, app_id: str) -> bool:
        """May ``app_id`` take one more warm slot?

        False when the pool is at capacity, or when taking the slot
        would leave another app's unmet reservation floor unsatisfiable
        (the floor capacity stays reserved for its owner).
        """
        if self.pool_capacity is None:
            return True
        total = self._total_pool()
        if total >= self.pool_capacity:
            return False
        # Unmet floors count actual spares only (settled + booting).
        # pool_size() also counts a pending demand cold boot, which is
        # not a warm slot — using it would let another tenant grab the
        # very capacity the floor still needs.
        reserved = sum(
            max(0, floor - len(self._spares.get(app, ())))
            for app, floor in self.pool_floors.items()
            if app != app_id
        )
        return total + 1 + reserved <= self.pool_capacity

    def _note_pool(self, app_id: str) -> None:
        """Report the app's warm-slot count to the tenancy ledger."""
        tenancy = self.env.tenancy
        if tenancy is not None:
            tenancy.pool_set(app_id, len(self._spares.get(app_id, ())))

    def _preboot_proc(self, runtime: RuntimeEnvironment) -> Generator:
        with trace_span(self.env, "preboot", who=runtime.instance_id):
            yield from runtime.boot()

    def _preboot_settled(self, app_id: str, record: ContainerRecord) -> None:
        """Pre-boot bookkeeping: the spare joins the settled end of its
        app's list, or is evicted."""
        boot, record.boot = record.boot, None
        self.db.pool_changed()
        self._spares[app_id].remove(record)
        if boot.exception is None and record.runtime.is_ready:
            self._ever_warm.add(f"app:{app_id}")
            self._spares[app_id].append(record)
        else:
            self.db.unregister(record.cid)
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.gauge("sched.pool_size").set(self._total_pool())
        self._note_pool(app_id)
        self._wake_waiters(boot)

    def _pool_take(self, app_id: str) -> Optional[ContainerRecord]:
        """Claim the first READY settled spare (dropping dead ones)."""
        spares = self._spares.get(app_id, [])
        for record in [r for r in spares if r.boot is None]:
            spares.remove(record)
            self.db.pool_changed()
            if record.runtime.is_ready:
                self._count_pool_hit(app_id)
                return record
        return None

    def _count_pool_hit(self, app_id: str) -> None:
        self.preboot_hits += 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("sched.preboot_hits").inc()
            metrics.gauge("sched.pool_size").set(self._total_pool())
        self._note_pool(app_id)

    def drain_pool(self, app_id: str) -> bool:
        """Stop one idle READY spare (predictor hysteresis drain)."""
        for record in self._spares.get(app_id, ()):
            if (
                record.boot is None
                and record.runtime.is_ready
                and record.active_requests == 0
            ):
                self._spares[app_id].remove(record)
                self.db.pool_changed()
                record.runtime.stop()
                self.pool_drained += 1
                metrics = metrics_of(self.env)
                if metrics is not None:
                    metrics.counter("sched.pool_drained").inc()
                    metrics.gauge("sched.pool_size").set(self._total_pool())
                self._note_pool(app_id)
                return True
        return False

    def pending_boots(self) -> int:
        """Demand-driven cold boots in flight (the predictor's trend)."""
        return len(self._boots)

    def pool_spares(self, app_id: str) -> int:
        """Settled spares currently pooled for the app."""
        spares = self._spares.get(app_id)
        if not spares:
            return 0
        return sum(1 for r in spares if r.boot is None)

    def pool_size(self, app_id: str) -> int:
        """Warm capacity in flight for the app beyond ready runtimes:
        spares (settled and booting), and a demand-driven cold boot if
        one is pending under the app's allocation key."""
        size = len(self._spares.get(app_id, ()))
        if self._boots and f"app:{app_id}" in self._boots:
            size += 1
        return size

    def pooled_cids(self) -> Set[str]:
        """CIDs of every settled spare (idle-reaper protection)."""
        return {
            r.cid for spares in self._spares.values() for r in spares if r.boot is None
        }

    def _total_pool(self) -> int:
        """Spares, settled and booting, across every app (gauge value)."""
        return sum(len(v) for v in self._spares.values())
