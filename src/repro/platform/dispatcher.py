"""Dispatcher: allocates execution environments to offloading requests.

Fig. 4: the Dispatcher "handles the new arrived offloading requests and
allocates execution environments for them".  With the App Warehouse's
cache table it "tends to allocate offloading tasks to the Cloud
Android Container where requests from the same application have been
executed before, which saves the time for loading codes".

Two policies are provided:

- ``per-device`` — each device owns one runtime (the evaluation setup:
  5 devices, 5 VMs/containers);
- ``app-affinity`` — route to any warm, least-loaded runtime holding
  the app's code; boot a new runtime only when none exists.

With a predictive platform (``CloudPlatform.enable_predictive``) the
dispatcher additionally keeps a **warm pool** of pre-booted spares per
app: :meth:`preboot` boots one ahead of demand, requests grab a spare
without any boot wait, and a cold wave that lands mid-pre-boot rides
the in-flight boot instead of starting its own.  Requests that do end
up waiting on a shared boot wake **FIFO by request id** — each waiter
parks on its own proxy event and the settle callback triggers them in
sorted order, so recovery tables are stable across seeds.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..obs import metrics_of, trace_span
from ..offload.request import OffloadRequest
from ..runtime.base import RuntimeEnvironment, RuntimeState
from .container_db import ContainerDB, ContainerRecord
from .scheduler import MonitorScheduler
from .warehouse import AppWarehouse

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
        warehouse: Optional[AppWarehouse] = None,
    ):
        if policy not in ("per-device", "app-affinity"):
            raise ValueError(f"unknown dispatch policy {policy!r}")
        self.env = env
        self.db = db
        self.scheduler = scheduler
        self.runtime_factory = runtime_factory
        self.policy = policy
        self.warehouse = warehouse
        #: pending cold boots keyed by allocation key
        self._boots: Dict[str, "Event"] = {}
        #: most recent runtime record booted per allocation key — lets a
        #: request that waited on another's boot resolve the runtime even
        #: before its app code is loaded there
        self._boot_records: Dict[str, ContainerRecord] = {}
        #: requests parked on a shared boot: boot process -> sorted
        #: [(request_id, proxy event)] — woken FIFO by request id
        self._waiters: Dict["Event", List[Tuple[int, "Event"]]] = {}
        #: warm-pool state (predictive platforms only; empty otherwise)
        self._pool_factory: Optional[PoolRuntimeFactory] = None
        self._pool: Dict[str, List[ContainerRecord]] = {}
        self._pool_boots: Dict[str, List[Tuple["Event", ContainerRecord]]] = {}
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
        if self.policy == "app-affinity":
            record = self._affinity_candidate(request)
            if record is not None:
                self._count_warm()
                yield self.env.timeout(self.warm_dispatch_s)
                return record
        key = self.allocation_key(request)
        record = self._record_for_key(key)
        if record is not None and record.runtime.is_ready:
            self._count_warm()
            yield self.env.timeout(self.warm_dispatch_s)
            return record
        if self._pool_factory is not None:
            record = self._pool_take(request.app_id)
            if record is not None:
                self._count_warm()
                yield self.env.timeout(self.warm_dispatch_s)
                return record
        boot_event = self._boots.get(key)
        if boot_event is not None:
            # Another request already triggered this runtime's boot.
            booting = self._boot_records.get(key)
            recovered = yield from self._join_boot(boot_event, booting, request, key)
            if recovered is not None:
                return recovered
            record = self._record_for_key(key)
            if record is None:
                record = self._boot_records[key]
            return record
        if self._pool_factory is not None:
            rideable = self._rideable_preboot(request.app_id)
            if rideable is not None:
                # A pre-boot for this app is mid-flight: ride it rather
                # than racing it with another cold boot.
                boot_event, booting = rideable
                recovered = yield from self._join_boot(boot_event, booting, request, key)
                if recovered is not None:
                    return recovered
                record = self._record_for_key(key)
                if record is None and booting.runtime.is_ready:
                    record = self._pool_claim(request.app_id, booting)
                if record is None:
                    # The spare died between settle and wake; start over.
                    return (yield from self._acquire(request))
                return record
        return (yield from self._cold_boot(key, request))

    def _join_boot(
        self,
        boot_event: "Event",
        booting: Optional[ContainerRecord],
        request: OffloadRequest,
        key: str,
    ) -> Generator:
        """Park on a shared boot until it settles (FIFO by request id).

        Each waiter gets a proxy event; :meth:`_wake_waiters` triggers
        the proxies in request-id order once the boot's bookkeeping has
        settled, so same-tick waiters resume deterministically.  Returns
        ``None`` on a clean wake (the caller resolves the record), or
        the record re-acquired after the shared boot crashed.
        """
        self._count_stall(key)
        proxy = self.env.event()
        insort(
            self._waiters.setdefault(boot_event, []),
            (request.request_id, proxy),
            key=itemgetter(0),
        )
        try:
            yield proxy
        except BaseException as exc:
            if (
                proxy.triggered
                and proxy.exception is exc
                and booting is not None
                and booting.runtime.state is RuntimeState.CRASHED
            ):
                # The shared boot died under an injected fault; the
                # dead record was already evicted — start over (a
                # fresh boot, or a runtime that survived elsewhere).
                return (yield from self._acquire(request))
            raise
        return None

    def _count_warm(self) -> None:
        self.warm_dispatches += 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("dispatch.warm_dispatches").inc()

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

    def _record_for_key(self, key: str) -> Optional[ContainerRecord]:
        if key.startswith("app:"):
            candidates = self.db.with_app(key[4:])
            return self.scheduler.pick_least_loaded(candidates)
        owned = [
            r
            for r in self.db.by_device(key)
            if r.runtime.state in (RuntimeState.BOOTING, RuntimeState.READY)
        ]
        return owned[0] if owned else None

    def _affinity_candidate(self, request: OffloadRequest) -> Optional[ContainerRecord]:
        """Warm container that has executed this app before (cache table)."""
        if self.warehouse is None:
            return None
        cids = self.warehouse.containers_for(request.app_id)
        candidates = [self.db.get(cid) for cid in cids if self.db.exists(cid)]
        return self.scheduler.pick_least_loaded(candidates)

    def _cold_boot(self, key: str, request: OffloadRequest) -> Generator:
        self.cold_boots += 1
        self._count_stall(key)
        cid = self.db.new_cid()
        runtime = self.runtime_factory(cid, request)
        owner = request.device_id if self.policy == "per-device" else ""
        record = self.db.register(runtime, owner_device=owner, now=self.env.now)
        self._boot_records[key] = record
        boot = self.env.process(runtime.boot())
        self._boots[key] = boot
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("dispatch.cold_boots").inc()
            metrics.gauge("dispatch.pending_boots").set(len(self._boots))
        # Bookkeeping settles in an event callback, not after the yield:
        # callbacks run before any waiter resumes, so every waiter — and
        # an interrupted initiator's successors — observes a consistent
        # DB, and a failed boot's dead record never lingers.
        boot.add_callback(lambda ev: self._boot_settled(key, record, boot))
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

    def _boot_settled(self, key: str, record: ContainerRecord, boot: "Event") -> None:
        """Boot-completion bookkeeping (runs before waiters resume)."""
        if self._boots.get(key) is boot:
            del self._boots[key]
            metrics = metrics_of(self.env)
            if metrics is not None:
                metrics.gauge("dispatch.pending_boots").set(len(self._boots))
        if boot.exception is None:
            self._ever_warm.add(key)
            self._wake_waiters(boot)
            return
        # Failed boot: evict the dead record so nothing dispatches to it
        # and the DB's memory/disk accounting stays honest.
        if self._boot_records.get(key) is record:
            del self._boot_records[key]
        self.db.unregister(record.cid)
        if record.runtime.state is RuntimeState.CRASHED:
            # An injected-fault death is recoverable; don't let an
            # unwatched boot failure crash the kernel while the waiters
            # that will handle it are still queued to resume.
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

    def boot_process_for(self, record: ContainerRecord) -> Optional["Event"]:
        """The in-flight boot process of a BOOTING record, if tracked."""
        for key, rec in self._boot_records.items():
            if rec is record:
                return self._boots.get(key)
        for entries in self._pool_boots.values():
            for boot, rec in entries:
                if rec is record:
                    return boot
        return None

    # -- warm pool (predictive platforms) -----------------------------------------
    def preboot(self, app_id: str) -> Optional[ContainerRecord]:
        """Boot one warm spare for ``app_id`` ahead of demand.

        Returns the registered record, or ``None`` when no spare can be
        created (no pool factory, node offline, resources exhausted).
        The boot runs under a ``preboot`` span; requests arriving before
        it settles ride it instead of cold-booting.
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
        except Exception:
            return None
        runtime.prewarmed = True
        record = self.db.register(runtime, now=self.env.now)
        boot = self.env.process(self._preboot_proc(runtime))
        # A spare nobody ever waits on must not crash the kernel if its
        # boot dies (node outage mid-pre-boot).
        boot.defused = True
        self._pool_boots.setdefault(app_id, []).append((boot, record))
        self.preboots += 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("sched.preboots").inc()
            metrics.gauge("sched.pool_size").set(self._total_pool())
        boot.add_callback(lambda ev: self._preboot_settled(app_id, record, boot))
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
        # Unmet floors count actual spares only (pooled + pre-booting).
        # pool_size() also counts a pending demand cold boot, which is
        # not a warm slot — using it would let another tenant grab the
        # very capacity the floor still needs.
        reserved = sum(
            max(
                0,
                floor
                - len(self._pool.get(app, ()))
                - len(self._pool_boots.get(app, ())),
            )
            for app, floor in self.pool_floors.items()
            if app != app_id
        )
        return total + 1 + reserved <= self.pool_capacity

    def _note_pool(self, app_id: str) -> None:
        """Report the app's warm-slot count to the tenancy ledger."""
        tenancy = self.env.tenancy
        if tenancy is not None:
            tenancy.pool_set(
                app_id,
                len(self._pool.get(app_id, ()))
                + len(self._pool_boots.get(app_id, ())),
            )

    def _preboot_proc(self, runtime: RuntimeEnvironment) -> Generator:
        with trace_span(self.env, "preboot", who=runtime.instance_id):
            yield from runtime.boot()

    def _preboot_settled(self, app_id: str, record: ContainerRecord, boot: "Event") -> None:
        """Pre-boot bookkeeping: spare joins the pool, or is evicted."""
        entries = self._pool_boots.get(app_id)
        if entries is not None:
            try:
                entries.remove((boot, record))
            except ValueError:  # pragma: no cover - double settle
                pass
            if not entries:
                del self._pool_boots[app_id]
        if boot.exception is None and record.runtime.is_ready:
            self._ever_warm.add(f"app:{app_id}")
            self._pool.setdefault(app_id, []).append(record)
        else:
            self.db.unregister(record.cid)
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.gauge("sched.pool_size").set(self._total_pool())
        self._note_pool(app_id)
        self._wake_waiters(boot)

    def _pool_take(self, app_id: str) -> Optional[ContainerRecord]:
        """Claim a READY spare from the app's pool (skip dead ones)."""
        spares = self._pool.get(app_id)
        while spares:
            record = spares.pop(0)
            if not spares:
                del self._pool[app_id]
                spares = None
            if record.runtime.is_ready:
                self._count_pool_hit()
                self._note_pool(app_id)
                return record
        return None

    def _pool_claim(self, app_id: str, record: ContainerRecord) -> ContainerRecord:
        """A waiter resolved to a specific spare; remove it from the pool."""
        spares = self._pool.get(app_id)
        if spares and record in spares:
            spares.remove(record)
            if not spares:
                del self._pool[app_id]
        self._count_pool_hit()
        self._note_pool(app_id)
        return record

    def _count_pool_hit(self) -> None:
        self.preboot_hits += 1
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("sched.preboot_hits").inc()
            metrics.gauge("sched.pool_size").set(self._total_pool())

    def _rideable_preboot(self, app_id: str) -> Optional[Tuple["Event", ContainerRecord]]:
        """The earliest in-flight pre-boot for the app, if any."""
        entries = self._pool_boots.get(app_id)
        return entries[0] if entries else None

    def drain_pool(self, app_id: str) -> bool:
        """Stop one idle READY spare (predictor hysteresis drain)."""
        spares = self._pool.get(app_id)
        if not spares:
            return False
        for i, record in enumerate(spares):
            if record.runtime.is_ready and record.active_requests == 0:
                spares.pop(i)
                if not spares:
                    del self._pool[app_id]
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
        """READY spares currently pooled for the app."""
        return len(self._pool.get(app_id, ()))

    def pool_size(self, app_id: str) -> int:
        """Warm capacity in flight for the app beyond ready runtimes:
        pooled spares, pre-boots mid-flight, and a demand-driven cold
        boot if one is pending under the app's allocation key."""
        size = len(self._pool.get(app_id, ())) + len(self._pool_boots.get(app_id, ()))
        if f"app:{app_id}" in self._boots:
            size += 1
        return size

    def pooled_cids(self) -> Set[str]:
        """CIDs of every pooled spare (idle-reaper protection)."""
        out: Set[str] = set()
        for spares in self._pool.values():
            for record in spares:
                out.add(record.cid)
        return out

    def _total_pool(self) -> int:
        """Spares + in-flight pre-boots across every app (gauge value)."""
        return sum(len(v) for v in self._pool.values()) + sum(
            len(v) for v in self._pool_boots.values()
        )
