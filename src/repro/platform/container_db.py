"""Container DB: the platform's registry of runtime instances.

Fig. 4 lists Container DB among Rattrap's support components: it
"stores information of Cloud Android Containers as basis of resource
management".  The Dispatcher consults it for allocation and the
Monitor & Scheduler updates its load figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..runtime.base import RuntimeEnvironment, RuntimeState

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import Process

__all__ = ["ContainerRecord", "ContainerDB"]


@dataclass
class ContainerRecord:
    """One runtime's row in the Container DB."""

    cid: str
    runtime: RuntimeEnvironment
    owner_device: str = ""
    created_at: float = 0.0
    #: requests currently executing inside this runtime
    active_requests: int = 0
    total_requests: int = 0
    #: completion time of the most recent request (idle-reaping input)
    last_used: float = 0.0
    #: the dispatcher's in-flight boot process; None once it settles
    boot: Optional["Process"] = field(default=None, compare=False, repr=False)
    #: registration order within the DB (orders the indices)
    seq: int = field(default=0, compare=False, repr=False)

    @property
    def state(self) -> RuntimeState:
        return self.runtime.state

    @property
    def loaded_apps(self) -> Set[str]:
        return self.runtime.loaded_apps


#: states a runtime never leaves; its row drops out of every live index
_TERMINAL = (RuntimeState.STOPPED, RuntimeState.CRASHED)
#: states whose memory and disk count toward the DB's resource totals
_HOLDING = (RuntimeState.BOOTING, RuntimeState.READY)


class ContainerDB:
    """CID-indexed registry of every runtime the platform created.

    Besides the full table it keeps three live indices, each in
    registration order: the live rows (not STOPPED or CRASHED), the
    live rows per owner device, and per app the READY rows holding its
    code (the paper's AID -> CID mapping).  Registered runtimes report
    their state changes and code loads (:meth:`runtime_changed`,
    :meth:`runtime_loaded`), so the indices never need a scan.

    :attr:`version` counts every registration, state change and code
    load, and (reported by the Dispatcher through :meth:`pool_changed`)
    every change to its spares or boots.  A control loop that sees the
    same version twice knows no warm count and no pool membership moved.
    Requests entering and leaving runtimes leave it alone; load is read
    from :attr:`busy` (the CIDs with requests in flight) and each
    record's request counts.  :attr:`watch`, when set, is called after
    every version bump, and :attr:`idle_watch` with the record whenever
    a runtime's last request leaves it: the platform wakes its
    sleeping control loops from them.
    """

    def __init__(self) -> None:
        self._records: Dict[str, ContainerRecord] = {}
        self._live: Dict[str, ContainerRecord] = {}
        self._by_device: Dict[str, Dict[str, ContainerRecord]] = {}
        self._ready_by_app: Dict[str, Dict[str, ContainerRecord]] = {}
        self._next_cid = 1
        self._next_seq = 0
        self.version = 0
        self.busy: Set[str] = set()
        self.watch: Optional[Callable[[], None]] = None
        self.idle_watch: Optional[Callable[[ContainerRecord], None]] = None

    def _moved(self) -> None:
        """Bump the version and tell the watcher."""
        self.version += 1
        if self.watch is not None:
            self.watch()

    def new_cid(self) -> str:
        """Allocate the next container id."""
        cid = f"cid-{self._next_cid}"
        self._next_cid += 1
        return cid

    def register(
        self, runtime: RuntimeEnvironment, owner_device: str = "", now: float = 0.0
    ) -> ContainerRecord:
        """Add a runtime to the DB under its instance id."""
        cid = runtime.instance_id
        if cid in self._records:
            raise ValueError(f"runtime {cid} already registered")
        rec = ContainerRecord(
            cid=cid,
            runtime=runtime,
            owner_device=owner_device,
            created_at=now,
            seq=self._next_seq,
        )
        self._next_seq += 1
        self._records[cid] = rec
        runtime.container_db = self
        if runtime.state not in _TERMINAL:
            self._live[cid] = rec
            self._by_device.setdefault(owner_device, {})[cid] = rec
            if runtime.state is RuntimeState.READY:
                for app_id in runtime.loaded_apps:
                    self._index_ready(app_id, rec)
        self._moved()
        return rec

    def unregister(self, cid: str) -> None:
        """Drop a dead runtime's row (failed boot, crash eviction).

        Unknown CIDs are ignored: crash handling may race normal
        teardown and eviction must stay idempotent.
        """
        rec = self._records.pop(cid, None)
        if rec is not None:
            self._drop_live(rec)
            rec.runtime.container_db = None
            self.busy.discard(cid)
            self._moved()

    def get(self, cid: str) -> ContainerRecord:
        """The record for a CID (KeyError if unknown)."""
        try:
            return self._records[cid]
        except KeyError:
            raise KeyError(f"unknown container {cid!r}") from None

    def exists(self, cid: str) -> bool:
        """Is the CID registered?"""
        return cid in self._records

    def __len__(self) -> int:
        return len(self._records)

    def all_records(self) -> List[ContainerRecord]:
        """Every registered record, including stopped runtimes."""
        return list(self._records.values())

    def live_records(self) -> List[ContainerRecord]:
        """Records whose runtime is neither STOPPED nor CRASHED, in
        registration order."""
        return list(self._live.values())

    def by_device(self, device_id: str) -> List[ContainerRecord]:
        """Live records owned by one device, in registration order."""
        owned = self._by_device.get(device_id)
        return list(owned.values()) if owned else []

    def with_app(self, app_id: str) -> List[ContainerRecord]:
        """Ready runtimes that already hold this app's code (warm), in
        registration order."""
        table = self._ready_by_app.get(app_id)
        return list(table.values()) if table else []

    def ready_count(self, app_id: str) -> int:
        """How many records :meth:`with_app` would return."""
        return len(self._ready_by_app.get(app_id, ()))

    # -- index upkeep (driven by the runtimes) ---------------------------------
    def runtime_changed(self, runtime: RuntimeEnvironment) -> None:
        """A registered runtime changed state: update the live indices."""
        rec = self._records[runtime.instance_id]
        state = runtime.state
        if state is RuntimeState.READY:
            for app_id in runtime.loaded_apps:
                self._index_ready(app_id, rec)
        elif state in _TERMINAL:
            self._drop_live(rec)
        self._moved()

    def runtime_loaded(self, runtime: RuntimeEnvironment, app_id: str) -> None:
        """A registered runtime loaded an app's code: a READY one joins
        the app's warm index."""
        if runtime.state is RuntimeState.READY:
            self._index_ready(app_id, self._records[runtime.instance_id])
        self._moved()

    def pool_changed(self) -> None:
        """The Dispatcher changed its spares or boots: bump the version."""
        self._moved()

    def _index_ready(self, app_id: str, rec: ContainerRecord) -> None:
        """Add a READY row to an app's index, keeping registration order."""
        table = self._ready_by_app.get(app_id)
        if table is None:
            self._ready_by_app[app_id] = {rec.cid: rec}
            return
        out_of_order = next(reversed(table.values())).seq > rec.seq
        table[rec.cid] = rec
        if out_of_order:
            self._ready_by_app[app_id] = dict(
                sorted(table.items(), key=lambda item: item[1].seq)
            )

    def _drop_live(self, rec: ContainerRecord) -> None:
        """Remove a row from every live index (idempotent)."""
        cid = rec.cid
        if self._live.pop(cid, None) is None:
            return
        owned = self._by_device[rec.owner_device]
        del owned[cid]
        if not owned:
            del self._by_device[rec.owner_device]
        for app_id in rec.runtime.loaded_apps:
            table = self._ready_by_app.get(app_id)
            if table is not None and table.pop(cid, None) is not None and not table:
                del self._ready_by_app[app_id]

    # -- load bookkeeping (driven by the scheduler) ----------------------------
    def begin_request(self, cid: str) -> None:
        """Count one request entering the runtime."""
        rec = self.get(cid)
        if rec.active_requests == 0:
            self.busy.add(cid)
        rec.active_requests += 1
        rec.total_requests += 1

    def end_request(self, cid: str) -> None:
        """Count one request leaving the runtime."""
        rec = self.get(cid)
        if rec.active_requests <= 0:
            raise ValueError(f"{cid}: end_request without begin_request")
        rec.active_requests -= 1
        if rec.active_requests == 0:
            self.busy.discard(cid)
            if self.idle_watch is not None:
                self.idle_watch(rec)

    def total_memory_mb(self) -> float:
        """Memory reserved by live (booting/ready) runtimes."""
        return sum(
            r.runtime.memory_mb for r in self._live.values() if r.runtime.state in _HOLDING
        )

    def total_disk_bytes(self) -> int:
        """Disk held by live (booting/ready) runtimes."""
        return sum(
            r.runtime.disk_bytes for r in self._live.values() if r.runtime.state in _HOLDING
        )
