"""Container DB: the platform's registry of runtime instances.

Fig. 4 lists Container DB among Rattrap's support components: it
"stores information of Cloud Android Containers as basis of resource
management".  The Dispatcher consults it for allocation and the
Monitor & Scheduler updates its load figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

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

    @property
    def state(self) -> RuntimeState:
        return self.runtime.state

    @property
    def loaded_apps(self) -> Set[str]:
        return self.runtime.loaded_apps


class ContainerDB:
    """CID-indexed registry of every runtime the platform created."""

    def __init__(self) -> None:
        self._records: Dict[str, ContainerRecord] = {}
        self._next_cid = 1

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
            cid=cid, runtime=runtime, owner_device=owner_device, created_at=now
        )
        self._records[cid] = rec
        return rec

    def unregister(self, cid: str) -> None:
        """Drop a dead runtime's row (failed boot, crash eviction).

        Unknown CIDs are ignored: crash handling may race normal
        teardown and eviction must stay idempotent.
        """
        self._records.pop(cid, None)

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

    def by_device(self, device_id: str) -> List[ContainerRecord]:
        """Records owned by one device."""
        return [r for r in self._records.values() if r.owner_device == device_id]

    def with_app(self, app_id: str) -> List[ContainerRecord]:
        """Ready runtimes that already hold this app's code (warm)."""
        return [
            r
            for r in self._records.values()
            if r.runtime.is_ready and r.runtime.has_app(app_id)
        ]

    # -- load bookkeeping (driven by the scheduler) ----------------------------
    def begin_request(self, cid: str) -> None:
        """Count one request entering the runtime."""
        rec = self.get(cid)
        rec.active_requests += 1
        rec.total_requests += 1

    def end_request(self, cid: str) -> None:
        """Count one request leaving the runtime."""
        rec = self.get(cid)
        if rec.active_requests <= 0:
            raise ValueError(f"{cid}: end_request without begin_request")
        rec.active_requests -= 1

    def total_memory_mb(self) -> float:
        """Memory reserved by live (booting/ready) runtimes."""
        return sum(
            r.runtime.memory_mb
            for r in self._records.values()
            if r.runtime.state in (RuntimeState.BOOTING, RuntimeState.READY)
        )

    def total_disk_bytes(self) -> int:
        """Disk held by live (booting/ready) runtimes."""
        return sum(
            r.runtime.disk_bytes
            for r in self._records.values()
            if r.runtime.state in (RuntimeState.BOOTING, RuntimeState.READY)
        )
