"""Runtime-environment lifecycle shared by VMs and containers.

A runtime environment hosts offloaded mobile code: it boots on a
server, holds memory/disk resources while alive, remembers which app
packages it has loaded, and exposes the storage path its offloading
I/O uses — the knob Rattrap turns (exclusive-on-HDD vs shared-tmpfs,
§IV-C).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Optional, Set

from ..android.boot import BootSequence
from ..obs import metrics_of, trace_span

if TYPE_CHECKING:  # pragma: no cover
    from ..hostos.server import CloudServer
    from ..hostos.storage import StorageDevice
    from ..platform.container_db import ContainerDB

__all__ = ["RuntimeState", "RuntimeEnvironment", "RuntimeError_"]

MB = 1024 * 1024


class RuntimeError_(RuntimeError):
    """Invalid runtime lifecycle transition."""


class RuntimeState(str, enum.Enum):
    CREATED = "created"
    BOOTING = "booting"
    READY = "ready"
    STOPPED = "stopped"
    #: died abruptly (injected fault, node outage) — resources were
    #: reclaimed, but the runtime never went through an orderly stop
    CRASHED = "crashed"


class RuntimeEnvironment:
    """Base class for Android VM and Cloud Android Container."""

    #: subclass identity used in reports
    kind = "generic"

    def __init__(
        self,
        server: "CloudServer",
        instance_id: str,
        boot_sequence: BootSequence,
        memory_mb: float,
        disk_bytes: int,
        cpu_speed_factor: float = 1.0,
        io_overhead: float = 1.0,
        net_overhead_s: float = 0.0,
    ):
        if memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if disk_bytes < 0:
            raise ValueError("disk_bytes must be >= 0")
        self.server = server
        self.env = server.env
        self.instance_id = instance_id
        self.boot_sequence = boot_sequence
        self.memory_mb = memory_mb
        self.disk_bytes = disk_bytes
        self.cpu_speed_factor = cpu_speed_factor
        self.io_overhead = io_overhead
        if net_overhead_s < 0:
            raise ValueError("net_overhead_s must be >= 0")
        #: per-request guest network-stack cost (NAT/bridge traversal,
        #: vCPU wakeups for VMs; veth hop for containers)
        self.net_overhead_s = net_overhead_s
        self.state = RuntimeState.CREATED
        self.booted_at: Optional[float] = None
        self.ready_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self.crash_reason: Optional[str] = None
        #: True while memory/disk are reserved (guards double release
        #: when a crash races the boot/stop paths)
        self._resources_held = False
        #: app packages whose code is loaded into this runtime (warm)
        self.loaded_apps: Set[str] = set()
        self.requests_served = 0
        #: True for warm-pool spares booted ahead of demand (predictive
        #: scheduling) — reports can split pre-boots from demand boots
        self.prewarmed = False
        #: the Container DB holding this runtime's row (set by
        #: ``ContainerDB.register``); told of every state change and
        #: code load so its indices stay current
        self.container_db: Optional["ContainerDB"] = None

    def _enter(self, state: RuntimeState) -> None:
        """Move to ``state`` and report the transition to the Container DB."""
        self.state = state
        if self.container_db is not None:
            self.container_db.runtime_changed(self)

    # -- lifecycle --------------------------------------------------------------
    def _acquire_resources(self) -> None:
        """Reserve memory then disk; roll back and STOP on failure."""
        try:
            self.server.memory.reserve(self.instance_id, self.memory_mb)
        except Exception:
            self._enter(RuntimeState.STOPPED)
            raise
        try:
            self.server.disk.allocate(self.disk_bytes)
        except Exception:
            self.server.memory.release(self.instance_id)
            self._enter(RuntimeState.STOPPED)
            raise
        self._resources_held = True

    def _release_resources(self) -> None:
        """Return memory/disk and run the subclass teardown hook (once)."""
        if not self._resources_held:
            return
        self._resources_held = False
        self.server.memory.release(self.instance_id)
        self.server.disk.deallocate(self.disk_bytes)
        self._post_stop()

    def boot(self) -> Generator:
        """Process generator: boot this runtime on its server.

        Reserves memory and disk up front (the paper's footprints are
        start-time reservations), then runs the boot sequence under
        whatever CPU/disk contention currently exists.  A boot process
        that is interrupted (fault injection, node outage) releases its
        resources and leaves the runtime CRASHED.
        """
        if self.state is not RuntimeState.CREATED:
            raise RuntimeError_(
                f"{self.instance_id}: boot from state {self.state.value}"
            )
        self._enter(RuntimeState.BOOTING)
        self.booted_at = self.env.now
        self._acquire_resources()
        self._pre_boot()
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("runtime.boots").inc()
        try:
            with trace_span(self.env, "boot", who=self.instance_id):
                yield self.env.process(self.boot_sequence.run(self.server))
        except BaseException:
            if self.state is RuntimeState.BOOTING:
                self._mark_crashed("boot aborted")
            raise
        if self.state is not RuntimeState.BOOTING:
            # Crashed out from under us in the same tick the sequence
            # finished; resources are already released.
            raise RuntimeError_(f"{self.instance_id}: crashed during boot")
        self._enter(RuntimeState.READY)
        self.ready_at = self.env.now
        return self

    def restore(self) -> "RuntimeEnvironment":
        """Bring a CREATED runtime straight to READY from a checkpoint.

        Used by live migration: the destination instance acquires its
        resources and becomes serving without running a boot sequence —
        its state arrived over the wire.
        """
        if self.state is not RuntimeState.CREATED:
            raise RuntimeError_(
                f"{self.instance_id}: restore from state {self.state.value}"
            )
        self._enter(RuntimeState.BOOTING)
        self.booted_at = self.env.now
        self._acquire_resources()
        self._pre_boot()
        self._enter(RuntimeState.READY)
        self.ready_at = self.env.now
        return self

    def stop(self) -> None:
        """Tear the runtime down, releasing memory and disk."""
        if self.state in (RuntimeState.STOPPED, RuntimeState.CRASHED):
            raise RuntimeError_(f"{self.instance_id}: already {self.state.value}")
        if self.state is RuntimeState.BOOTING:
            raise RuntimeError_(f"{self.instance_id}: cannot stop mid-boot")
        if self.state is RuntimeState.READY:
            self._release_resources()
        self._enter(RuntimeState.STOPPED)
        self.stopped_at = self.env.now

    def crash(self, reason: str = "fault") -> bool:
        """Abrupt, unclean death: reclaim resources, mark CRASHED.

        Valid from BOOTING or READY (returns True); a no-op from any
        other state (returns False).  Unlike :meth:`stop` this never
        raises — crash paths must be safe to call from fault handlers.
        For a BOOTING runtime the caller is responsible for also
        interrupting the boot process so waiters observe the failure.
        """
        if self.state not in (RuntimeState.BOOTING, RuntimeState.READY):
            return False
        self._mark_crashed(reason)
        return True

    def _mark_crashed(self, reason: str) -> None:
        self._release_resources()
        self._enter(RuntimeState.CRASHED)
        self.crash_reason = reason
        self.stopped_at = self.env.now
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter("runtime.crashes").inc()

    def _pre_boot(self) -> None:
        """Subclass hook before the boot sequence runs."""

    def _post_stop(self) -> None:
        """Subclass hook after resources are released."""

    # -- readiness ------------------------------------------------------------------
    @property
    def is_ready(self) -> bool:
        return self.state is RuntimeState.READY

    @property
    def setup_time(self) -> Optional[float]:
        if self.booted_at is None or self.ready_at is None:
            return None
        return self.ready_at - self.booted_at

    # -- code residency ----------------------------------------------------------------
    def has_app(self, app_id: str) -> bool:
        """Is this app's code loaded (warm) in the runtime?"""
        return app_id in self.loaded_apps

    def mark_loaded(self, app_id: str) -> None:
        """Record that this app's code is now resident."""
        if app_id not in self.loaded_apps:
            self.loaded_apps.add(app_id)
            if self.container_db is not None:
                self.container_db.runtime_loaded(self, app_id)

    def record_execution(self) -> None:
        """Account one offloaded execution inside this runtime (subclass
        hook; containers count their Binder traffic)."""

    # -- offloading I/O ------------------------------------------------------------------
    def offload_io_device(self) -> "StorageDevice":
        """Where this runtime's offloading I/O lands (subclass decides)."""
        raise NotImplementedError

    def offload_io_overhead(self) -> float:
        """I/O-time multiplier for offloading I/O on this runtime."""
        return self.io_overhead

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.instance_id} {self.state.value}>"
