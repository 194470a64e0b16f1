"""Live runtime migration between servers (scale-out extension).

Two facts from the paper's context motivate this module: containers
bring "low-overhead process migration" (Zap [7]), and the related
CMCloud [1] meets QoS by *VM* migration.  We implement pre-copy live
migration for both runtime kinds so their costs can be compared:

1. **pre-copy rounds**: resident state is transferred while the source
   keeps serving; each round re-sends the pages dirtied during the
   previous round (geometric shrink by ``dirty_rate``);
2. **stop-and-copy**: the source freezes, the residual dirty set and
   kernel-side state (device-namespace contents for containers) move,
   and the destination restores — this window is the **downtime**;
3. the source is torn down.

Containers move far less state (runtime memory is ~96 MB vs 512 MB,
and the rootfs is *already* on every Rattrap node via the shared base
layer), while a VM without shared storage must also ship its 1.1 GB
virtual disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..runtime.base import RuntimeEnvironment
from .base import CloudPlatform
from .container_db import ContainerRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["MigrationManager", "MigrationReport", "MigrationError"]

MB = 1024 * 1024


class MigrationError(RuntimeError):
    """Raised when a migration cannot proceed."""


@dataclass
class MigrationReport:
    """What one migration cost."""

    cid: str
    kind: str
    precopy_rounds: int
    transferred_bytes: int
    total_time_s: float
    downtime_s: float
    new_cid: str = ""


class MigrationManager:
    """Moves runtimes between two platforms over a datacenter backbone."""

    def __init__(
        self,
        backbone_bw_mbps: float = 1000.0,
        backbone_latency_s: float = 0.001,
        dirty_rate: float = 0.15,
        max_precopy_rounds: int = 4,
        stop_threshold_bytes: int = 8 * MB,
        shared_storage: bool = True,
    ):
        if backbone_bw_mbps <= 0:
            raise ValueError("backbone bandwidth must be positive")
        if not (0.0 <= dirty_rate < 1.0):
            raise ValueError("dirty_rate must be in [0, 1)")
        if max_precopy_rounds < 1:
            raise ValueError("max_precopy_rounds must be >= 1")
        self.backbone_bw = backbone_bw_mbps * 1e6 / 8.0  # bytes/s
        self.backbone_latency_s = backbone_latency_s
        self.dirty_rate = dirty_rate
        self.max_precopy_rounds = max_precopy_rounds
        self.stop_threshold_bytes = stop_threshold_bytes
        #: when False, a VM's virtual disk must also be shipped
        self.shared_storage = shared_storage
        self.completed = 0

    # -- state sizing -----------------------------------------------------------
    def resident_state_bytes(self, runtime: RuntimeEnvironment) -> int:
        """Memory state that must cross the wire."""
        return int(runtime.memory_mb * MB)

    def cold_state_bytes(self, runtime: RuntimeEnvironment) -> int:
        """Disk state shipped when storage is not shared.

        Optimized containers ship only their private top layer — the
        shared base is already resident on every Rattrap node.
        """
        if self.shared_storage:
            return 0
        return runtime.disk_bytes

    def _transfer_time(self, nbytes: float) -> float:
        return self.backbone_latency_s + nbytes / self.backbone_bw

    # -- the migration ------------------------------------------------------------
    def migrate(
        self,
        record: ContainerRecord,
        src: CloudPlatform,
        dst: CloudPlatform,
        force: bool = False,
    ) -> Generator:
        """Process generator: live-migrate ``record`` from src to dst.

        Returns a :class:`MigrationReport`.  The destination runtime is
        registered in ``dst``'s Container DB with the source's warm
        apps; the source is stopped.
        """
        runtime = record.runtime
        env: "Environment" = src.env
        if dst.env is not env:
            raise MigrationError("platforms must share one simulation environment")
        if not runtime.is_ready:
            raise MigrationError(f"{record.cid}: only READY runtimes migrate")
        if record.active_requests > 0 and not force:
            raise MigrationError(
                f"{record.cid}: {record.active_requests} requests in flight "
                "(drain first, or force=True)"
            )
        start = env.now
        transferred = 0

        # Cold state first (disk image), while the source keeps serving.
        disk_bytes = self.cold_state_bytes(runtime)
        if disk_bytes:
            yield env.timeout(self._transfer_time(disk_bytes))
            transferred += disk_bytes

        # Pre-copy rounds over resident memory.
        remaining = self.resident_state_bytes(runtime)
        rounds = 0
        while rounds < self.max_precopy_rounds and remaining > self.stop_threshold_bytes:
            yield env.timeout(self._transfer_time(remaining))
            transferred += remaining
            remaining = int(remaining * self.dirty_rate)
            rounds += 1

        # Stop-and-copy: freeze, ship the residual + kernel-side state.
        downtime_start = env.now
        kernel_state = 64 * 1024  # device-namespace/binder bookkeeping
        yield env.timeout(self._transfer_time(remaining + kernel_state))
        transferred += remaining + kernel_state

        # Restore on the destination.
        new_cid = dst.db.new_cid()
        probe_request = _RestoreRequest(record)
        new_runtime = dst.make_runtime(new_cid, probe_request)
        new_runtime.restore()
        for app in runtime.loaded_apps:
            new_runtime.mark_loaded(app)
        new_record = dst.db.register(
            new_runtime, owner_device=record.owner_device, now=env.now
        )
        # Replicate preserved code for the warm apps so the destination
        # cache serves them without client re-upload.
        src_wh = src.warehouse
        dst_wh = dst.warehouse
        if dst_wh is not None:
            for app in runtime.loaded_apps:
                if not dst_wh.has_code(app):
                    if src_wh is not None and src_wh.has_code(app):
                        entry = src_wh.lookup(app)
                        yield env.timeout(self._transfer_time(entry.code_bytes))
                        transferred += entry.code_bytes
                        dst_wh.store(app, entry.code_bytes, now=env.now)
                    else:
                        continue
                dst_wh.register_execution(app, new_cid)
        downtime = env.now - downtime_start

        runtime.stop()
        self.completed += 1
        return MigrationReport(
            cid=record.cid,
            kind=runtime.kind,
            precopy_rounds=rounds,
            transferred_bytes=transferred,
            total_time_s=env.now - start,
            downtime_s=downtime,
            new_cid=new_record.cid,
        )


class _RestoreRequest:
    """Minimal request-shaped object for ``make_runtime`` during restore."""

    def __init__(self, record: ContainerRecord):
        self.device_id = record.owner_device
        self.app_id = next(iter(record.runtime.loaded_apps), "")
        self.profile = None
        self.request_id = -1
