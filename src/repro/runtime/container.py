"""Cloud Android Container: the paper's runtime contribution (§IV-B).

Two variants exist in the evaluation:

- **non-optimized** (``Rattrap(W/O)``): LXC container with the full
  (kernel-less) Android rootfs — no OS customization, no shared layer,
  no code cache.  128 MB memory, 1.02 GB disk, 6.80 s boot.
- **optimized**: customized OS, Shared Resource Layer (7.1 MB private
  top over a shared base), in-memory Sharing Offloading I/O.  96 MB
  memory, 1.75 s boot.

Starting a container references the Android Container Driver modules
and creates a device namespace; stopping releases both, enabling the
unload-when-idle policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..android.boot import container_boot_sequence
from ..hostos.modules import ANDROID_CONTAINER_DRIVER
from ..unionfs import Layer, UnionMount
from .base import MB, RuntimeEnvironment, RuntimeError_

if TYPE_CHECKING:  # pragma: no cover
    from ..hostos.server import CloudServer
    from ..hostos.storage import StorageDevice

__all__ = [
    "CloudAndroidContainer",
    "CAC_MEMORY_MB",
    "CAC_NONOPT_MEMORY_MB",
    "CAC_PRIVATE_BYTES",
    "CAC_NONOPT_DISK_BYTES",
]

#: Table I footprints.
CAC_MEMORY_MB = 96.0  # optimized (observed max usage 96.35 MB)
CAC_NONOPT_MEMORY_MB = 128.0  # non-optimized (observed max 110.56 MB)
CAC_PRIVATE_BYTES = int(7.1 * MB)  # optimized top layer
CAC_NONOPT_DISK_BYTES = int(1045 * MB)  # full rootfs minus kernel = 1.02 GB

#: Container networking is one veth hop on the host stack.
CAC_NET_OVERHEAD_S = 0.01

#: Modules each container references while running.
_DRIVER_MODULES = tuple(ANDROID_CONTAINER_DRIVER)


class CloudAndroidContainer(RuntimeEnvironment):
    """An LXC-based Android runtime on a driver-extended host kernel."""

    kind = "cloud-android-container"

    def __init__(
        self,
        server: "CloudServer",
        instance_id: str,
        optimized: bool = True,
        shared_base: Optional[Layer] = None,
    ):
        if optimized and shared_base is None:
            raise ValueError(
                "an optimized container needs the Shared Resource Layer base"
            )
        if not server.android_ready():
            raise RuntimeError_(
                "host kernel lacks Android features — load the Android "
                "Container Driver first"
            )
        memory = CAC_MEMORY_MB if optimized else CAC_NONOPT_MEMORY_MB
        disk = CAC_PRIVATE_BYTES if optimized else CAC_NONOPT_DISK_BYTES
        super().__init__(
            server=server,
            instance_id=instance_id,
            boot_sequence=container_boot_sequence(optimized=optimized),
            memory_mb=memory,
            disk_bytes=disk,
            cpu_speed_factor=1.0,  # near-native: no hardware virtualization
            io_overhead=1.0,
            net_overhead_s=CAC_NET_OVERHEAD_S,
        )
        self.optimized = optimized
        self.shared_base = shared_base
        self.device_namespace = None
        #: the container's union-mounted rootfs
        top = Layer(f"{instance_id}-top")
        layers: List[Layer] = [top]
        if shared_base is not None:
            layers.append(shared_base)
        self.rootfs = UnionMount(instance_id, layers)

    # -- lifecycle hooks ---------------------------------------------------------
    def _pre_boot(self) -> None:
        for name in _DRIVER_MODULES:
            if self.server.kernel.is_loaded(name):
                self.server.kernel.ref_module(name)
        self.device_namespace = self.server.device_namespaces.create()
        # The container's Binder/Logger endpoints open at init.
        if self.server.kernel.devices.exists("/dev/binder"):
            self.device_namespace.open("/dev/binder")
        for log_dev in ("/dev/log/main", "/dev/log/system"):
            if self.server.kernel.devices.exists(log_dev):
                self.device_namespace.open(log_dev)

    def _post_stop(self) -> None:
        if self.device_namespace is not None:
            self.device_namespace.teardown()
            self.device_namespace = None
        for name in _DRIVER_MODULES:
            if self.server.kernel.is_loaded(name):
                self.server.kernel.unref_module(name)

    # -- offloading I/O -----------------------------------------------------------
    def offload_io_device(self) -> "StorageDevice":
        """Sharing Offloading I/O lands in tmpfs (optimized) or stays
        exclusive on the HDD (non-optimized)."""
        return self.server.tmpfs if self.optimized else self.server.disk

    # -- binder traffic (observability) ---------------------------------------------
    def record_execution(self) -> None:
        """Offloaded code talks to system services over Binder — the
        driver the Android Container Driver namespaces per container.
        Invoking the offloaded method and returning the result is at
        least two transactions."""
        self.binder_transaction()
        self.binder_transaction()

    def binder_transaction(self) -> None:
        """Record one Binder ioctl in this container's device namespace."""
        if self.device_namespace is None:
            raise RuntimeError_(f"{self.instance_id}: no device namespace")
        state = self.device_namespace.state_of("/dev/binder")
        if state is None:
            raise RuntimeError_(f"{self.instance_id}: binder not opened")
        state.ioctl()
