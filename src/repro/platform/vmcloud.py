"""The baseline VM-based cloud platform (§VI-A).

"The current cloud platform whose code runtime environment is usually
based on Android-x86 running in VirtualBox."  Every device gets its own
VM; since "VMs are completely isolated[,] clients have to push mobile
codes into each one of them" — no code cache, exclusive offloading I/O
on the VM's virtual disk, full virtualization taxes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..offload.request import OffloadRequest
from ..runtime.base import RuntimeEnvironment
from ..runtime.vm import AndroidVM
from .base import CloudPlatform

if TYPE_CHECKING:  # pragma: no cover
    from ..hostos.server import CloudServer
    from ..sim.core import Environment

__all__ = ["VMCloudPlatform"]


class VMCloudPlatform(CloudPlatform):
    """Android-x86-in-VirtualBox baseline."""

    name = "vm"

    def __init__(
        self,
        env: "Environment",
        server: Optional["CloudServer"] = None,
        cpu_tax: Optional[float] = None,
        io_tax: Optional[float] = None,
    ):
        super().__init__(env, server=server, dispatch_policy="per-device")
        #: virtualization-tax overrides for sensitivity studies
        self.cpu_tax = cpu_tax
        self.io_tax = io_tax

    def make_runtime(self, cid: str, request: OffloadRequest) -> RuntimeEnvironment:
        kwargs = {}
        if self.cpu_tax is not None:
            kwargs["cpu_tax"] = self.cpu_tax
        if self.io_tax is not None:
            kwargs["io_tax"] = self.io_tax
        return AndroidVM(self.server, cid, **kwargs)
