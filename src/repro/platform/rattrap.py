"""The Rattrap platform — full and W/O variants (§IV, §VI-A).

- :class:`RattrapPlatform` (``optimized=True``): Cloud Android
  Containers with the customized OS, Shared Resource Layer (shared
  base + tmpfs Sharing Offloading I/O with burn-after-reading), the
  App Warehouse code cache, and the Request-based Access Controller.
- ``optimized=False`` is **Rattrap(W/O)**: "we only replace VM with
  Container and employ NO OS optimization, shared resource design and
  code cache mechanism".

Both load the Android Container Driver into the host kernel before the
first container starts (and can reap it when idle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..android.customize import CustomizedOS, customize_os
from ..android.image import build_android_image
from ..hostos.server import CloudServer
from ..offload.request import OffloadRequest
from ..runtime.base import RuntimeEnvironment
from ..runtime.container import CloudAndroidContainer
from .access import RequestAccessController
from .base import CloudPlatform
from .shared_layer import SharedResourceLayer
from .warehouse import AppWarehouse

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["RattrapPlatform"]

#: The customized OS is deterministic and sealed read-only, yet every
#: optimized platform used to rebuild it from the full Android image —
#: measurable in multi-platform experiments (density boots five).  Build
#: once per process and share the immutable result.
_CUSTOM_OS: Optional[CustomizedOS] = None


def _customized_os() -> CustomizedOS:
    global _CUSTOM_OS
    if _CUSTOM_OS is None:
        _CUSTOM_OS = customize_os(build_android_image())
    return _CUSTOM_OS


class RattrapPlatform(CloudPlatform):
    """Container-based mobile offloading cloud.

    Boots Cloud Android Containers.  The full platform carries all three
    Rattrap components (App Warehouse, Shared Resource Layer, access
    controller); Rattrap(W/O) keeps only the access controller.
    """

    def __init__(
        self,
        env: "Environment",
        server: Optional[CloudServer] = None,
        optimized: bool = True,
        dispatch_policy: str = "per-device",
        access_controller: Optional[RequestAccessController] = None,
    ):
        super().__init__(env, server=server, dispatch_policy=dispatch_policy)
        self.optimized = optimized
        self.name = "rattrap" if optimized else "rattrap-wo"
        if optimized:
            self.warehouse = AppWarehouse().bind_env(env)
        self.access = access_controller or RequestAccessController()
        # Extend the host kernel before any container starts.  insmod of
        # the whole pack is sub-0.1 s — negligible next to any boot — so
        # it happens synchronously at platform construction.
        from ..hostos.modules import android_container_driver_pack

        for spec in android_container_driver_pack():
            if not self.server.kernel.is_loaded(spec.name):
                self.server.kernel.load_module(spec, now=env.now)
        if optimized:
            self.shared_layer = SharedResourceLayer(self.server, _customized_os())

    # -------------------------------------------------------------- runtimes
    def make_runtime(self, cid: str, request: OffloadRequest) -> RuntimeEnvironment:
        return self._container(cid)

    def make_pool_runtime(self, cid: str, app_id: str) -> RuntimeEnvironment:
        """A warm-pool spare: the same CAC.  The app's code reaches it
        through the Warehouse on first dispatch."""
        return self._container(cid)

    def _container(self, cid: str) -> CloudAndroidContainer:
        shared_base = self.shared_layer.base_layer if self.shared_layer else None
        return CloudAndroidContainer(
            self.server, cid, optimized=self.optimized, shared_base=shared_base
        )

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> list:
        """Stop all runtimes and unload idle Android driver modules."""
        for record in self.db.all_records():
            if record.runtime.is_ready:
                record.runtime.stop()
        return self.server.unload_android_driver()
