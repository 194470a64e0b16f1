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

from typing import TYPE_CHECKING, Generator, Optional

from ..android.customize import CustomizedOS, customize_os
from ..android.image import build_android_image
from ..hostos.server import CloudServer
from ..obs import metrics_of
from ..offload.messages import KB
from ..offload.request import OffloadRequest
from ..runtime.base import RuntimeEnvironment
from ..runtime.container import CloudAndroidContainer
from .access import AccessDecision, RequestAccessController
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
    """Container-based mobile offloading cloud."""

    def __init__(
        self,
        env: "Environment",
        server: Optional[CloudServer] = None,
        optimized: bool = True,
        dispatch_policy: str = "per-device",
        access_controller: Optional[RequestAccessController] = None,
    ):
        self.optimized = optimized
        self.name = "rattrap" if optimized else "rattrap-wo"
        self.warehouse: Optional[AppWarehouse] = (
            AppWarehouse().bind_env(env) if optimized else None
        )
        super().__init__(env, server=server, dispatch_policy=dispatch_policy)
        self.access = access_controller or RequestAccessController()
        # Extend the host kernel before any container starts.  insmod of
        # the whole pack is sub-0.1 s — negligible next to any boot — so
        # it happens synchronously at platform construction.
        from ..hostos.modules import android_container_driver_pack

        for spec in android_container_driver_pack():
            if not self.server.kernel.is_loaded(spec.name):
                self.server.kernel.load_module(spec, now=env.now)
        self.shared_layer: Optional[SharedResourceLayer] = None
        if optimized:
            self.shared_layer = SharedResourceLayer(self.server, _customized_os())
        #: apps whose code upload is in flight: later requests treat the
        #: cache as hit and wait for the upload instead of re-sending.
        self._code_pending: dict = {}
        #: app -> request_id of the request carrying its code; if that
        #: request dies mid-upload, the reservation must be released so
        #: waiters are not stranded (see on_request_failed)
        self._code_owner: dict = {}

    # ------------------------------------------------------------------ hooks
    def warehouse_or_none(self):
        return self.warehouse

    def make_runtime(self, cid: str, request: OffloadRequest) -> RuntimeEnvironment:
        shared_base = self.shared_layer.base_layer if self.shared_layer else None
        return CloudAndroidContainer(
            self.server, cid, optimized=self.optimized, shared_base=shared_base
        )

    def make_pool_runtime(self, cid: str, app_id: str) -> RuntimeEnvironment:
        """A warm-pool spare: same CAC, flagged prewarmed.  The app's
        code reaches it through the Warehouse on first dispatch."""
        shared_base = self.shared_layer.base_layer if self.shared_layer else None
        return CloudAndroidContainer(
            self.server,
            cid,
            optimized=self.optimized,
            shared_base=shared_base,
            prewarmed=True,
        )

    def code_needed(self, request: OffloadRequest, runtime: RuntimeEnvironment) -> bool:
        """With the code cache, upload only on a platform-wide miss;
        without it, per-container like the VM cloud."""
        if self.warehouse is None:
            return not runtime.has_app(request.app_id)
        app = request.app_id
        if app in self._code_pending:
            return False  # upload already in flight — treat as hit
        if self.warehouse.lookup(app) is not None:
            return False
        # Reserve: this request carries the code, once and for all.
        self._code_pending[app] = self.env.event()
        self._code_owner[app] = request.request_id
        return True

    def on_code_received(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> Generator:
        code_bytes = int(request.profile.code_size_kb * KB)
        if self.warehouse is not None:
            self.warehouse.store(request.app_id, code_bytes, now=self.env.now)
        yield from self.server.disk.write(code_bytes)
        pending = self._code_pending.pop(request.app_id, None)
        self._code_owner.pop(request.app_id, None)
        if pending is not None:
            pending.succeed()

    def on_request_failed(self, request: OffloadRequest, exc: Exception) -> None:
        """Release a dead request's code-upload reservation.

        If the request carrying an app's code dies mid-flight, every
        request parked on the pending event would otherwise wait
        forever.  Failing the event with :class:`CodeUploadAborted`
        (retryable) sends them back to the client so a survivor
        re-uploads the code.  The request's staged offload data is
        burned too — a retry must be able to re-stage its payload.
        """
        if self.optimized and self.shared_layer is not None:
            key = f"req-{request.request_id}"
            if self.shared_layer.offload_io.has_staged(key):
                self.shared_layer.offload_io.burn(key)
        app = request.app_id
        if self._code_owner.get(app) != request.request_id:
            return
        del self._code_owner[app]
        pending = self._code_pending.pop(app, None)
        if pending is not None and not pending.triggered:
            from ..faults.errors import CodeUploadAborted

            pending.defused = True  # waiters may already be dead too
            pending.fail(CodeUploadAborted(app))

    def fetch_code(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> Generator:
        # A concurrent first-wave request may reach code load before the
        # reserving request finished uploading — wait for the warehouse.
        pending = self._code_pending.get(request.app_id)
        if pending is not None and not pending.processed:
            yield pending
        code_bytes = int(request.profile.code_size_kb * KB)
        yield from self.server.disk.read(code_bytes, virt_overhead=runtime.io_overhead)

    def on_app_loaded(self, request: OffloadRequest, runtime: RuntimeEnvironment) -> None:
        if self.warehouse is not None:
            self.warehouse.register_execution(request.app_id, runtime.instance_id)

    def stage_payload(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> None:
        payload = int(
            (request.profile.file_size_kb + request.profile.param_size_kb) * KB
        )
        if payload == 0:
            return
        if self.optimized and self.shared_layer is not None:
            # Sharing Offloading I/O: stage into the shared tmpfs layer,
            # content-addressed by the payload digest when the client
            # supplied one.  A dedup hit skips the tmpfs write — the
            # bytes are already resident.
            key = f"req-{request.request_id}"
            fresh = self.shared_layer.offload_io.stage(
                key,
                payload,
                now=self.env.now,
                digest=request.payload_digest,
                tenant=request.app_id,
            )
            if not fresh:
                return
            proc = self.env.process(self.server.tmpfs.write(payload))
        else:
            # Exclusive offloading I/O inside the container's own layer.
            proc = self.env.process(self.server.disk.write(payload))
        proc.defused = True

    def record_execution_effects(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> None:
        """Offloaded code talks to system services over Binder — the
        driver the Android Container Driver namespaces per container.
        Invoking the offloaded method + returning the result is at
        least two transactions."""
        from ..runtime.container import CloudAndroidContainer

        if isinstance(runtime, CloudAndroidContainer):
            runtime.binder_transaction()
            runtime.binder_transaction()

    def after_execution(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> None:
        """Burn after reading: free the request's staged offload data."""
        if self.optimized and self.shared_layer is not None:
            key = f"req-{request.request_id}"
            if self.shared_layer.offload_io.has_staged(key):
                self.shared_layer.offload_io.burn(key)

    # -------------------------------------------------------- access control
    def admit(self, request: OffloadRequest) -> AccessDecision:
        if request.requested_permissions is not None:
            return self.access.admit(
                request.app_id, request.requested_permissions, now=self.env.now
            )
        return self.access.admit(request.app_id, now=self.env.now)

    def admission_delay_s(self, request: OffloadRequest) -> float:
        delay = 0.0
        if self.access.analysis_needed(request.app_id):
            delay = self.access.analysis_time_s
        return delay + self.access.admission_penalty_s(request.app_id, self.env.now)

    def filter_workflow(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> Generator:
        """Run the request's declared workflow through the access filter.

        Every inspected operation costs ``filter_cost_s`` of host CPU —
        the analysis engine is itself a shared resource, which is what a
        permission-violation storm exploits when blocking is disabled.
        Violations land on the app's shared table (and, when attached,
        the tenancy ledger); once the app crosses its threshold the rest
        of the workflow is skipped.
        """
        access = self.access
        env = self.env
        violations = 0
        inspected = 0
        blocked = False
        for operation in request.operations:
            inspected += 1
            if access.filter_cost_s:
                yield self.server.cpu.execute(
                    access.filter_cost_s,
                    speed_factor=runtime.cpu_speed_factor,
                    tag="access.filter",
                )
            decision = access.filter_operation(
                request.app_id, operation, now=env.now
            )
            if decision.allowed:
                continue
            violations += 1
            if access.is_blocked(request.app_id, now=env.now):
                blocked = True
                break
        tenancy = env.tenancy
        if violations:
            metrics = metrics_of(env)
            if metrics is not None:
                metrics.counter("access.violations").inc(violations)
            if tenancy is not None:
                tenancy.account_violations(request.app_id, violations)
        if tenancy is not None and access.filter_cost_s and inspected:
            tenancy.account_cpu(request.app_id, access.filter_cost_s * inspected)
        return blocked

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> list:
        """Stop all runtimes and unload idle Android driver modules."""
        for record in self.db.all_records():
            if record.runtime.is_ready:
                record.runtime.stop()
        return self.server.unload_android_driver()
