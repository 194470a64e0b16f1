"""Shared Resource Layer and Sharing Offloading I/O (§IV-C).

Two jobs:

1. **Shared system content** — the customized OS's ``/system`` lives in
   one sealed, disk-resident layer that every optimized container
   union-mounts as its base.  Per-container disk drops to the ~7.1 MB
   top layer (Table I), "about 50 times smaller".
2. **Sharing Offloading I/O** — migrated task data goes into a single
   tmpfs-backed layer shared by all containers (Fig. 7b) instead of
   each container's own COW top (Fig. 7a).  Data is *burned after
   reading*: one-time offload inputs are freed as soon as the task
   finishes, keeping the in-memory layer small and private.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..android.customize import CustomizedOS
from ..faults.errors import ResourceExhausted
from ..obs import metrics_of
from ..unionfs import Layer
from .tenancy import tenancy_of

if TYPE_CHECKING:  # pragma: no cover
    from ..hostos.server import CloudServer
    from ..hostos.storage import StorageDevice
    from ..offload.request import OffloadRequest
    from ..sim.core import Environment

__all__ = ["SharedResourceLayer", "OffloadingIOLayer"]


class OffloadingIOLayer:
    """The shared in-memory staging area for offloaded task data.

    Staging is **content-addressed**: a request staged with a payload
    ``digest`` shares the physical tmpfs copy with every other request
    carrying the same digest (N VirusScan clones scanning against the
    same signature database pay for one allocation).  Each entry is
    refcounted — burn-after-reading frees the bytes only when the last
    reader burns.  Requests staged without a digest get a private
    synthetic one, preserving the original exclusive semantics.
    """

    def __init__(
        self,
        device: "StorageDevice",
        name: str = "offload-io",
        env: Optional["Environment"] = None,
    ):
        self.device = device
        self.layer = Layer(name)
        #: environment whose metrics registry (if enabled) tracks this
        #: layer — None keeps the layer observability-silent
        self.env = env
        #: request_key -> (digest, nbytes)
        self._requests: Dict[str, Tuple[str, int]] = {}
        #: digest -> [refcount, nbytes] (one physical copy each)
        self._entries: Dict[str, List[int]] = {}
        #: physical bytes resident (one copy per distinct digest),
        #: maintained incrementally so gauges stay O(1)
        self._resident = 0
        #: logical bytes staged / burned (dedup hits count fully, so
        #: the burn==stage invariant holds per request)
        self.total_staged = 0
        self.total_burned = 0
        #: content-addressed sharing effectiveness
        self.dedup_hits = 0
        self.dedup_bytes_saved = 0
        #: per-tenant logical residency (only populated when stage() is
        #: called with a tenant — the multi-tenant accounting path)
        self._tenant_resident: Dict[str, int] = {}
        #: per-tenant FIFO of staged keys (quota eviction order)
        self._tenant_keys: Dict[str, List[str]] = {}
        self._key_tenant: Dict[str, str] = {}
        #: residency-quota enforcement totals
        self.quota_evictions = 0
        self.quota_evicted_bytes = 0

    def _metrics(self):
        return metrics_of(self.env) if self.env is not None else None

    def stage(
        self,
        request_key: str,
        nbytes: int,
        now: float = 0.0,
        digest: Optional[str] = None,
        tenant: str = "",
    ) -> bool:
        """Stage one request's payload; returns True when the bytes had
        to be materialized, False on a content-addressed hit (the
        caller can skip the tmpfs write entirely).

        ``tenant`` attributes the logical residency to an app for
        per-tenant accounting; under an enforcing
        :class:`~repro.platform.tenancy.TenancyManager` with a
        ``residency_quota_bytes``, staging past the quota burns the
        tenant's own oldest entries first.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if request_key in self._requests:
            raise ValueError(f"request {request_key!r} already staged")
        if digest is None:
            digest = f"req:{request_key}"  # private, never shared
        path = f"/offload/{digest}"
        metrics = self._metrics()
        entry = self._entries.get(digest)
        if entry is not None:
            if entry[1] != nbytes:
                raise ValueError(
                    f"digest {digest!r} staged with {entry[1]} bytes, "
                    f"restaged with {nbytes}"
                )
            entry[0] += 1
            self._requests[request_key] = (digest, nbytes)
            self.total_staged += nbytes
            self.dedup_hits += 1
            self.dedup_bytes_saved += nbytes
            if nbytes:
                self.layer.link(path)
            if metrics is not None:
                metrics.counter("io.staged_bytes").inc(nbytes)
                metrics.counter("io.dedup_hits").inc()
                metrics.counter("io.dedup_bytes_saved").inc(nbytes)
            self._note_staged(request_key, nbytes, tenant, dedup=True)
            return False
        tenancy = tenancy_of(self.env)
        try:
            self.device.allocate(nbytes)
        except IOError:
            if tenancy is not None:
                # Under tenancy a full staging area is a recoverable
                # platform condition (likely abuse-driven): surface it
                # through the fault taxonomy so retry/backoff and local
                # fallback apply instead of crashing the run.
                raise ResourceExhausted(
                    "tmpfs-staging", f"cannot stage {nbytes} bytes"
                ) from None
            raise
        self._entries[digest] = [1, nbytes]
        self._requests[request_key] = (digest, nbytes)
        self._resident += nbytes
        if nbytes:
            self.layer.add_file(path, nbytes, category="offload_data", mtime=now)
        self.total_staged += nbytes
        if metrics is not None:
            metrics.counter("io.staged_bytes").inc(nbytes)
            metrics.gauge("io.resident_bytes").set(self._resident)
        self._note_staged(request_key, nbytes, tenant, dedup=False)
        return True

    def _note_staged(
        self, request_key: str, nbytes: int, tenant: str, dedup: bool
    ) -> None:
        """Tenant-side bookkeeping for one staged request (no-op untagged)."""
        if not tenant:
            return
        self._key_tenant[request_key] = tenant
        self._tenant_keys.setdefault(tenant, []).append(request_key)
        self._tenant_resident[tenant] = self._tenant_resident.get(tenant, 0) + nbytes
        tenancy = tenancy_of(self.env)
        if tenancy is not None:
            tenancy.residency_set(tenant, self._tenant_resident[tenant])
            if dedup:
                tenancy.account_dedup(tenant, nbytes)
            self._enforce_quota(tenant, request_key, tenancy)

    def _enforce_quota(self, tenant: str, newest_key: str, tenancy) -> None:
        """Burn the tenant's oldest entries while it sits over quota."""
        if not tenancy.cfg.enforce:
            return
        quota = tenancy.cfg.residency_quota_bytes
        if quota is None:
            return
        metrics = self._metrics()
        while self._tenant_resident.get(tenant, 0) > quota:
            keys = self._tenant_keys.get(tenant)
            if not keys or keys[0] == newest_key:
                # A single over-quota payload stays until its own burn;
                # eviction only reclaims *other* entries of the tenant.
                break
            victim = keys[0]
            nbytes = self.burn(victim)
            self.quota_evictions += 1
            self.quota_evicted_bytes += nbytes
            tenancy.account_eviction(tenant, nbytes)
            if metrics is not None:
                metrics.counter("io.quota_evictions").inc()
                metrics.counter("io.quota_evicted_bytes").inc(nbytes)

    def burn(self, request_key: str) -> int:
        """'Burn after reading': drop a request's reference; the bytes
        are freed when the last sharer burns."""
        staged = self._requests.pop(request_key, None)
        if staged is None:
            raise KeyError(f"request {request_key!r} was never staged")
        digest, nbytes = staged
        entry = self._entries[digest]
        entry[0] -= 1
        if nbytes:
            self.layer.unlink(f"/offload/{digest}")
        metrics = self._metrics()
        if entry[0] == 0:
            del self._entries[digest]
            self.device.deallocate(nbytes)
            self._resident -= nbytes
            if metrics is not None:
                metrics.gauge("io.resident_bytes").set(self._resident)
        self.total_burned += nbytes
        if metrics is not None:
            metrics.counter("io.burned_bytes").inc(nbytes)
        tenant = self._key_tenant.pop(request_key, "")
        if tenant:
            keys = self._tenant_keys.get(tenant)
            if keys is not None:
                try:
                    keys.remove(request_key)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not keys:
                    del self._tenant_keys[tenant]
            left = self._tenant_resident.get(tenant, 0) - nbytes
            if left > 0:
                self._tenant_resident[tenant] = left
            else:
                self._tenant_resident.pop(tenant, None)
            tenancy = tenancy_of(self.env)
            if tenancy is not None:
                tenancy.residency_set(tenant, max(0, left))
        return nbytes

    def tenant_resident_bytes(self, tenant: str) -> int:
        """Logical staged bytes currently attributed to one tenant."""
        return self._tenant_resident.get(tenant, 0)

    def has_staged(self, request_key: str) -> bool:
        """Is this request's payload currently resident?  (O(1))."""
        return request_key in self._requests

    @property
    def resident_bytes(self) -> int:
        """Physical bytes resident — one copy per distinct digest."""
        return self._resident

    def staged_requests(self) -> list:
        """Request keys currently resident in the layer."""
        return sorted(self._requests)


class SharedResourceLayer:
    """The platform-wide shared base + offloading I/O layers."""

    def __init__(self, server: "CloudServer", customized_os: CustomizedOS):
        self.server = server
        self.customized_os = customized_os
        self.base_layer: Layer = customized_os.base_layer
        # The shared base is stored once on the server disk.
        server.disk.allocate(self.base_layer.total_bytes)
        self._base_allocated = True
        self.offload_io = OffloadingIOLayer(server.tmpfs, env=server.env)
        #: Android drivers are shared resources too (§IV-C) — exposed
        #: here for observability; the kernel owns the refcounting.
        self.shared_driver_modules = tuple(
            m for m in server.kernel.loaded_modules() if m.startswith(("binder", "android", "ashmem", "sw_"))
        )

    @property
    def base_bytes(self) -> int:
        return self.base_layer.total_bytes

    # -- Sharing Offloading I/O per request ----------------------------------------
    def stage(self, request: "OffloadRequest", nbytes: int) -> None:
        """Stage a request's payload in the shared tmpfs layer.

        Content-addressed by the payload digest when the client supplied
        one: a dedup hit skips the tmpfs write, the bytes are already
        resident.  The write itself runs asynchronously.
        """
        env = self.server.env
        fresh = self.offload_io.stage(
            f"req-{request.request_id}",
            nbytes,
            now=env.now,
            digest=request.payload_digest,
            tenant=request.app_id,
        )
        if fresh:
            proc = env.process(self.server.tmpfs.write(nbytes))
            proc.defused = True

    def burn(self, request: "OffloadRequest") -> None:
        """Burn after reading: free the request's staged data, if any."""
        key = f"req-{request.request_id}"
        if self.offload_io.has_staged(key):
            self.offload_io.burn(key)

    def release(self) -> None:
        """Free the shared base (platform shutdown)."""
        if self._base_allocated:
            self.server.disk.deallocate(self.base_layer.total_bytes)
            self._base_allocated = False

    def fleet_disk_bytes(self, container_private_bytes: int, containers: int) -> int:
        """Disk for N optimized containers: one base + N private tops."""
        if containers < 0 or container_private_bytes < 0:
            raise ValueError("arguments must be non-negative")
        return self.base_bytes + containers * container_private_bytes
