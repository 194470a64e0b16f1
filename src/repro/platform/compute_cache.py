"""Content-addressed computation-result cache (node + cluster tiers).

The headline workloads are deterministic compute: many devices submit
the *same* ``(app, payload)`` pair (every clone scans the same virus
database, popular chess positions recur across players).  PR 3
exploited that for storage — content-addressed tmpfs staging — but
every request still burned the full ``execute`` phase.  This module
closes the gap: a result cache keyed by ``(app_id, code_version,
payload_digest)`` lets the serve path skip execution entirely on a
hit, emitting a ``cache_hit`` span in place of the ``execute`` span so
phase spans still tile response time exactly.

Tiers:

- **Node tier** — :class:`ComputeResultCache`, a per-node LRU with a
  byte budget (the O(1) ``OrderedDict`` pattern of the App Warehouse).
- **Cluster tier** — :class:`ClusterCacheDirectory` routes a digest to
  its *owning* node via rendezvous (highest-random-weight) hashing, so
  a result computed on any node benefits the whole cluster without a
  broadcast; each node keeps a small bounded mirror of remotely fetched
  hot entries so repeat lookups stay local.

Admission is **cost-aware**: an entry is only cached when the observed
``execute_s × predicted repeat probability`` beats its residency cost.
The repeat probability is a per-app EWMA of a seen-before indicator fed
by a bounded *ghost list* of recently looked-up keys — the same
exponential-smoothing machinery as the warm-pool predictor's arrival
EWMA, and just as self-priming: the first sighting of a key lands in
the ghosts, the second raises the app's repeat probability.

Multi-tenant enforcement follows the tmpfs residency design: when a
:class:`~repro.platform.tenancy.TenancyManager` with
``cache_quota_bytes`` is attached, a tenant staging past its quota
burns its *own* oldest entries first — a cache squatter can fill only
its own allowance, never evict a neighbour wholesale.  Usage rolls
into the tenant ledger (``tenant.cache_bytes.*`` gauges,
``tenant.cache_hits.*`` / ``tenant.cache_evicted_bytes.*`` counters).

Everything follows the ``repro.obs`` zero-cost pattern: platforms
carry ``compute_cache = None`` by default, the serve path's hook is a
single attribute check, and default experiment reports stay
byte-identical with no cache attached.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics_of
from ..offload.messages import result_message
from .tenancy import tenancy_of

if TYPE_CHECKING:  # pragma: no cover
    from ..offload.request import OffloadRequest

__all__ = [
    "ComputeCacheConfig",
    "ComputeResultCache",
    "ClusterCacheDirectory",
    "ResultEntry",
    "rendezvous_owner",
]

MB = 1024 * 1024

#: cache key: (app_id, code_version, payload_digest)
Key = Tuple[str, str, str]

#: simulated latency of serving a hit (result lookup + copy)
HIT_S = 0.002
#: residency cost in CPU-seconds per MB-resident; the cost-aware
#: admission test is ``execute_s * repeat_p >= RESIDENCY_COST_S_PER_MB * MBs``
RESIDENCY_COST_S_PER_MB = 0.05


@dataclass(frozen=True)
class ComputeCacheConfig:
    """Knobs for one node-tier result cache."""

    #: byte budget for resident results (LRU evicts past it)
    capacity_bytes: float = 64 * MB
    #: cost-aware admission: only cache when the expected saved compute
    #: beats the residency cost (False = admit everything, test mode)
    adaptive: bool = True
    #: EWMA smoothing for the per-app repeat-probability estimate
    repeat_alpha: float = 0.3
    #: bound on the ghost list of recently seen keys
    ghost_entries: int = 4096
    #: bound on the per-node mirror of remotely fetched hot entries
    mirror_entries: int = 64

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not (0.0 < self.repeat_alpha <= 1.0):
            raise ValueError("repeat_alpha must be in (0, 1]")
        if self.ghost_entries < 1 or self.mirror_entries < 0:
            raise ValueError("ghost_entries >= 1 and mirror_entries >= 0 required")


@dataclass
class ResultEntry:
    """One cached computation result."""

    key: Key
    tenant: str
    nbytes: int
    execute_s: float
    stored_at: float = 0.0
    hits: int = 0


def rendezvous_owner(node_ids: Sequence[int], key: Key) -> int:
    """Highest-random-weight owner of ``key`` among ``node_ids``.

    Stable under membership change: removing one node only remaps the
    keys that node owned; adding one only claims the keys it now wins.
    (Node identity is the id, so grow/shrink the fleet at the tail.)
    """
    if not node_ids:
        raise ValueError("node_ids must be non-empty")
    salt = f"{key[0]}|{key[1]}|{key[2]}"
    return max(
        node_ids,
        key=lambda nid: hashlib.sha1(f"{nid}:{salt}".encode()).digest(),
    )


class ComputeResultCache:
    """Per-node content-addressed result cache (LRU, byte budget)."""

    def __init__(self, config: Optional[ComputeCacheConfig] = None):
        self.cfg = config or ComputeCacheConfig()
        self._entries: Dict[Key, ResultEntry] = {}
        #: LRU order, least-recently-used first (O(1) touch/evict)
        self._lru: "OrderedDict[Key, None]" = OrderedDict()
        #: per-tenant insertion order, oldest first (quota burn order)
        self._by_tenant: Dict[str, "OrderedDict[Key, None]"] = {}
        #: recently seen keys (hit or miss) feeding the repeat EWMA
        self._ghosts: "OrderedDict[Key, None]" = OrderedDict()
        #: app_id -> EWMA of the seen-before indicator
        self._repeat_p: Dict[str, float] = {}
        #: bounded mirror of entries fetched from other nodes' caches
        self._mirror: "OrderedDict[Key, ResultEntry]" = OrderedDict()
        self.total_bytes = 0
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejected = 0
        self.evictions = 0
        self.evicted_bytes = 0
        #: hits served out of another node's cache (cluster tier)
        self.cluster_hits = 0
        #: hits served from the local mirror of remote entries
        self.mirror_hits = 0
        #: cluster wiring (set by ClusterCacheDirectory.attach)
        self.directory: Optional["ClusterCacheDirectory"] = None
        self.node_index: Optional[int] = None
        self._env: Optional[Any] = None

    def bind_env(self, env: Any) -> "ComputeResultCache":
        """Attach the environment whose metrics/tenancy planes (if any)
        receive cache counters and per-tenant rollups."""
        self._env = env
        return self

    def _metrics(self):
        return metrics_of(self._env) if self._env is not None else None

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def key_for(request: "OffloadRequest") -> Optional[Key]:
        """Cache key of a request; None when the payload is unique."""
        if request.payload_digest is None:
            return None
        return (request.app_id, request.code_version, request.payload_digest)

    # -- repeat-probability estimator ----------------------------------------
    def repeat_probability(self, app_id: str) -> float:
        """Current EWMA estimate that this app's next payload repeats."""
        return self._repeat_p.get(app_id, 0.0)

    def _observe_repeat(self, app_id: str, seen: bool) -> None:
        alpha = self.cfg.repeat_alpha
        prev = self._repeat_p.get(app_id, 0.0)
        self._repeat_p[app_id] = (1.0 - alpha) * prev + (alpha if seen else 0.0)

    def _note_ghost(self, key: Key) -> None:
        ghosts = self._ghosts
        ghosts[key] = None
        ghosts.move_to_end(key)
        while len(ghosts) > self.cfg.ghost_entries:
            ghosts.popitem(last=False)

    # -- lookup ---------------------------------------------------------------
    def lookup(self, request: "OffloadRequest") -> Optional[ResultEntry]:
        """Find a cached result for this request (node, mirror, cluster).

        Every digest-bearing lookup also feeds the ghost list and the
        app's repeat EWMA, hit or miss — the estimator self-primes.
        """
        key = self.key_for(request)
        if key is None:
            return None
        self.lookups += 1
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("compute_cache.lookups").inc()
        entry = self._entries.get(key)
        mirrored = False
        if entry is not None:
            self._touch(key)
        else:
            mirror = self._mirror.get(key)
            if mirror is not None:
                entry = mirror
                mirrored = True
                self.mirror_hits += 1
            elif self.directory is not None:
                entry = self.directory.remote_lookup(self, key)
                if entry is not None:
                    self.cluster_hits += 1
                    self._mirror_put(key, entry)
                    if metrics is not None:
                        metrics.counter("compute_cache.cluster_hits").inc()
        seen = entry is not None or key in self._ghosts
        if self.cfg.adaptive:
            self._observe_repeat(request.app_id, seen)
        self._note_ghost(key)
        if entry is None:
            self.misses += 1
            if metrics is not None:
                metrics.counter("compute_cache.misses").inc()
            return None
        entry.hits += 1
        self.hits += 1
        if metrics is not None:
            metrics.counter("compute_cache.hits").inc()
        tenancy = tenancy_of(self._env)
        if tenancy is not None:
            tenancy.account_cache_hit(request.app_id)
        if mirrored:
            self._mirror.move_to_end(key)
        return entry

    def _touch(self, key: Key) -> None:
        self._lru[key] = None
        self._lru.move_to_end(key)

    def _mirror_put(self, key: Key, entry: ResultEntry) -> None:
        if self.cfg.mirror_entries <= 0:
            return
        mirror = self._mirror
        mirror[key] = entry
        mirror.move_to_end(key)
        while len(mirror) > self.cfg.mirror_entries:
            mirror.popitem(last=False)

    def owner_get(self, key: Key) -> Optional[ResultEntry]:
        """Directory-side read of a locally owned entry (touches LRU;
        the *asking* node counts the hit)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._touch(key)
        return entry

    # -- admission ------------------------------------------------------------
    def admits(self, request: "OffloadRequest", execute_s: float, nbytes: int) -> bool:
        """Cost-aware admission test for one freshly computed result."""
        if not self.cfg.adaptive:
            return True
        expected_saving = execute_s * self.repeat_probability(request.app_id)
        residency_cost = RESIDENCY_COST_S_PER_MB * (nbytes / MB)
        return expected_saving >= residency_cost

    # -- store ----------------------------------------------------------------
    def offer(
        self,
        request: "OffloadRequest",
        execute_s: float,
        nbytes: Optional[int] = None,
        now: float = 0.0,
    ) -> bool:
        """Offer a freshly computed result for caching.

        Returns True when the result was stored (on this node or, with
        a cluster directory attached, on the digest's owning node, in
        which case a mirror copy is kept locally).
        """
        key = self.key_for(request)
        if key is None:
            return False
        if nbytes is None:
            nbytes = result_message(request.profile).size_bytes
        if key in self._entries:
            self._touch(key)
            return False
        if not self.admits(request, execute_s, nbytes) or nbytes > self.cfg.capacity_bytes:
            self.rejected += 1
            metrics = self._metrics()
            if metrics is not None:
                metrics.counter("compute_cache.rejected").inc()
            return False
        if self.directory is not None:
            owner = self.directory.owner_index(key)
            if owner != self.node_index:
                owner_cache = self.directory.caches[owner]
                if key in owner_cache._entries:
                    return False
                entry = owner_cache._store(key, request.app_id, nbytes, execute_s, now)
                if entry is not None:
                    self._mirror_put(key, entry)
                return entry is not None
        return self._store(key, request.app_id, nbytes, execute_s, now) is not None

    def _store(
        self, key: Key, tenant: str, nbytes: int, execute_s: float, now: float
    ) -> Optional[ResultEntry]:
        tenancy = tenancy_of(self._env)
        quota = None
        if tenancy is not None and tenancy.cfg.enforce:
            quota = tenancy.cfg.cache_quota_bytes
        if quota is not None:
            if nbytes > quota:
                self.rejected += 1
                return None
            # Over-quota staging burns the tenant's *own* oldest
            # entries — a squatter can never evict a neighbour's.
            own = self._by_tenant.get(tenant)
            while own and self.tenant_bytes(tenant) + nbytes > quota:
                self._evict(next(iter(own)))
        while self.total_bytes + nbytes > self.cfg.capacity_bytes:
            self._evict(next(iter(self._lru)))
        entry = ResultEntry(
            key=key, tenant=tenant, nbytes=nbytes, execute_s=execute_s, stored_at=now
        )
        self._entries[key] = entry
        self._touch(key)
        self._by_tenant.setdefault(tenant, OrderedDict())[key] = None
        self.total_bytes += nbytes
        self.stores += 1
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("compute_cache.stores").inc()
            metrics.gauge("compute_cache.bytes").set(self.total_bytes)
        if tenancy is not None:
            tenancy.cache_set(tenant, self.tenant_bytes(tenant))
        return entry

    def _evict(self, key: Key) -> None:
        entry = self._entries.pop(key)
        self._lru.pop(key, None)
        own = self._by_tenant.get(entry.tenant)
        if own is not None:
            own.pop(key, None)
            if not own:
                del self._by_tenant[entry.tenant]
        self.total_bytes -= entry.nbytes
        self.evictions += 1
        self.evicted_bytes += entry.nbytes
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("compute_cache.evictions").inc()
            metrics.gauge("compute_cache.bytes").set(self.total_bytes)
        tenancy = tenancy_of(self._env)
        if tenancy is not None:
            tenancy.account_cache_eviction(entry.tenant, entry.nbytes)
            tenancy.cache_set(entry.tenant, self.tenant_bytes(entry.tenant))

    # -- stats ----------------------------------------------------------------
    def tenant_bytes(self, tenant: str) -> int:
        """Resident cache bytes owned by one tenant."""
        own = self._by_tenant.get(tenant)
        if not own:
            return 0
        return sum(self._entries[k].nbytes for k in own)

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> Dict[str, Any]:
        """Picklable counter snapshot for experiment reports."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "stores": self.stores,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "cluster_hits": self.cluster_hits,
            "mirror_hits": self.mirror_hits,
            "entries": len(self._entries),
            "total_bytes": self.total_bytes,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries


class ClusterCacheDirectory:
    """Cluster tier: rendezvous-hashed digest ownership over node caches.

    A digest's entry lives on exactly one *owning* node; every other
    node reaches it through the directory on first lookup and keeps a
    bounded mirror copy — one compute anywhere serves the whole fleet,
    with no broadcast and no per-node duplication of the byte budget.
    """

    def __init__(self, caches: Sequence[ComputeResultCache]):
        if not caches:
            raise ValueError("caches must be non-empty")
        self.caches: List[ComputeResultCache] = list(caches)
        for index, cache in enumerate(self.caches):
            cache.directory = self
            cache.node_index = index
        #: remote lookups resolved through the directory
        self.remote_lookups = 0

    def owner_index(self, key: Key) -> int:
        """The node owning this key under rendezvous hashing."""
        return rendezvous_owner(range(len(self.caches)), key)

    def remote_lookup(
        self, asking: ComputeResultCache, key: Key
    ) -> Optional[ResultEntry]:
        """Fetch an entry from the key's owning node (None on miss)."""
        owner = self.owner_index(key)
        if owner == asking.node_index:
            return None
        self.remote_lookups += 1
        return self.caches[owner].owner_get(key)

    def stats(self) -> Dict[str, Any]:
        """Aggregated counters across every node cache."""
        totals: Dict[str, Any] = {
            "nodes": len(self.caches),
            "remote_lookups": self.remote_lookups,
        }
        for field in (
            "lookups", "hits", "misses", "stores", "rejected",
            "evictions", "cluster_hits", "mirror_hits", "total_bytes",
        ):
            totals[field] = sum(getattr(c, field) for c in self.caches)
        totals["hit_rate"] = (
            totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0
        )
        return totals
