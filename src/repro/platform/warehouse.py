"""App Warehouse and the mobile code cache (§IV-D, Fig. 8).

The code transfer for an app "happens when the application sends its
first offloading request, once and for all".  The warehouse keeps a
cache table keyed by the request's ``Reference`` (the Java-reflection
signature of the offloaded operation), mapping to an **AID** (app id),
the preserved code, and the set of **CID**s (containers) where that
code has already been executed — which lets the Dispatcher route
repeat requests to warm containers "which saves the time for loading
codes".
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..obs import metrics_of

__all__ = ["CacheEntry", "AppWarehouse"]


def _reference_of(app_id: str, operation: str = "offload") -> str:
    """The wire `Reference` for an offloaded operation (stable hash)."""
    return hashlib.sha1(f"{app_id}:{operation}".encode()).hexdigest()[:8]


@dataclass
class CacheEntry:
    """One row of the Fig. 8 cache table."""

    reference: str
    aid: str
    code_bytes: int
    cids: Set[str] = field(default_factory=set)
    hits: int = 0
    stored_at: float = 0.0

    @property
    def index(self) -> int:
        """Number of containers that have executed this code."""
        return len(self.cids)


class AppWarehouse:
    """Platform-wide preserved-code store with the cache table.

    ``capacity_bytes`` bounds the preserved-code footprint; when a new
    store would overflow it, the least-recently-used entries are
    evicted (their next request pays the code upload again).  The
    default is effectively unbounded — the paper's warehouse never
    evicts during the evaluation.
    """

    def __init__(self, capacity_bytes: float = float("inf")) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._by_reference: Dict[str, CacheEntry] = {}
        self._by_aid: Dict[str, CacheEntry] = {}
        #: LRU order: least-recently-used first (O(1) touch/evict)
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self.lookups = 0
        self.misses = 0
        self.evictions = 0
        #: environment this warehouse reports metrics through (set by
        #: the owning platform via bind_env; None = no reporting)
        self._env: Optional[Any] = None

    def bind_env(self, env: Any) -> "AppWarehouse":
        """Attach the environment whose metrics registry (if any)
        receives warehouse lookup/store/evict counters."""
        self._env = env
        return self

    def _metrics(self):
        return metrics_of(self._env) if self._env is not None else None

    def _touch(self, app_id: str) -> None:
        self._lru[app_id] = None
        self._lru.move_to_end(app_id)

    # -- cache protocol -----------------------------------------------------------
    def reference_for(self, app_id: str, operation: str = "offload") -> str:
        """The wire Reference for an app's offloaded operation."""
        return _reference_of(app_id, operation)

    def lookup(self, app_id: str, operation: str = "offload") -> Optional[CacheEntry]:
        """HIT path of Fig. 8: find preserved code by Reference."""
        self.lookups += 1
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("warehouse.lookups").inc()
        entry = self._by_reference.get(self.reference_for(app_id, operation))
        if entry is None:
            self.misses += 1
            if metrics is not None:
                metrics.counter("warehouse.misses").inc()
            return None
        entry.hits += 1
        self._touch(app_id)
        return entry

    def has_code(self, app_id: str) -> bool:
        """Is the app's code preserved (without counting a lookup)?"""
        return app_id in self._by_aid

    def store(
        self, app_id: str, code_bytes: int, now: float = 0.0, operation: str = "offload"
    ) -> CacheEntry:
        """MISS path: preserve newly received code and index it."""
        if code_bytes < 0:
            raise ValueError("code_bytes must be >= 0")
        if app_id in self._by_aid:
            raise ValueError(f"code for {app_id!r} already preserved")
        if code_bytes > self.capacity_bytes:
            raise ValueError(
                f"code for {app_id!r} ({code_bytes} B) exceeds warehouse "
                f"capacity ({self.capacity_bytes} B)"
            )
        # LRU eviction until the new entry fits.
        while self.total_code_bytes() + code_bytes > self.capacity_bytes:
            victim = next(iter(self._lru))
            self.evict(victim)
            self.evictions += 1
        entry = CacheEntry(
            reference=self.reference_for(app_id, operation),
            aid=app_id,
            code_bytes=code_bytes,
            stored_at=now,
        )
        self._by_reference[entry.reference] = entry
        self._by_aid[app_id] = entry
        self._touch(app_id)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("warehouse.stores").inc()
            metrics.gauge("warehouse.code_bytes").set(self.total_code_bytes())
        return entry

    def evict(self, app_id: str) -> None:
        """Drop an app's preserved code (KeyError if absent)."""
        entry = self._by_aid.pop(app_id, None)
        if entry is None:
            raise KeyError(f"no preserved code for {app_id!r}")
        del self._by_reference[entry.reference]
        self._lru.pop(app_id, None)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("warehouse.evicted").inc()
            metrics.gauge("warehouse.code_bytes").set(self.total_code_bytes())

    # -- CID mapping (cache table; dispatch reads the Container DB) --------------------
    def register_execution(self, app_id: str, cid: str) -> None:
        """Record that container ``cid`` has loaded/executed this code."""
        entry = self._by_aid.get(app_id)
        if entry is None:
            raise KeyError(f"no preserved code for {app_id!r}")
        entry.cids.add(cid)

    def containers_for(self, app_id: str) -> List[str]:
        """CIDs that have executed this app's code (the cache table's CID column)."""
        entry = self._by_aid.get(app_id)
        return sorted(entry.cids) if entry else []

    # -- stats -------------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return 1.0 - self.misses / self.lookups

    def total_code_bytes(self) -> int:
        """Bytes of preserved code across all entries."""
        return sum(e.code_bytes for e in self._by_aid.values())

    def entries(self) -> List[CacheEntry]:
        """Every preserved-code entry."""
        return list(self._by_aid.values())

    def __len__(self) -> int:
        return len(self._by_aid)
