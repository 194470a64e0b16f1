"""Multi-server Rattrap deployment (scale-out extension).

The paper evaluates one server; a production mobile cloud runs many.
:class:`ClusterPlatform` fronts N per-server platforms with a cluster
dispatcher and exposes the same ``submit`` API as a single platform, so
all replay tooling works unchanged.

Routing policies:

- ``device-sticky`` — hash a device onto one server (session locality:
  the device's runtime, code and warm state live in one place);
- ``least-loaded``  — pick the server with the fewest active requests
  at submission (better load spread, worse cache locality: the code
  cache must warm on every server the app touches).

Both policies are failure-aware: an offline node (injected outage) or
one whose circuit breaker is open is skipped, and sticky devices are
rehashed onto the next surviving node — their warm state re-warms
there through the App Warehouse on first contact.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..network.link import Link
from ..obs import metrics_of
from ..offload.request import OffloadRequest, RequestResult
from .base import CloudPlatform
from .compute_cache import ClusterCacheDirectory
from .rattrap import RattrapPlatform

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.process import Process

__all__ = ["ClusterPlatform", "NodeHealth"]

PlatformFactory = Callable[["Environment"], CloudPlatform]


class NodeHealth:
    """Per-node circuit breaker over consecutive request failures.

    After ``threshold`` consecutive failures the breaker opens for
    ``reset_timeout_s``: routing treats the node as unavailable without
    waiting for more requests to die against it.  One success closes
    it again.
    """

    def __init__(self, threshold: int = 3, reset_timeout_s: float = 30.0):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.threshold = threshold
        self.reset_timeout_s = reset_timeout_s
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.trips = 0
        self.failures = 0

    def record_success(self) -> None:
        """A request served cleanly: close the failure streak."""
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """A request died on this node; trip the breaker at threshold."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            self.open_until = now + self.reset_timeout_s
            self.trips += 1
            self.consecutive_failures = 0

    def available(self, now: float) -> bool:
        """Is the breaker closed (node routable) at ``now``?"""
        return now >= self.open_until


class ClusterPlatform:
    """A fleet of cloud servers behind one dispatch point."""

    def __init__(
        self,
        env: "Environment",
        servers: int = 3,
        platform_factory: Optional[PlatformFactory] = None,
        policy: str = "device-sticky",
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
    ):
        if servers < 1:
            raise ValueError("servers must be >= 1")
        if policy not in ("device-sticky", "least-loaded"):
            raise ValueError(f"unknown cluster policy {policy!r}")
        self.env = env
        self.policy = policy
        factory = platform_factory or (lambda e: RattrapPlatform(e, optimized=True))
        self.nodes: List[CloudPlatform] = [factory(env) for _ in range(servers)]
        for i, node in enumerate(self.nodes):
            node.node_name = f"node{i}"
        self.routed: Dict[str, int] = {}  # device -> node index (sticky)
        self.results: List[RequestResult] = []
        self.health: List[NodeHealth] = [
            NodeHealth(breaker_threshold, breaker_reset_s) for _ in self.nodes
        ]
        #: successful requests collected per node (see node_loads)
        self._served_by_node: List[int] = [0] * servers
        #: sticky devices moved off their home node by a failure
        self.failovers = 0
        #: cluster-tier compute-cache directory (enable_compute_cache)
        self.cache_directory: Optional[ClusterCacheDirectory] = None

    # -- routing -----------------------------------------------------------------
    def _sticky_index(self, device_id: str) -> int:
        digest = hashlib.sha1(device_id.encode()).digest()
        return int.from_bytes(digest[:4], "little") % len(self.nodes)

    def _available(self, idx: int) -> bool:
        """Can this node take traffic right now (health + breaker)?"""
        return not self.nodes[idx].offline and self.health[idx].available(self.env.now)

    def _route_index(self, request: OffloadRequest) -> int:
        if self.policy == "device-sticky":
            home = self.routed.get(
                request.device_id, self._sticky_index(request.device_id)
            )
            n = len(self.nodes)
            for k in range(n):
                idx = (home + k) % n
                if self._available(idx):
                    if self.routed.get(request.device_id) not in (None, idx):
                        self.failovers += 1
                        metrics = metrics_of(self.env)
                        if metrics is not None:
                            metrics.counter("cluster.failovers").inc()
                    self.routed[request.device_id] = idx
                    return idx
            # Whole fleet dark: keep the sticky assignment; the request
            # fails fast and the client's retry policy takes over.
            self.routed[request.device_id] = home
            return home
        # least-loaded: fewest in-flight requests among available nodes,
        # ties to the lowest index (min keeps the first of equals).
        candidates = [i for i in range(len(self.nodes)) if self._available(i)]
        if not candidates:
            candidates = list(range(len(self.nodes)))
        return min(candidates, key=lambda i: (self.nodes[i].scheduler.active_requests, i))

    def route(self, request: OffloadRequest) -> CloudPlatform:
        """Pick the serving node for a request."""
        return self.nodes[self._route_index(request)]

    # -- platform API -----------------------------------------------------------------
    def submit(self, request: OffloadRequest, link: Link) -> "Process":
        """Route and serve one request (same contract as CloudPlatform)."""
        idx = self._route_index(request)
        proc = self.nodes[idx].submit(request, link)

        def collect(env):
            try:
                result = yield proc
            except BaseException as exc:
                if proc.is_alive:
                    # We were interrupted while the node still works on
                    # the request; orphan it quietly — its eventual
                    # failure must not crash the run.
                    proc.defused = True
                elif proc.exception is exc:
                    # The node actually failed the request: feed the
                    # circuit breaker before surfacing the failure.
                    self.health[idx].record_failure(env.now)
                    metrics = metrics_of(env)
                    if metrics is not None:
                        metrics.counter("cluster.request_failures").inc()
                raise
            self.health[idx].record_success()
            self._served_by_node[idx] += 1
            self.results.append(result)
            metrics = metrics_of(env)
            if metrics is not None:
                metrics.counter("cluster.requests_served").inc()
            return result

        return self.env.process(collect(self.env))

    # -- health -----------------------------------------------------------------
    def start_health_monitor(self, check_interval_s: float = 1.0) -> "Process":
        """Background probe: hold the breaker open while a node is
        offline, so routing avoids it without sacrificing a request."""
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")

        def monitor(env):
            while True:
                yield env.timeout(check_interval_s)
                for idx, node in enumerate(self.nodes):
                    if node.offline:
                        health = self.health[idx]
                        health.open_until = max(
                            health.open_until, env.now + check_interval_s
                        )

        return self.env.process(monitor(self.env))

    def completed(self) -> List[RequestResult]:
        """Served results across every node."""
        return [r for r in self.results if not r.blocked]

    def runtime_count(self) -> int:
        """Total runtimes across the fleet."""
        return sum(len(node.db) for node in self.nodes)

    def total_memory_mb(self) -> float:
        """Runtime memory reserved across the fleet."""
        return sum(node.db.total_memory_mb() for node in self.nodes)

    def start_idle_reaper(self, idle_timeout_s: float = 120.0,
                          check_interval_s: float = 10.0) -> list:
        """Start per-node idle reapers; returns their tickers."""
        return [
            node.start_idle_reaper(idle_timeout_s, check_interval_s)
            for node in self.nodes
        ]

    # -- predictive scheduling ----------------------------------------------------
    def enable_predictive(self, config=None) -> list:
        """Attach one warm-pool predictor per node (pool is per-node).

        Failover awareness comes for free: a dark node's predictor
        skips its ticks, while the rehashed traffic raises arrival-rate
        EWMAs on the surviving nodes — their pools grow to absorb it.
        """
        return [node.enable_predictive(config) for node in self.nodes]

    def start_predictors(self) -> list:
        """Start every node's predictor tick loop; returns their tickers."""
        return [node.start_predictor() for node in self.nodes]

    # -- computation reuse --------------------------------------------------------
    def enable_compute_cache(self, config=None) -> ClusterCacheDirectory:
        """Attach per-node result caches wired into one cluster tier.

        Rendezvous hashing assigns each digest an owning node; lookups
        from any node reach the owner through the directory (with a
        small local mirror of hot remote entries), so a result computed
        once serves the whole fleet without a broadcast.
        """
        caches = [node.enable_compute_cache(config) for node in self.nodes]
        self.cache_directory = ClusterCacheDirectory(caches)
        return self.cache_directory

    def node_loads(self) -> List[int]:
        """Requests served per node *through this cluster* (distribution
        check).  Counted by the collect wrapper, so it matches
        ``completed()`` exactly even when requests fail or nodes also
        serve direct traffic."""
        return list(self._served_by_node)

    # -- multi-tenant enforcement -------------------------------------------------
    def sync_blocklists(self, now: Optional[float] = None) -> List[str]:
        """Propagate access-controller blocks cluster-wide.

        A hostile app blocked on one node would otherwise keep burning
        analysis time everywhere else (failover routing happily rehashes
        it).  Every node with an access controller adopts the union of
        current blocks — the longest remaining window wins.  Returns the
        sorted app ids blocked anywhere.
        """
        if now is None:
            now = self.env.now
        controllers = [node.access for node in self.nodes if node.access is not None]
        blocked: dict = {}
        for controller in controllers:
            for app_id in controller.blocked_apps(now):
                until = controller.table_for(app_id).blocked_until
                prev = blocked.get(app_id)
                if prev is None or (until is not None and until > prev):
                    blocked[app_id] = until
        for controller in controllers:
            for app_id, until in blocked.items():
                if not controller.is_blocked(app_id, now):
                    controller.import_block(app_id, now=now, blocked_until=until)
        return sorted(blocked)

    def start_blocklist_sync(self, interval_s: float = 5.0) -> "Process":
        """Spawn a background process that syncs blocklists forever."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")

        def sync(env):
            while True:
                yield env.timeout(interval_s)
                self.sync_blocklists(env.now)

        return self.env.process(sync(self.env))
