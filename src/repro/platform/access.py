"""Request-based Access Controller (§IV-E).

Containers are a lighter isolation mechanism than VMs, and Rattrap's
shared architecture (Shared Resource Layer, App Warehouse) widens the
attack surface, so Rattrap adds a security guard:

- it "automatically analyzes the offloading requests with information
  received and generates the permission table for them";
- "offloading requests from the same application share one permission
  table ... the analysis happens only once for each mobile app";
- every workflow coming out of a Cloud Android Container is filtered
  and permission violations are recorded;
- "when the number of violations reaches the threshold, offloading
  requests from this app will be blocked".

Beyond the paper, the controller supports graduated enforcement for
hostile-tenant scenarios (docs/ROBUSTNESS.md "Multi-tenant isolation"):
time-windowed violation decay, finite block windows with geometric
escalation, a post-block admission throttle, and per-app thresholds.
All knobs default to the paper's semantics: permanent block at the
global threshold, no decay, no throttle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Generator, List, Mapping, Optional

from ..obs import metrics_of

if TYPE_CHECKING:  # pragma: no cover
    from ..offload.request import OffloadRequest
    from ..runtime.base import RuntimeEnvironment

__all__ = ["PermissionTable", "AccessDecision", "RequestAccessController"]

#: Permissions an offloaded workload may legitimately need.
KNOWN_PERMISSIONS = frozenset(
    {
        "net.outbound",
        "fs.offload_read",
        "fs.offload_write",
        "cpu.execute",
        "warehouse.fetch",
        "binder.call",
    }
)

#: Permissions granted to a request that declares none.
DEFAULT_PERMISSIONS = frozenset(
    {"cpu.execute", "fs.offload_read", "fs.offload_write", "net.outbound"}
)

#: Operations that are never granted to offloaded code.
FORBIDDEN_OPERATIONS = frozenset(
    {
        "fs.shared_layer_write",  # tamper with the shared base
        "warehouse.poison",  # replace another app's cached code
        "devns.escape",  # cross-namespace device access
        "kernel.module_load",
    }
)


@dataclass
class PermissionTable:
    """Per-app grants, produced by the one-time request analysis."""

    app_id: str
    granted: FrozenSet[str]
    created_at: float = 0.0
    violations: int = 0
    #: timestamps of recent violations (only kept under decay windows)
    violation_times: List[float] = field(default_factory=list)
    #: how many times this app has been blocked (drives escalation)
    offenses: int = 0
    #: sim time the current block lapses; ``inf`` = permanent, None = not blocked
    blocked_until: Optional[float] = None

    def allows(self, operation: str) -> bool:
        """Was this operation granted to the app?"""
        return operation in self.granted


@dataclass(frozen=True)
class AccessDecision:
    allowed: bool
    reason: str = ""


class RequestAccessController:
    """Admission + workflow filtering for a Rattrap deployment.

    Enforcement states per app: **ok** → (violations reach threshold)
    **blocked** for ``block_s * escalation^(offenses-1)`` seconds →
    **throttled** (each admission pays ``throttle_penalty_s * offenses``
    extra analysis delay) until an explicit :meth:`unblock`.  With the
    default ``block_s=None`` a block is permanent — the paper's
    one-way semantics.
    """

    def __init__(
        self,
        violation_threshold: int = 3,
        analysis_time_s: float = 0.05,
        decay_window_s: Optional[float] = None,
        block_s: Optional[float] = None,
        block_escalation: float = 2.0,
        throttle_penalty_s: float = 0.0,
        filter_cost_s: float = 0.0,
        per_app_thresholds: Optional[Mapping[str, int]] = None,
    ):
        if violation_threshold < 1:
            raise ValueError("violation_threshold must be >= 1")
        if analysis_time_s < 0:
            raise ValueError("analysis_time_s must be >= 0")
        if decay_window_s is not None and decay_window_s <= 0:
            raise ValueError("decay_window_s must be positive")
        if block_s is not None and block_s <= 0:
            raise ValueError("block_s must be positive")
        if block_escalation < 1.0:
            raise ValueError("block_escalation must be >= 1")
        if throttle_penalty_s < 0:
            raise ValueError("throttle_penalty_s must be >= 0")
        if filter_cost_s < 0:
            raise ValueError("filter_cost_s must be >= 0")
        self.violation_threshold = violation_threshold
        self.analysis_time_s = analysis_time_s
        #: violations older than this no longer count toward the
        #: threshold (None = the paper's lifetime counter)
        self.decay_window_s = decay_window_s
        #: base block duration (None = permanent block, the paper's rule)
        self.block_s = block_s
        #: each repeat offense multiplies the block window by this
        self.block_escalation = block_escalation
        #: post-block probation: extra admission delay per offense
        self.throttle_penalty_s = throttle_penalty_s
        #: CPU seconds the filter engine burns per inspected operation
        self.filter_cost_s = filter_cost_s
        self._thresholds: Dict[str, int] = {}
        for app_id, threshold in dict(per_app_thresholds or {}).items():
            self.set_threshold(app_id, threshold)
        self._tables: Dict[str, PermissionTable] = {}
        self.analyses = 0

    # -- per-app thresholds ------------------------------------------------------
    def set_threshold(self, app_id: str, threshold: int) -> None:
        """Override the violation threshold for one app."""
        if threshold < 1:
            raise ValueError("violation threshold must be >= 1")
        self._thresholds[app_id] = int(threshold)

    def threshold_for(self, app_id: str) -> int:
        """The violation threshold in force for this app."""
        return self._thresholds.get(app_id, self.violation_threshold)

    # -- admission ---------------------------------------------------------------
    def is_blocked(self, app_id: str, now: Optional[float] = None) -> bool:
        """Is this app inside a block window?

        Passing ``now`` lets finite block windows lapse: an expired
        block transitions the app to the throttled state (offense count
        survives and escalates the next block).  Without a clock a
        recorded block is reported as-is.
        """
        table = self._tables.get(app_id)
        if table is None or table.blocked_until is None:
            return False
        if now is None or table.blocked_until == math.inf:
            return True
        if now < table.blocked_until:
            return True
        table.blocked_until = None  # window served; app is on probation
        return False

    def state_of(self, app_id: str, now: Optional[float] = None) -> str:
        """Enforcement state: ``"ok"``, ``"throttled"`` or ``"blocked"``."""
        if self.is_blocked(app_id, now):
            return "blocked"
        table = self._tables.get(app_id)
        if table is not None and table.offenses > 0 and self.throttle_penalty_s > 0:
            return "throttled"
        return "ok"

    def admission_penalty_s(self, app_id: str, now: Optional[float] = None) -> float:
        """Probation throttle: extra admission delay for past offenders."""
        if self.throttle_penalty_s <= 0.0:
            return 0.0
        table = self._tables.get(app_id)
        if table is None or table.offenses == 0 or self.is_blocked(app_id, now):
            return 0.0
        return self.throttle_penalty_s * table.offenses

    def table_for(self, app_id: str) -> Optional[PermissionTable]:
        """The app's shared permission table, or None before analysis."""
        return self._tables.get(app_id)

    def analysis_needed(self, app_id: str) -> bool:
        """True only for the first request of an app (shared table)."""
        return app_id not in self._tables

    def admission_delay_s(self, app_id: str, now: float) -> float:
        """Preparation time admission adds: the one-time request
        analysis of a first-seen app plus any probation throttle."""
        delay = self.analysis_time_s if self.analysis_needed(app_id) else 0.0
        return delay + self.admission_penalty_s(app_id, now)

    def admit(
        self,
        app_id: str,
        requested_permissions: Optional[FrozenSet[str]] = None,
        now: float = 0.0,
    ) -> AccessDecision:
        """Admission check; generates the permission table on first sight.

        ``requested_permissions=None`` requests :data:`DEFAULT_PERMISSIONS`.
        """
        if self.is_blocked(app_id, now):
            return AccessDecision(False, f"{app_id} exceeded violation threshold")
        if app_id not in self._tables:
            self.analyses += 1
            if requested_permissions is None:
                requested_permissions = DEFAULT_PERMISSIONS
            granted = frozenset(requested_permissions & KNOWN_PERMISSIONS)
            self._tables[app_id] = PermissionTable(
                app_id=app_id, granted=granted, created_at=now
            )
        return AccessDecision(True)

    # -- workflow filtering ---------------------------------------------------------
    def filter_operation(
        self, app_id: str, operation: str, now: Optional[float] = None
    ) -> AccessDecision:
        """Filter one workflow coming out of a container.

        Violations (forbidden or ungranted operations) are recorded on
        the app's shared table; crossing the threshold blocks the app.
        """
        table = self._tables.get(app_id)
        if table is None:
            raise KeyError(f"no permission table for {app_id!r}; admit() first")
        if self.is_blocked(app_id, now):
            return AccessDecision(False, "app is blocked")
        if operation in FORBIDDEN_OPERATIONS or not table.allows(operation):
            self._record_violation(table, 0.0 if now is None else now)
            if table.violations >= self.threshold_for(app_id):
                count = table.violations
                self._block(table, now)
                return AccessDecision(
                    False, f"{app_id} blocked after {count} violations"
                )
            return AccessDecision(False, f"operation {operation!r} denied")
        return AccessDecision(True)

    def filter_workflow(
        self, request: "OffloadRequest", runtime: "RuntimeEnvironment"
    ) -> Generator:
        """Run a request's declared workflow through the filter.

        Every inspected operation costs ``filter_cost_s`` of CPU on the
        runtime's host — the analysis engine is itself a shared
        resource, which is what a permission-violation storm exploits
        when blocking is disabled.  Violations land on the app's shared
        table (and, when attached, the tenancy ledger); once the app
        crosses its threshold the rest of the workflow is skipped.
        Returns True when the app was blocked mid-workflow.
        """
        env = runtime.env
        violations = 0
        inspected = 0
        blocked = False
        for operation in request.operations:
            inspected += 1
            if self.filter_cost_s:
                yield runtime.server.cpu.execute(
                    self.filter_cost_s,
                    speed_factor=runtime.cpu_speed_factor,
                    tag="access.filter",
                )
            decision = self.filter_operation(request.app_id, operation, now=env.now)
            if decision.allowed:
                continue
            violations += 1
            if self.is_blocked(request.app_id, now=env.now):
                blocked = True
                break
        tenancy = env.tenancy
        if violations:
            metrics = metrics_of(env)
            if metrics is not None:
                metrics.counter("access.violations").inc(violations)
            if tenancy is not None:
                tenancy.account_violations(request.app_id, violations)
        if tenancy is not None and self.filter_cost_s and inspected:
            tenancy.account_cpu(request.app_id, self.filter_cost_s * inspected)
        return blocked

    def _record_violation(self, table: PermissionTable, now: float) -> None:
        table.violations += 1
        if self.decay_window_s is not None:
            times = table.violation_times
            times.append(now)
            cutoff = now - self.decay_window_s
            while times and times[0] < cutoff:
                times.pop(0)
            table.violations = len(times)

    def _block(self, table: PermissionTable, now: Optional[float]) -> None:
        table.offenses += 1
        if self.block_s is None:
            table.blocked_until = math.inf
            return
        window = self.block_s * self.block_escalation ** (table.offenses - 1)
        table.blocked_until = (0.0 if now is None else now) + window
        # A served window wipes the slate (the probation throttle is the
        # lasting consequence); lifetime counters would re-block instantly.
        table.violations = 0
        table.violation_times.clear()

    def import_block(
        self,
        app_id: str,
        now: float = 0.0,
        blocked_until: Optional[float] = None,
    ) -> None:
        """Adopt a block decided elsewhere (cluster blocklist sync).

        Creates an empty-grant table if the app was never analyzed here.
        The block window never shrinks an existing one.
        """
        table = self._tables.get(app_id)
        if table is None:
            table = self._tables[app_id] = PermissionTable(
                app_id=app_id, granted=frozenset(), created_at=now
            )
        if blocked_until is None:
            blocked_until = math.inf if self.block_s is None else now + self.block_s
        if table.blocked_until is None or table.blocked_until < blocked_until:
            table.blocked_until = blocked_until
        table.offenses = max(table.offenses, 1)

    def unblock(self, app_id: str) -> None:
        """Administrative unblock (resets violations, offenses, throttle)."""
        table = self._tables.get(app_id)
        if table is not None:
            table.blocked_until = None
            table.offenses = 0
            table.violations = 0
            table.violation_times.clear()

    def blocked_apps(self, now: Optional[float] = None) -> list:
        """Sorted app ids currently blocked."""
        return sorted(
            app_id for app_id in self._tables if self.is_blocked(app_id, now)
        )
