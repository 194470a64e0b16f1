"""Per-tenant isolation accounting and enforcement policy.

Containers are a lighter isolation boundary than VMs, so Rattrap's
shared layers — FlowLink airtime, the content-addressed tmpfs staging
area, warm-pool slots, host CPU — are exactly where one hostile app can
hurt everyone else.  This module makes a noisy neighbour *attributable*
and gives the shared layers a single policy object to enforce against:

- :class:`TenancyManager` attaches to an :class:`~repro.sim.core.
  Environment` (``env.tenancy``) the same way ``env.obs`` / ``env.
  faults`` do.  Instrumented layers roll per-tenant usage into it:
  airtime seconds on shared links, tmpfs resident bytes (with dedup
  credit and eviction debit), CPU seconds, warm-pool slots, violations
  and blocked requests.
- When a :class:`~repro.obs.MetricsRegistry` is attached the rollups
  are mirrored as ``tenant.<resource>.<app>`` counters/gauges, so the
  offender is identifiable from a single ``MetricsRegistry.snapshot()``
  (:func:`attribution_from_snapshot` / :func:`top_offenders`).
- :class:`TenancyConfig` carries the enforcement knobs consumed by the
  shared layers: per-tenant weighted/capped airtime fair share
  (``FluidChannel``), residency quotas with burn-on-over-quota
  (``OffloadingIOLayer``).  Warm-pool floors live on
  :class:`~repro.platform.scheduler.PredictiveConfig`; access-controller
  escalation lives on :class:`~repro.platform.access.
  RequestAccessController`.

Everything follows the ``repro.obs`` zero-cost pattern: with no manager
attached (``env.tenancy is None``, the default) the hooks are a single
attribute check and default experiment reports stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from ..obs import metrics_of

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = [
    "TenancyConfig",
    "TenancyManager",
    "tenancy_of",
    "attribution_from_snapshot",
    "top_offenders",
    "render_attribution",
]

#: Cumulative per-tenant resources (mirrored as counters).
COUNTER_RESOURCES = (
    "airtime_s",
    "cpu_s",
    "dedup_credit_bytes",
    "evicted_bytes",
    "violations",
    "blocked_requests",
    "cache_hits",
    "cache_evicted_bytes",
)

#: Instantaneous per-tenant resources (mirrored as gauges; attribution
#: reads the high-water mark).
GAUGE_RESOURCES = ("resident_bytes", "pool_slots", "cache_bytes")

ALL_RESOURCES = COUNTER_RESOURCES + GAUGE_RESOURCES


@dataclass(frozen=True)
class TenancyConfig:
    """Enforcement policy for the shared layers.

    ``enforce=False`` keeps the accounting (attribution still works)
    but turns every countermeasure off — the chaos scorecard's OFF arm.
    """

    #: apply countermeasures (False = account only)
    enforce: bool = True
    #: hard cap on any one tenant's airtime fraction of a shared medium
    #: (None = weighted fair share only)
    airtime_cap: Optional[float] = None
    #: relative airtime weights per tenant (default weight 1.0)
    airtime_weights: Mapping[str, float] = field(default_factory=dict)
    #: per-tenant cap on tmpfs staging residency; staging past it burns
    #: the tenant's own oldest entries (None = unlimited)
    residency_quota_bytes: Optional[int] = None
    #: per-tenant cap on compute-cache residency; storing past it burns
    #: the tenant's own oldest cached results (None = unlimited)
    cache_quota_bytes: Optional[int] = None

    def __post_init__(self):
        if self.airtime_cap is not None and not (0.0 < self.airtime_cap <= 1.0):
            raise ValueError("airtime_cap must be in (0, 1]")
        for tenant, weight in self.airtime_weights.items():
            if weight <= 0:
                raise ValueError(f"airtime weight for {tenant!r} must be positive")
        if self.residency_quota_bytes is not None and self.residency_quota_bytes <= 0:
            raise ValueError("residency_quota_bytes must be positive")
        if self.cache_quota_bytes is not None and self.cache_quota_bytes <= 0:
            raise ValueError("cache_quota_bytes must be positive")

    def weight_of(self, tenant: str) -> float:
        """Fair-share weight for one tenant (1.0 unless configured)."""
        return float(self.airtime_weights.get(tenant, 1.0))


class TenancyManager:
    """Attachable per-tenant ledger + policy handle (``env.tenancy``)."""

    def __init__(self, env: "Environment", config: Optional[TenancyConfig] = None):
        self.env = env
        self.cfg = config or TenancyConfig()
        #: resource -> tenant -> value (counters accumulate; gauges hold
        #: the current value, with ``_peaks`` the high-water mark)
        self._ledger: Dict[str, Dict[str, float]] = {r: {} for r in ALL_RESOURCES}
        self._peaks: Dict[str, Dict[str, float]] = {r: {} for r in GAUGE_RESOURCES}
        env.tenancy = self

    # -- ledger writes (called from instrumented layers) ---------------------
    def _add(self, resource: str, tenant: str, amount: float) -> None:
        bucket = self._ledger[resource]
        bucket[tenant] = bucket.get(tenant, 0.0) + amount
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.counter(f"tenant.{resource}.{tenant}").inc(amount)

    def _set(self, resource: str, tenant: str, value: float) -> None:
        value = max(0.0, value)
        self._ledger[resource][tenant] = value
        peaks = self._peaks[resource]
        if value > peaks.get(tenant, 0.0):
            peaks[tenant] = value
        metrics = metrics_of(self.env)
        if metrics is not None:
            metrics.gauge(f"tenant.{resource}.{tenant}").set(value)

    def account_airtime(self, tenant: str, seconds: float) -> None:
        """Shared-medium airtime consumed by this tenant's flows."""
        self._add("airtime_s", tenant, seconds)

    def account_cpu(self, tenant: str, seconds: float) -> None:
        """Host CPU work demanded by this tenant's requests."""
        self._add("cpu_s", tenant, seconds)

    def account_dedup(self, tenant: str, nbytes: float) -> None:
        """Staging bytes this tenant got for free via content dedup."""
        self._add("dedup_credit_bytes", tenant, nbytes)

    def account_eviction(self, tenant: str, nbytes: float) -> None:
        """Bytes burned out of this tenant's residency by quota enforcement."""
        self._add("evicted_bytes", tenant, nbytes)

    def account_violations(self, tenant: str, count: int = 1) -> None:
        """Permission violations recorded against this tenant."""
        self._add("violations", tenant, float(count))

    def account_blocked(self, tenant: str) -> None:
        """A request refused at admission because the tenant is blocked."""
        self._add("blocked_requests", tenant, 1.0)

    def account_cache_hit(self, tenant: str) -> None:
        """A compute-cache hit served to this tenant (skipped execute)."""
        self._add("cache_hits", tenant, 1.0)

    def account_cache_eviction(self, tenant: str, nbytes: float) -> None:
        """Cached result bytes evicted out of this tenant's residency."""
        self._add("cache_evicted_bytes", tenant, nbytes)

    def residency_set(self, tenant: str, resident_bytes: float) -> None:
        """Current tmpfs residency attributed to this tenant."""
        self._set("resident_bytes", tenant, resident_bytes)

    def cache_set(self, tenant: str, cache_bytes: float) -> None:
        """Current compute-cache residency attributed to this tenant."""
        self._set("cache_bytes", tenant, cache_bytes)

    def pool_set(self, tenant: str, slots: float) -> None:
        """Warm-pool slots (spares + in-flight pre-boots) held."""
        self._set("pool_slots", tenant, slots)

    # -- reads ---------------------------------------------------------------
    def usage(self, resource: str, tenant: str) -> float:
        """Current ledger value for one tenant/resource."""
        return self._ledger[resource].get(tenant, 0.0)

    def peak(self, resource: str, tenant: str) -> float:
        """High-water mark for a gauge resource."""
        return self._peaks[resource].get(tenant, 0.0)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Ledger in ``MetricsRegistry.snapshot()`` shape.

        Works without a metrics registry: the same names and structure,
        so :func:`attribution_from_snapshot` accepts either source.
        """
        counters = {
            f"tenant.{resource}.{tenant}": value
            for resource in COUNTER_RESOURCES
            for tenant, value in sorted(self._ledger[resource].items())
        }
        gauges = {
            f"tenant.{resource}.{tenant}": {
                "value": value,
                "max": self._peaks[resource].get(tenant, value),
            }
            for resource in GAUGE_RESOURCES
            for tenant, value in sorted(self._ledger[resource].items())
        }
        return {"counters": counters, "gauges": gauges, "histograms": {}}


def tenancy_of(env: Optional["Environment"]) -> Optional[TenancyManager]:
    """The attached manager, or None (zero-cost check)."""
    return getattr(env, "tenancy", None) if env is not None else None


# -- attribution from one metrics snapshot ----------------------------------
def attribution_from_snapshot(
    snapshot: Mapping[str, Any]
) -> Dict[str, Dict[str, float]]:
    """``resource -> tenant -> value`` parsed from one snapshot.

    Accepts either a ``MetricsRegistry.snapshot()`` or a
    :meth:`TenancyManager.snapshot`.  Gauge resources report their
    high-water mark (a squatter that just got evicted is still visible).
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, value in (snapshot.get("counters") or {}).items():
        if name.startswith("tenant."):
            _, resource, tenant = name.split(".", 2)
            out.setdefault(resource, {})[tenant] = float(value)
    for name, gauge in (snapshot.get("gauges") or {}).items():
        if name.startswith("tenant."):
            _, resource, tenant = name.split(".", 2)
            out.setdefault(resource, {})[tenant] = float(gauge["max"])
    return out


def top_offenders(snapshot: Mapping[str, Any]) -> Dict[str, Tuple[str, float]]:
    """Per resource, the tenant holding the most of it (ties: first name)."""
    attribution = attribution_from_snapshot(snapshot)
    return {
        resource: max(sorted(tenants.items()), key=lambda kv: kv[1])
        for resource, tenants in attribution.items()
        if tenants
    }


def render_attribution(snapshot: Mapping[str, Any], title: str = "Per-tenant attribution") -> str:
    """Human-readable attribution table (resources × tenants)."""
    from ..analysis import render_table

    attribution = attribution_from_snapshot(snapshot)
    tenants = sorted({t for usage in attribution.values() for t in usage})
    headers = ["resource"] + tenants
    rows = []
    for resource in ALL_RESOURCES:
        usage = attribution.get(resource)
        if not usage:
            continue
        rows.append([resource] + [usage.get(t, 0.0) for t in tenants])
    return render_table(headers, rows, title=title)
