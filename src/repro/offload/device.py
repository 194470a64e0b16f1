"""Mobile-device model.

The clients in the paper are "5 Android devices ... equipped with both
WiFi and cellular network (3G/4G) connections" using Java reflection to
offload computation.  Here a device bundles its identity, its network
link and its power model, and can *execute locally* as the comparison
baseline for speedups and normalized energy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from ..network.link import Link
from ..obs import trace_span
from .power import EnergyBreakdown, PowerModel

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..workloads.base import WorkloadProfile
    from .request import RequestResult

__all__ = ["MobileDevice"]


class MobileDevice:
    """One client handset."""

    def __init__(
        self,
        device_id: str,
        link: Link,
        power_model: Optional[PowerModel] = None,
        battery_joules: float = 12.0 * 3600,  # ~3.3 Ah at 3.7 V x 0.9
    ):
        if battery_joules <= 0:
            raise ValueError("battery capacity must be positive")
        self.device_id = device_id
        self.link = link
        self.power = power_model or PowerModel()
        self.battery_capacity_j = battery_joules
        self.energy_used_j = 0.0
        self.local_executions = 0
        self.offloaded_requests = 0

    @property
    def scenario(self) -> str:
        return self.link.name

    @property
    def battery_remaining_fraction(self) -> float:
        return max(0.0, 1.0 - self.energy_used_j / self.battery_capacity_j)

    # -- local execution ---------------------------------------------------------
    def execute_locally(
        self,
        env: "Environment",
        profile: "WorkloadProfile",
        trace_id: str = "",
        work_scale: float = 1.0,
    ) -> Generator:
        """Process generator: run the workload on the handset itself.

        ``work_scale`` is the request's task-size multiplier: it scales
        both the CPU time and the CPU energy.  Emits a ``local_exec``
        phase span so an on-device run is as traceable as an offloaded
        one — a partitioned request's response tiles as decide +
        local_exec.
        """
        with trace_span(env, "local_exec", who=self.device_id, trace=trace_id):
            yield env.timeout(profile.local_time_s * work_scale)
        energy = EnergyBreakdown(
            cpu_j=self.power.local_energy(profile).cpu_j * work_scale
        )
        self.energy_used_j += energy.total_j
        self.local_executions += 1
        return energy

    # -- energy accounting for offloaded results ------------------------------------
    def account_offload(self, result: "RequestResult") -> EnergyBreakdown:
        """Charge the battery for one completed offloaded request."""
        energy = self.power.offload_energy(result, self.scenario)
        self.energy_used_j += energy.total_j
        self.offloaded_requests += 1
        return energy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MobileDevice {self.device_id} on {self.scenario}>"
