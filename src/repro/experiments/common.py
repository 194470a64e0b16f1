"""Shared scaffolding for the paper-reproduction experiments.

Every experiment builds platforms the same way, replays the same
seeded inflow, and reports through :mod:`repro.analysis`.  The three
platform names mirror §VI-A: ``vm`` (Android-x86/VirtualBox cloud),
``rattrap-wo`` (containers only) and ``rattrap`` (all optimizations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis import phase_means
from ..network import make_link
from ..offload import MobileDevice, PowerModel, RequestResult, run_inflow_experiment
from ..offload.request import OffloadRequest
from ..platform import CloudPlatform, RattrapPlatform, VMCloudPlatform
from ..sim import Environment
from ..workloads import ALL_WORKLOADS, WorkloadProfile, generate_inflow, get_profile
from .engine import Cell

__all__ = [
    "PLATFORM_NAMES",
    "build_platform",
    "ExperimentRun",
    "run_workload_experiment",
    "open_loop_feeder",
    "DEVICES",
    "REQUESTS_PER_DEVICE",
    "workload_platform_cells",
    "phase_summary_cell",
    "migrated_data_cell",
    "energy_cell",
]

PLATFORM_NAMES: Tuple[str, ...] = ("vm", "rattrap-wo", "rattrap")

#: The evaluation's client population (§VI-C).
DEVICES = 5
REQUESTS_PER_DEVICE = 20


def build_platform(env: Environment, name: str) -> CloudPlatform:
    """Instantiate one of the three compared platforms."""
    if name == "vm":
        return VMCloudPlatform(env)
    if name == "rattrap-wo":
        return RattrapPlatform(env, optimized=False)
    if name == "rattrap":
        return RattrapPlatform(env, optimized=True)
    raise ValueError(f"unknown platform {name!r}; choose from {PLATFORM_NAMES}")


@dataclass
class ExperimentRun:
    """Everything one platform run produced."""

    platform_name: str
    profile: WorkloadProfile
    scenario: str
    env: Environment
    platform: CloudPlatform
    results: List[RequestResult]
    devices: Dict[str, MobileDevice] = field(default_factory=dict)

    @property
    def served(self) -> List[RequestResult]:
        return [r for r in self.results if not r.blocked]


def run_workload_experiment(
    platform_name: str,
    profile: WorkloadProfile,
    scenario: str = "lan-wifi",
    devices: int = DEVICES,
    requests_per_device: int = REQUESTS_PER_DEVICE,
    seed: int = 1,
    mode: str = "closed",
    with_energy: bool = False,
    with_tracing: bool = False,
) -> ExperimentRun:
    """Run the standard 5-device closed-loop experiment on one platform.

    The inflow is identical across platforms for a given seed — the
    paper's "same inflow of requests" discipline.  ``with_tracing``
    guarantees a span tracer on the environment (reusing an
    auto-attached Observability when ``--trace``/``--metrics`` is on),
    for experiments that derive their tables from spans.
    """
    env = Environment()
    if with_tracing:
        from ..obs import Observability, Tracer

        if env.obs is None:
            Observability(env, tracing=True, metrics=False)
        elif env.obs.tracer is None:
            # Auto-attached with metrics only: graft a tracer onto the
            # same instance so the runner's drain order is unchanged.
            env.obs.tracer = Tracer(env)
    platform = build_platform(env, platform_name)
    plans = generate_inflow(
        profile, devices=devices, requests_per_device=requests_per_device, seed=seed
    )
    link = make_link(scenario)
    device_map: Dict[str, MobileDevice] = {}
    if with_energy:
        power = PowerModel()
        device_map = {
            f"device-{i}": MobileDevice(f"device-{i}", link, power_model=power)
            for i in range(devices)
        }
    results = run_inflow_experiment(
        env, platform, plans, link, devices=device_map or None, mode=mode
    )
    return ExperimentRun(
        platform_name=platform_name,
        profile=profile,
        scenario=scenario,
        env=env,
        platform=platform,
        results=results,
        devices=device_map,
    )


def open_loop_feeder(
    env: Environment,
    target: Any,
    requests: Iterable[OffloadRequest],
    links: Sequence[Any],
) -> Generator:
    """Process generator: submit each request at its ``submitted_at``.

    Requests go to ``target.submit`` (a platform or a cluster) in
    order, round-robin over ``links``; the generator returns once every
    submission has completed.  Unlike
    :func:`~repro.offload.client.replay_inflow`, which starts a process
    per request, one process sleeps through the whole inflow.
    """
    procs = []
    for i, request in enumerate(requests):
        if request.submitted_at > env.now:
            yield env.timeout(request.submitted_at - env.now)
        procs.append(target.submit(request, links[i % len(links)]))
    yield env.all_of(procs)


# --------------------------------------------------------------- cell scaffolding
#
# Cells reference module-level functions (picklable by qualified name)
# and pass profiles by *name*, so a cell can cross a process boundary
# and rebuild everything it needs from its kwargs alone.

def phase_summary_cell(
    platform: str, profile: str, scenario: str = "lan-wifi", seed: int = 1
) -> Dict[str, float]:
    """One Fig. 9-style cell: mean seconds per offloading phase."""
    exp = run_workload_experiment(
        platform, get_profile(profile), scenario=scenario, seed=seed
    )
    summary = phase_means(exp.results)
    return {
        "execution": summary.execution,
        "preparation": summary.preparation,
        "transfer": summary.transfer,
        "connection": summary.connection,
        "total": summary.total,
    }


def migrated_data_cell(
    platform: str, profile: str, scenario: str = "lan-wifi", seed: int = 1
) -> Dict[str, float]:
    """One Table II-style cell: total migrated KB up/down."""
    kb = 1024
    exp = run_workload_experiment(
        platform, get_profile(profile), scenario=scenario, seed=seed
    )
    return {
        "upload_kb": sum(r.bytes_up for r in exp.served) / kb,
        "download_kb": sum(r.bytes_down for r in exp.served) / kb,
    }


def energy_cell(
    platform: str, profile: str, scenario: str = "lan-wifi", seed: int = 1
) -> float:
    """One Fig. 10-style cell: mean energy normalized to local execution."""
    power = PowerModel()
    exp = run_workload_experiment(
        platform, get_profile(profile), scenario=scenario, seed=seed
    )
    normalized = [power.normalized_offload_energy(r, scenario) for r in exp.served]
    return sum(normalized) / len(normalized)


def workload_platform_cells(
    experiment: str,
    fn: Callable[..., Any],
    profiles: Optional[Iterable[WorkloadProfile]] = None,
    platforms: Sequence[str] = PLATFORM_NAMES,
    scenarios: Sequence[str] = ("lan-wifi",),
    seed: int = 1,
) -> List[Cell]:
    """The standard profile × scenario × platform cell cross product.

    Iteration order (profile outermost, platform innermost) fixes the
    cell order every experiment's ``merge`` reassembles from.
    """
    cells: List[Cell] = []
    for profile in profiles if profiles is not None else ALL_WORKLOADS:
        for scenario in scenarios:
            for platform in platforms:
                cells.append(
                    Cell(
                        experiment=experiment,
                        key=(profile.name, scenario, platform),
                        fn=fn,
                        kwargs={
                            "platform": platform,
                            "profile": profile.name,
                            "scenario": scenario,
                            "seed": seed,
                        },
                    )
                )
    return cells
