"""Dynamic partitioning benchmark (extension) — offload only when it pays.

The paper's clients always offload; its own Figs. 1/11 show offloading
only beats local execution when ``upload + execute`` is shorter than
running the task on the handset — which depends on the network.  This
experiment puts the partition layer (:mod:`repro.offload.partition`) in
the loop and measures what per-request offload-vs-local decisions buy
across network conditions.

**Grid**: every scenario (lan-wifi / wan-wifi / 3g / 4g) times three
arms, all driven through the *same* partitioned replay path so the
comparison isolates the decision policy:

- ``offload``  — :class:`~repro.offload.partition.StaticDecider`
  always offloading (the paper's client);
- ``local``    — the same, always executing on the handset;
- ``adaptive`` — :class:`~repro.offload.partition.OffloadDecider`
  scoring each request from battery level, observed link EWMAs, cloud
  queueing/boot estimates and cache-hit probability, under a
  :class:`~repro.platform.qos.QoSBudgetBook`.

**Population**: two devices per app for chess, virus-scan and linpack
(closed loop), so each cell mixes a latency-sensitive interactive app,
a bulk transfer-heavy app and a compute-bound app — the mix where no
static policy wins everywhere.

Reported per cell: the fraction executed locally, mean/p99 response,
device-side energy, and span coverage (``decide`` + serve phases or
``decide`` + ``local_exec`` must tile summed end-to-end latency
exactly).  The headline is the energy x latency Pareto check: on a
bad network the adaptive arm must dominate *both* static arms — keep
the interactive and transfer-heavy apps local (beating always-offload)
while still offloading the compute-bound one (beating always-local).

Opt-in (``rattrap-experiments partition`` / ``make partition``): the
default suite attaches no decider and stays byte-identical.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from ..analysis import render_table
from ..network.scenarios import make_link
from ..obs import PHASE_KINDS, Observability
from ..offload import (
    MobileDevice,
    OffloadDecider,
    OffloadRequest,
    PartitionConfig,
    StaticDecider,
    replay,
)
from ..platform import RattrapPlatform
from ..platform.qos import QoSBudgetBook
from ..sim import Environment
from ..workloads import CHESS_GAME, LINPACK, VIRUS_SCAN
from ..workloads.generator import ArrivalPlan

__all__ = ["run", "report", "cells", "merge", "ARMS", "PARTITION_SCENARIOS"]

ARMS = ("offload", "local", "adaptive")
PARTITION_SCENARIOS = ("lan-wifi", "wan-wifi", "3g", "4g")

#: the app mix: interactive / transfer-heavy / compute-bound
PROFILES = (CHESS_GAME, VIRUS_SCAN, LINPACK)
DEVICES_PER_APP = 2
REQUESTS_PER_DEVICE = 12
REQUESTS_PER_DEVICE_SMOKE = 3
THINK_TIME_S = 4.0
THINK_JITTER = 0.25
START_OFFSET_S = 0.5


def _make_plans(requests_per_device: int, seed: int) -> List[ArrivalPlan]:
    """Closed-loop plans: DEVICES_PER_APP devices per profile.

    Mirrors :func:`~repro.workloads.generator.generate_inflow` but
    names devices per app (``chess-0``, ``virusscan-1`` ...) and keeps
    request ids unique across the whole mixed population.
    """
    rng = np.random.default_rng(seed)
    plans: List[ArrivalPlan] = []
    rid = 0
    for profile in PROFILES:
        for d in range(DEVICES_PER_APP):
            device_id = f"{profile.name}-{d}"
            t = d * START_OFFSET_S
            gap = t
            for seq in range(requests_per_device):
                plans.append(
                    ArrivalPlan(
                        time_s=t,
                        device_id=device_id,
                        request=OffloadRequest(
                            request_id=rid,
                            device_id=device_id,
                            app_id=profile.name,
                            profile=profile,
                            submitted_at=t,
                            seq_on_device=seq,
                        ),
                        gap_s=gap,
                    )
                )
                rid += 1
                gap = THINK_TIME_S * (
                    1.0 + THINK_JITTER * float(rng.uniform(-1.0, 1.0))
                )
                t += gap
    plans.sort(key=lambda p: (p.time_s, p.request.request_id))
    return plans


def _make_decider(arm: str):
    if arm in ("offload", "local"):
        return StaticDecider(arm)
    if arm == "adaptive":
        return OffloadDecider(PartitionConfig(), budgets=QoSBudgetBook())
    raise ValueError(f"unknown arm {arm!r}; known: {ARMS}")


def _cell(scenario: str, arm: str, seed: int = 1, smoke: bool = False) -> Dict[str, Any]:
    """One (scenario, arm) cell: the mixed fleet through one decider."""
    env = Environment()
    obs = Observability(env, tracing=True, metrics=True)
    platform = RattrapPlatform(
        env, optimized=True, dispatch_policy="app-affinity"
    )
    platform.enable_compute_cache()
    per_device = REQUESTS_PER_DEVICE_SMOKE if smoke else REQUESTS_PER_DEVICE
    plans = _make_plans(per_device, seed=seed)
    devices = {
        device_id: MobileDevice(
            device_id,
            make_link(scenario, rng=np.random.default_rng((seed, i))),
        )
        for i, device_id in enumerate(
            sorted({plan.device_id for plan in plans})
        )
    }
    decider = _make_decider(arm)

    wall0 = time.perf_counter()
    results = env.run(
        until=env.process(
            replay(env, platform, plans, devices, decider=decider)
        )
    )
    wall_s = time.perf_counter() - wall0

    served = [r for r in results if not r.shed]
    rts = sorted(r.response_time for r in served)

    def q(p: float) -> float:
        return rts[max(1, math.ceil(len(rts) * p)) - 1]

    energy_j = sum(device.energy_used_j for device in devices.values())
    local_count = sum(1 for r in served if r.executed_locally)
    phase_sum_s = sum(
        s.duration for s in obs.tracer.spans if s.kind in PHASE_KINDS
    )
    return {
        "scenario": scenario,
        "arm": arm,
        "devices": len(devices),
        "completed": len(served),
        "shed": len(results) - len(served),
        "local_count": local_count,
        "local_fraction": local_count / len(served) if served else 0.0,
        "mean_s": sum(rts) / len(rts) if rts else 0.0,
        "p50_s": q(0.50) if rts else 0.0,
        "p99_s": q(0.99) if rts else 0.0,
        "energy_j": energy_j,
        "wall_s": wall_s,
        "events": env.event_count,
        "phase_sum_s": phase_sum_s,
        "e2e_sum_s": sum(r.response_time for r in results),
    }


def cells(seed: int = 1, smoke: bool = False) -> list:
    """One cell per (scenario, arm)."""
    from .engine import Cell

    return [
        Cell(
            experiment="partition",
            key=(scenario, arm),
            fn=_cell,
            kwargs={"scenario": scenario, "arm": arm, "seed": seed,
                    "smoke": smoke},
        )
        for scenario in PARTITION_SCENARIOS
        for arm in ARMS
    ]


def merge(cell_list: list, values: List[Any]) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Reassemble (scenario, arm) -> metrics."""
    return {cell.key: value for cell, value in zip(cell_list, values)}


def run(
    seed: int = 1, jobs: int = 0, smoke: bool = False
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Run every (scenario, arm) cell, optionally over processes."""
    from .engine import run_cells

    cs = cells(seed=seed, smoke=smoke)
    return merge(cs, run_cells(cs, jobs=jobs))


def pareto_dominant_arms(
    data: Dict[Tuple[str, str], Dict[str, Any]]
) -> List[str]:
    """Scenarios where the adaptive arm strictly dominates both statics.

    Domination is on the (mean latency, device energy) plane: no worse
    on both axes than each static arm, strictly better on at least one
    axis against each.
    """

    def dominates(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
        return (
            a["mean_s"] <= b["mean_s"]
            and a["energy_j"] <= b["energy_j"]
            and (a["mean_s"] < b["mean_s"] or a["energy_j"] < b["energy_j"])
        )

    winners = []
    for scenario in PARTITION_SCENARIOS:
        adaptive = data[(scenario, "adaptive")]
        if all(
            dominates(adaptive, data[(scenario, arm)])
            for arm in ("offload", "local")
        ):
            winners.append(scenario)
    return winners


def report(data: Dict[Tuple[str, str], Dict[str, Any]]) -> str:
    """Render the scenario x arm grid and the Pareto headline."""
    rows = []
    for scenario in PARTITION_SCENARIOS:
        for arm in ARMS:
            m = data[(scenario, arm)]
            coverage = (
                100.0 * m["phase_sum_s"] / m["e2e_sum_s"]
                if m["e2e_sum_s"]
                else 0.0
            )
            rows.append(
                [
                    scenario,
                    arm,
                    f"{m['completed']}",
                    f"{100.0 * m['local_fraction']:.0f}",
                    f"{m['mean_s']:.2f}",
                    f"{m['p99_s']:.2f}",
                    f"{m['energy_j']:.0f}",
                    f"{coverage:.2f}",
                ]
            )
    table = render_table(
        [
            "scenario",
            "arm",
            "served",
            "local %",
            "mean (s)",
            "p99 (s)",
            "energy (J)",
            "span cover %",
        ],
        rows,
        title=(
            "Dynamic partitioning — offload / local / adaptive arms "
            "across network scenarios"
        ),
    )
    winners = pareto_dominant_arms(data)
    lines = [table, ""]
    for scenario in winners:
        a = data[(scenario, "adaptive")]
        o = data[(scenario, "offload")]
        l = data[(scenario, "local")]
        lines.append(
            f"{scenario}: adaptive dominates both static arms — "
            f"mean {a['mean_s']:.2f}s vs {o['mean_s']:.2f}s (offload) / "
            f"{l['mean_s']:.2f}s (local); energy {a['energy_j']:.0f}J vs "
            f"{o['energy_j']:.0f}J / {l['energy_j']:.0f}J "
            f"({100.0 * a['local_fraction']:.0f}% kept local)"
        )
    lines.append(
        f"adaptive arm Pareto-dominates both static arms on "
        f"{len(winners)}/{len(PARTITION_SCENARIOS)} scenarios "
        f"(target >= 1)"
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
