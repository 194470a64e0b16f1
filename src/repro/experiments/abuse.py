"""Hostile-tenant abuse experiment (extension) — isolation scorecard.

The chaos experiment grades recovery from *accidents*; this one grades
isolation from *abuse*.  For each attack class in
:data:`SCENARIOS`, honest victim tenants replay a seeded inflow on one
Rattrap node while one adversary from :mod:`repro.faults.adversaries`
attacks a shared layer, in three arms:

- **none** — no adversary, countermeasures on (the healthy baseline);
- **off**  — adversary active, per-tenant *accounting* on but every
  countermeasure off (naive shared platform);
- **on**   — adversary active, countermeasures on: per-tenant capped
  airtime fair share, residency quotas with burn-on-over-quota,
  warm-pool reservation floors, and escalating access-controller
  blocks with admission throttling.

The scorecard grades each class on the victims' p99 latency and cloud
availability (countermeasures should hold p99 within 25% of the
no-attack baseline at >= 99% availability), and on *attributability*:
the offending tenant must be identifiable from a single metrics
snapshot of the undefended arm via
:func:`~repro.platform.tenancy.top_offenders`.

All arms attach a :class:`~repro.platform.tenancy.TenancyManager`
(accounting is always worth its ~zero cost); the default experiment
suite attaches none and stays byte-identical.  Runs via
``rattrap-experiments abuse`` or ``make abuse`` (``--smoke`` for the
cheap CI configuration).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..analysis import nearest_rank, render_table
from ..faults import (
    AirtimeHog,
    CacheSquatter,
    FaultInjector,
    FaultPlan,
    PermissionStorm,
    ResidencySquatter,
    RetryAmplifier,
    WarmPoolSquatter,
)
from ..hostos.server import CloudServer, ServerSpec
from ..network.link import FlowLink
from ..obs import Observability
from ..offload import MobileDevice, RetryPolicy, replay
from ..platform import (
    ComputeCacheConfig,
    PredictiveConfig,
    RattrapPlatform,
    RequestAccessController,
    TenancyConfig,
    TenancyManager,
    top_offenders,
)
from ..platform.tenancy import render_attribution
from ..sim import Environment
from ..workloads import CHESS_GAME, OCR, VIRUS_SCAN, generate_inflow

__all__ = ["run", "report", "cells", "merge", "SCENARIOS", "ARMS"]

#: one scenario per attack class
SCENARIOS = (
    "permission-storm",
    "airtime-hog",
    "residency-squat",
    "cache-squat",
    "pool-squat",
    "retry-amplifier",
)

ARMS = ("none", "off", "on")

#: resource whose top offender must finger the adversary, per scenario
ATTRIBUTED_RESOURCE = {
    "permission-storm": "violations",
    "airtime-hog": "airtime_s",
    "residency-squat": "resident_bytes",
    "cache-squat": "cache_bytes",
    "pool-squat": "pool_slots",
    "retry-amplifier": "violations",
}

#: acceptance thresholds of the scorecard verdict
P99_DEGRADATION_LIMIT = 1.25
AVAILABILITY_FLOOR = 0.99

#: per-operation CPU cost of the workflow analysis engine — the shared
#: resource a permission storm taxes
FILTER_COST_S = 0.3

#: transfer-heavy victim for the airtime scenario (the OCR default is
#: CPU-dominated, which would hide radio starvation)
BULK_OCR = OCR.derive(
    "ocr-bulk", file_size_kb=1000.0, cloud_cpu_s=0.5, local_time_s=14.0
)


def _access_controller(arm: str) -> RequestAccessController:
    """The access controller for one arm.

    Both arms pay the same per-operation filter cost — the analysis
    engine is part of the platform — but the OFF arm never blocks,
    throttles, or decays: the one-way naive controller.
    """
    if arm == "off":
        return RequestAccessController(
            violation_threshold=10**9, filter_cost_s=FILTER_COST_S
        )
    return RequestAccessController(
        violation_threshold=3,
        decay_window_s=30.0,
        block_s=60.0,
        block_escalation=2.0,
        throttle_penalty_s=0.5,
        filter_cost_s=FILTER_COST_S,
    )


def _tenancy_config(scenario: str, arm: str) -> TenancyConfig:
    """Enforcement policy per arm (accounting is on in every arm)."""
    if arm == "off":
        return TenancyConfig(enforce=False)
    if scenario == "airtime-hog":
        # Victims carry triple weight; the cap is a backstop no tenant
        # can exceed, however many flows it opens.
        return TenancyConfig(
            airtime_cap=0.75, airtime_weights={"ocr-bulk": 3.0}
        )
    if scenario == "residency-squat":
        return TenancyConfig(residency_quota_bytes=8 * 1024 * 1024)
    if scenario == "cache-squat":
        return TenancyConfig(cache_quota_bytes=64 * 1024)
    return TenancyConfig()


def _abuse_cell(
    scenario: str, arm: str, seed: int = 1, smoke: bool = False
) -> Dict[str, Any]:
    """One (scenario, arm) run: victims + optional adversary, seeded."""
    env = Environment()
    obs = Observability(env, tracing=False, metrics=True)
    TenancyManager(env, _tenancy_config(scenario, arm))

    # Small tmpfs so a squatter can plausibly fill it inside the run.
    spec = ServerSpec(tmpfs_mb=32.0)
    platform = RattrapPlatform(
        env,
        server=CloudServer(env, spec=spec),
        access_controller=_access_controller(arm),
        dispatch_policy=(
            "app-affinity" if scenario == "pool-squat" else "per-device"
        ),
    )
    injector = FaultInjector(env, FaultPlan(seed=seed)).attach(platform)

    devices_n = 2 if smoke else 4
    reqs = 3 if smoke else 8
    duration = 20.0 if smoke else 60.0

    # All victim devices (and link-borne attacks) share one AP radio.
    # Named after a power-model scenario so device energy accounting
    # resolves; the link itself is one shared AP radio.
    ap = FlowLink(
        "lan-wifi",
        latency_s=0.002,
        up_bw_bps=40e6,
        down_bw_bps=40e6,
        jitter_sigma=0.05,
        rng=np.random.default_rng((seed, 77)),
    )

    if scenario == "airtime-hog":
        victim_profile = BULK_OCR
        think = 3.0
    elif scenario == "pool-squat":
        victim_profile = CHESS_GAME
        think = 25.0 if smoke else 45.0
        reqs = 2 if smoke else 3
        cfg = PredictiveConfig(
            tick_s=1.0,
            max_pool=6,
            pool_capacity=6,
            pool_floors=((CHESS_GAME.name, 4),) if arm != "off" else (),
        )
        platform.enable_predictive(cfg)
        platform.start_predictor()
        platform.start_idle_reaper(idle_timeout_s=15.0, check_interval_s=5.0)
        duration = 60.0 if smoke else 150.0
    elif scenario == "cache-squat":
        # Repeat-heavy victim: every clone scans the same database, so
        # warm requests ride the compute cache — until a squatter evicts
        # the entry.  Tiny capacity so the attack lands inside the run.
        victim_profile = VIRUS_SCAN
        think = 2.0
        platform.enable_compute_cache(
            ComputeCacheConfig(capacity_bytes=128 * 1024)
        )
    else:
        victim_profile = OCR
        think = 2.0

    plans = generate_inflow(
        victim_profile,
        devices=devices_n,
        requests_per_device=reqs,
        think_time_s=think,
        seed=seed,
    )
    devices = {
        f"device-{i}": MobileDevice(f"device-{i}", ap) for i in range(devices_n)
    }

    adversary = None
    if arm != "none":
        adversary = _adversary_for(scenario, ap, duration, smoke)
        injector.launch(adversary)

    proc = env.process(
        replay(env, platform, plans, devices, retry=RetryPolicy(), seed=seed)
    )
    results = env.run(until=proc)

    victim_apps = {victim_profile.name}
    victims = [r for r in results if r.request.app_id in victim_apps]
    cloud = [r for r in victims if not r.blocked and not r.executed_locally]
    # Tail latency over steady state: each device's first request pays
    # the cold boot in *every* arm, which would mask the attack delta.
    steady = [r for r in victims if r.request.seq_on_device >= 1] or victims
    snapshot = obs.metrics.snapshot()
    offenders = {
        resource: list(pair) for resource, pair in top_offenders(snapshot).items()
    }
    return {
        "scenario": scenario,
        "arm": arm,
        "requests": len(victims),
        "cloud_served": len(cloud),
        "availability": len(cloud) / len(victims) if victims else 0.0,
        "p99_s": nearest_rank([r.response_time for r in steady], 0.99) if steady else 0.0,
        "mean_attempts": (
            sum(r.attempts for r in victims) / len(victims) if victims else 0.0
        ),
        "adversary_actions": adversary.actions if adversary else 0,
        "adversary_denied": adversary.denied if adversary else 0,
        "offenders": offenders,
        "snapshot": snapshot,
        "quota_evictions": platform.shared_layer.offload_io.quota_evictions,
        "preboot_refusals": platform.dispatcher.preboot_refusals,
    }


def _adversary_for(scenario: str, ap, duration: float, smoke: bool):
    """Build the attack for one scenario (traffic tagged by app_id)."""
    if scenario == "permission-storm":
        profile = OCR.derive("storm-app", cloud_cpu_s=1.0)
        return PermissionStorm(
            "storm-app",
            profile,
            ap,
            interval_s=0.15,
            operations=(
                "fs.shared_layer_write",
                "devns.escape",
                "warehouse.poison",
                "kernel.module_load",
            ),
            duration_s=duration,
        )
    if scenario == "airtime-hog":
        return AirtimeHog(
            "hog-app",
            ap,
            flow_bytes=4 * 1024 * 1024,
            streams=8 if smoke else 16,
            duration_s=duration,
        )
    if scenario == "residency-squat":
        return ResidencySquatter(
            "squat-app",
            chunk_kb=1024.0,
            interval_s=0.25,
            duration_s=duration,
        )
    if scenario == "cache-squat":
        profile = OCR.derive("cachespam-app", cloud_cpu_s=1.0)
        return CacheSquatter(
            "cachespam-app",
            profile,
            chunk_kb=32.0,
            interval_s=0.25,
            duration_s=duration,
        )
    if scenario == "pool-squat":
        return WarmPoolSquatter(
            "pool-app",
            phantom_per_tick=8,
            interval_s=1.0,
            duration_s=duration,
        )
    if scenario == "retry-amplifier":
        profile = OCR.derive("retry-app", cloud_cpu_s=3.0)
        return RetryAmplifier(
            "retry-app",
            profile,
            ap,
            loops=8 if smoke else 24,
            budget=150,
            duration_s=duration,
        )
    raise ValueError(f"unknown scenario {scenario!r}; known: {SCENARIOS}")


#: the adversary app id per scenario (what attribution must finger)
ADVERSARY_APP = {
    "permission-storm": "storm-app",
    "airtime-hog": "hog-app",
    "residency-squat": "squat-app",
    "cache-squat": "cachespam-app",
    "pool-squat": "pool-app",
    "retry-amplifier": "retry-app",
}


def cells(seed: int = 1, smoke: bool = False) -> list:
    """One cell per (scenario, arm)."""
    from .engine import Cell

    return [
        Cell(
            experiment="abuse",
            key=(scenario, arm),
            fn=_abuse_cell,
            kwargs={"scenario": scenario, "arm": arm, "seed": seed, "smoke": smoke},
        )
        for scenario in SCENARIOS
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


def _verdict(base: Dict[str, Any], on: Dict[str, Any], offender_ok: bool) -> str:
    """PASS when countermeasures bound the damage and blame lands."""
    p99_ok = on["p99_s"] <= P99_DEGRADATION_LIMIT * base["p99_s"]
    avail_ok = on["availability"] >= AVAILABILITY_FLOOR
    return "PASS" if (p99_ok and avail_ok and offender_ok) else "FAIL"


def report(data: Dict[Tuple[str, str], Dict[str, Any]]) -> str:
    """Render the per-attack-class isolation scorecard."""
    rows = []
    passes = 0
    for scenario in SCENARIOS:
        base = data[(scenario, "none")]
        off = data[(scenario, "off")]
        on = data[(scenario, "on")]
        resource = ATTRIBUTED_RESOURCE[scenario]
        offender = off["offenders"].get(resource, ["-", 0.0])[0]
        offender_ok = offender == ADVERSARY_APP[scenario]
        verdict = _verdict(base, on, offender_ok)
        passes += verdict == "PASS"
        rows.append(
            [
                scenario,
                f"{base['p99_s']:.2f}",
                f"{off['p99_s']:.2f}",
                f"{on['p99_s']:.2f}",
                f"{100.0 * off['availability']:.0f}",
                f"{100.0 * on['availability']:.0f}",
                f"{offender}:{resource}",
                verdict,
            ]
        )
    table = render_table(
        [
            "attack",
            "p99 base (s)",
            "p99 off (s)",
            "p99 on (s)",
            "avail off (%)",
            "avail on (%)",
            "top offender",
            "verdict",
        ],
        rows,
        title="Abuse: victim impact per attack class (countermeasures off vs on)",
    )
    note = (
        f"\n\n{passes}/{len(SCENARIOS)} attack classes contained "
        f"(target: p99 <= {P99_DEGRADATION_LIMIT:.2f}x baseline, "
        f"availability >= {100 * AVAILABILITY_FLOOR:.0f}%, offender attributed)"
    )
    tables = [table]
    for scenario in SCENARIOS:
        off = data[(scenario, "off")]
        tables.append(
            render_attribution(
                off["snapshot"],
                title=f"Attribution ({scenario}, countermeasures off)",
            )
        )
    return "\n\n".join(tables) + note


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
