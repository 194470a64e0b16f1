"""Predictive warm-pool scheduling vs the reactive dispatcher (extension).

The trace-driven evaluation (Fig. 11) shows why cold starts recur in a
real deployment: idle reclamation stops a user's runtime during the
long gaps between app sessions, so the next session pays the boot again.
The reactive dispatcher can only react to that arrival; the predictive
scheduler (``repro.platform.WarmPoolPredictor``) watches the per-app
arrival-rate EWMA and the trend of its dispatcher's pending cold boots
and keeps a warm pool ahead of demand instead.  Both arms run without
observability: the predictor reads only the node's own state.

Two scenarios replay identical inflow through both arms — reactive and
predictive — under the same 120 s idle reaper:

- ``trace`` — a session-structured LiveLab chess trace on one
  app-affinity Rattrap node;
- ``waves`` — VirusScan arrival waves separated by more than the reaper
  timeout on a three-node cluster, so the reactive cluster pays a fresh
  cold-boot stall on every wave while the predictor's pool rides the
  gap.  The wave rate is gentle, so the tail is boot-stall-bound (the
  regime predictive scheduling targets), not queueing-bound; enough
  waves run that the unavoidable wave-0 cold boots drop below the p99
  rank.

The report puts stall accounting and the response-time tail side by
side, with one headline per scenario.

Opt-in (``rattrap-experiments predictive``): the default suite stays
byte-identical to a predictor-free tree.
"""

from __future__ import annotations

from itertools import cycle
from typing import Any, Dict, List, Sequence

import numpy as np

from ..analysis import failure_rate, nearest_rank, render_table
from ..network import make_link
from ..network.link import FlowLink
from ..network.scenarios import SCENARIOS as LINK_SCENARIOS
from ..offload.client import replay_inflow
from ..offload.request import OffloadRequest, RequestResult
from ..platform import ClusterPlatform, PredictiveConfig, RattrapPlatform
from ..platform.dispatcher import Dispatcher
from ..sim import Environment
from ..traces import LiveLabConfig, generate_livelab_trace, replay_trace, trace_to_plans
from ..workloads import CHESS_GAME, VIRUS_SCAN

__all__ = ["run", "report", "cells", "merge", "SCENARIOS", "ARMS"]

SCENARIOS = ("trace", "waves")
ARMS = ("reactive", "predictive")
IDLE_TIMEOUT_S = 120.0

#: trace scenario: LiveLab users over one day, compressed so the
#: horizon stays simulation-friendly while the session gaps still
#: dwarf the idle timeout
USERS = 8
DAYS = 1.0
TIME_SCALE = 0.25

#: waves scenario: WAVES x WAVE_DEVICES one-shot VirusScan devices
SERVERS = 3
ACCESS_POINTS = 64
WAVES = 8
WAVE_DEVICES = 80
WAVE_GAP_S = 300.0
WAVE_RATE_S = 4.0


def _stats(served: Sequence[RequestResult], dispatchers: List[Dispatcher]) -> Dict[str, Any]:
    """Dispatcher counters summed over the nodes, plus the served tail."""
    rts = [r.response_time for r in served]
    stats: Dict[str, Any] = {
        name: sum(getattr(d, name) for d in dispatchers)
        for name in (
            "cold_boots",
            "boot_stalls",
            "warmable_stalls",
            "preboots",
            "preboot_hits",
            "pool_drained",
        )
    }
    stats.update(
        served=len(served),
        p50_s=nearest_rank(rts, 0.50),
        p99_s=nearest_rank(rts, 0.99),
        failure_rate=failure_rate(served),
    )
    return stats


def _trace_cell(arm: str, seed: int = 1) -> Dict[str, Any]:
    """Replay the chess trace through one node under one arm."""
    env = Environment()
    platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    if arm == "predictive":
        # Sessions are sparse: hold the pool across think-time gaps for
        # an hour of simulated time rather than draining on every lull.
        platform.enable_predictive(PredictiveConfig(hold_s=3600.0))
        platform.start_predictor()
    trace = generate_livelab_trace(
        LiveLabConfig(users=USERS, days=DAYS), apps=("chess",), seed=seed
    )
    plans = trace_to_plans(trace, CHESS_GAME, time_scale=TIME_SCALE, seed=seed)
    links = {u: make_link("lan-wifi") for u in trace.users()}
    results = replay_trace(env, platform, plans, links, idle_timeout_s=IDLE_TIMEOUT_S)
    return _stats([r for r in results if not r.blocked], [platform.dispatcher])


def _waves_cell(arm: str, seed: int = 1) -> Dict[str, Any]:
    """Feed the VirusScan waves through the cluster under one arm."""
    env = Environment()
    cluster = ClusterPlatform(
        env,
        servers=SERVERS,
        policy="device-sticky",
        platform_factory=lambda e: RattrapPlatform(
            e, optimized=True, dispatch_policy="app-affinity"
        ),
    )
    cluster.start_idle_reaper(IDLE_TIMEOUT_S)
    if arm == "predictive":
        cluster.enable_predictive(PredictiveConfig(hold_s=2 * WAVES * WAVE_GAP_S))
        cluster.start_predictors()
    params = LINK_SCENARIOS["lan-wifi"]
    aps = [
        FlowLink(f"ap-{i}", rng=np.random.default_rng((seed, i)), **params)
        for i in range(ACCESS_POINTS)
    ]
    requests = [
        OffloadRequest(
            request_id=wave * WAVE_DEVICES + d,
            device_id=f"dev-{d}",
            app_id=VIRUS_SCAN.name,
            profile=VIRUS_SCAN,
            seq_on_device=wave,
            submitted_at=wave * WAVE_GAP_S + d / WAVE_RATE_S,
        )
        for wave in range(WAVES)
        for d in range(WAVE_DEVICES)
    ]

    arrivals = zip(requests, cycle(aps))
    env.run(until=env.process(replay_inflow(env, cluster, arrivals)))
    return _stats(cluster.completed(), [n.dispatcher for n in cluster.nodes])


_CELL_FNS = {"trace": _trace_cell, "waves": _waves_cell}


def cells(seed: int = 1) -> list:
    """One cell per (scenario, arm); both arms of a scenario share its inflow."""
    from .engine import Cell

    return [
        Cell(
            experiment="predictive",
            key=(scenario, arm),
            fn=_CELL_FNS[scenario],
            kwargs={"arm": arm, "seed": seed},
        )
        for scenario in SCENARIOS
        for arm in ARMS
    ]


def merge(cell_list: list, values: List[Any]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Reassemble data[scenario][arm] = stats."""
    data: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for cell, value in zip(cell_list, values):
        scenario, arm = cell.key
        data.setdefault(scenario, {})[arm] = value
    return data


def run(seed: int = 1, jobs: int = 0) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Run both arms of both scenarios."""
    from .engine import run_cells

    cs = cells(seed=seed)
    return merge(cs, run_cells(cs, jobs=jobs))


_DESCRIPTIONS = {
    "trace": f"LiveLab chess, {USERS} users, 1 node",
    "waves": (
        f"{WAVES} waves x {WAVE_DEVICES} VirusScan devices, "
        f"{WAVE_GAP_S:.0f}s apart, {SERVERS}-node cluster"
    ),
}


def report(data: Dict[str, Dict[str, Dict[str, Any]]]) -> str:
    """Render every (scenario, arm) row plus one headline per scenario."""
    rows = []
    for scenario in SCENARIOS:
        for arm in ARMS:
            m = data[scenario][arm]
            rows.append(
                [
                    scenario,
                    arm,
                    f"{m['served']}",
                    f"{m['cold_boots']}",
                    f"{m['boot_stalls']}",
                    f"{m['warmable_stalls']}",
                    f"{m['preboots']}",
                    f"{m['preboot_hits']}",
                    f"{m['pool_drained']}",
                    f"{m['p50_s']:.2f}",
                    f"{m['p99_s']:.2f}",
                    f"{100.0 * m['failure_rate']:.1f}",
                ]
            )
    table = render_table(
        [
            "scenario",
            "arm",
            "served",
            "cold boots",
            "boot stalls",
            "warmable",
            "preboots",
            "hits",
            "drained",
            "p50 (s)",
            "p99 (s)",
            "fail %",
        ],
        rows,
        title=(
            f"Predictive warm-pool scheduling — reactive vs predictive "
            f"(reaper {IDLE_TIMEOUT_S:.0f}s)"
        ),
    )
    lines = []
    for scenario in SCENARIOS:
        react, pred = data[scenario]["reactive"], data[scenario]["predictive"]
        eliminated = react["warmable_stalls"] - pred["warmable_stalls"]
        share = (
            100.0 * eliminated / react["warmable_stalls"]
            if react["warmable_stalls"]
            else 0.0
        )
        lines.append(
            f"{scenario} ({_DESCRIPTIONS[scenario]}): predictive scheduling "
            f"eliminated {eliminated} of {react['warmable_stalls']} "
            f"warm-capable cold-boot stalls ({share:.0f}%); p99 response "
            f"{react['p99_s']:.2f}s -> {pred['p99_s']:.2f}s, p50 "
            f"{react['p50_s']:.2f}s -> {pred['p50_s']:.2f}s, offloading "
            f"failures {100.0 * react['failure_rate']:.1f}% -> "
            f"{100.0 * pred['failure_rate']:.1f}%"
        )
    return table + "\n\n" + "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
