"""Predictive warm-pool scheduling on the LiveLab trace (extension).

The trace-driven evaluation (Fig. 11) shows why cold starts recur in a
real deployment: idle reclamation stops a user's runtime during the
long gaps between app sessions, so the next session pays the boot again.
The reactive dispatcher can only react to that arrival; the predictive
scheduler (``repro.platform.WarmPoolPredictor``) watches the per-app
arrival-rate EWMA and the trend of its dispatcher's pending cold boots
and keeps a warm pool ahead of demand instead.  Both arms run without
observability: the predictor reads only the node's own state.

This experiment replays the identical session-structured chess trace
through both arms — reactive and predictive — on an app-affinity
Rattrap platform with the standard 120 s idle reaper, and reports the
stall accounting and response-time tail side by side.

Opt-in (``rattrap-experiments predictive``): the default suite stays
byte-identical to a predictor-free tree.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..analysis import render_table
from ..network import make_link
from ..platform import PredictiveConfig, RattrapPlatform
from ..sim import Environment
from ..traces import LiveLabConfig, generate_livelab_trace, replay_trace, trace_to_plans
from ..workloads import CHESS_GAME

__all__ = ["run", "report", "cells", "merge"]

USERS = 8
DAYS = 1.0
IDLE_TIMEOUT_S = 120.0
#: compress the day so the horizon stays simulation-friendly while the
#: session gaps still dwarf the idle timeout
TIME_SCALE = 0.25


def _trace_cell(arm: str, seed: int = 1) -> Dict[str, Any]:
    """Replay the chess trace through one scheduling arm."""
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
    served = [r for r in results if not r.blocked]
    rts = sorted(r.response_time for r in served)

    def q(p: float) -> float:
        return rts[max(1, math.ceil(len(rts) * p)) - 1]

    d = platform.dispatcher
    return {
        "arm": arm,
        "served": len(served),
        "cold_boots": d.cold_boots,
        "boot_stalls": d.boot_stalls,
        "warmable_stalls": d.warmable_stalls,
        "preboots": d.preboots,
        "preboot_hits": d.preboot_hits,
        "pool_drained": d.pool_drained,
        "mean_s": sum(rts) / len(rts),
        "p50_s": q(0.50),
        "p99_s": q(0.99),
        "failure_rate": sum(r.offloading_failure for r in served) / len(served),
    }


def cells(seed: int = 1) -> list:
    """One cell per scheduling arm, identical trace."""
    from .engine import Cell

    return [
        Cell(
            experiment="predictive",
            key=(arm,),
            fn=_trace_cell,
            kwargs={"arm": arm, "seed": seed},
        )
        for arm in ("reactive", "predictive")
    ]


def merge(cell_list: list, values: List[Any]) -> Dict[str, Dict[str, Any]]:
    """Reassemble data[arm] = stats."""
    return {cell.key[0]: value for cell, value in zip(cell_list, values)}


def run(seed: int = 1, jobs: int = 0) -> Dict[str, Dict[str, Any]]:
    """Run both arms over the same generated trace."""
    from .engine import run_cells

    cs = cells(seed=seed)
    return merge(cs, run_cells(cs, jobs=jobs))


def report(data: Dict[str, Dict[str, Any]]) -> str:
    """Render the arm comparison and the stall-elimination headline."""
    rows = []
    for arm in ("reactive", "predictive"):
        m = data[arm]
        rows.append(
            [
                arm,
                f"{m['served']}",
                f"{m['cold_boots']}",
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
            "arm",
            "served",
            "cold boots",
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
            f"LiveLab chess trace — reactive vs predictive scheduling "
            f"({USERS} users, reaper {IDLE_TIMEOUT_S:.0f}s)"
        ),
    )
    react, pred = data["reactive"], data["predictive"]
    eliminated = react["warmable_stalls"] - pred["warmable_stalls"]
    share = (
        100.0 * eliminated / react["warmable_stalls"]
        if react["warmable_stalls"]
        else 0.0
    )
    return table + (
        f"\n\npredictive scheduling eliminated {eliminated} of "
        f"{react['warmable_stalls']} warm-capable cold-boot stalls "
        f"({share:.0f}%); p99 response {react['p99_s']:.2f}s -> "
        f"{pred['p99_s']:.2f}s, offloading failures "
        f"{100.0 * react['failure_rate']:.1f}% -> "
        f"{100.0 * pred['failure_rate']:.1f}%"
    )


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
