"""Trace → request-stream conversion and the trace-driven experiment.

§VI-E: "we simulate offloading requests with these timestamps of
access records as the start time".  Trace replay is *open-loop*: the
recorded timestamps fire regardless of how long the platform takes.
Each user is a device; users carry different network scenarios (a
mobile population is not all on LAN WiFi).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..offload.client import gather_results, group_by_device, replay_inflow
from ..offload.request import OffloadRequest, RequestResult
from ..workloads.base import WorkloadProfile
from ..workloads.generator import ArrivalPlan
from .livelab import AccessTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..network.link import Link
    from ..platform.base import CloudPlatform
    from ..sim.core import Environment

__all__ = ["trace_to_plans", "replay_trace", "DEFAULT_SCENARIO_MIX"]

#: The trace evaluation keeps users on LAN WiFi (as in the §VI-C setup);
#: per-user RNGs still give each user independent latency jitter.
DEFAULT_SCENARIO_MIX: Sequence[str] = ("lan-wifi",) * 5


def trace_to_plans(
    trace: AccessTrace,
    profile: WorkloadProfile,
    time_scale: float = 1.0,
    work_sigma: float = 0.30,
    seed: int = 0,
) -> List[ArrivalPlan]:
    """Convert trace records for ``profile``'s app into arrival plans.

    ``time_scale`` < 1 compresses the trace (useful to keep simulated
    horizons manageable while preserving burst structure).
    ``work_sigma`` is the lognormal spread of per-request task sizes —
    real interactive tasks (a chess position to search) vary widely,
    which is what spreads the Fig. 11 speedup CDF around the platform
    means.  The scale multiplies both local and cloud execution time.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    if work_sigma < 0:
        raise ValueError("work_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    plans: List[ArrivalPlan] = []
    seq_per_user: Dict[str, int] = {}
    for rid, record in enumerate(trace.for_app(profile.name)):
        seq = seq_per_user.get(record.user_id, 0)
        seq_per_user[record.user_id] = seq + 1
        t = record.time_s * time_scale
        scale = 1.0
        if work_sigma > 0:
            # Mean-one lognormal so aggregate calibrations are preserved.
            scale = float(rng.lognormal(-0.5 * work_sigma**2, work_sigma))
        plans.append(
            ArrivalPlan(
                time_s=t,
                device_id=record.user_id,
                request=OffloadRequest(
                    request_id=rid,
                    device_id=record.user_id,
                    app_id=profile.name,
                    profile=profile,
                    submitted_at=t,
                    seq_on_device=seq,
                    work_scale=scale,
                ),
            )
        )
    return plans


def replay_trace(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence[ArrivalPlan],
    links: Dict[str, "Link"],
    idle_timeout_s: float = 120.0,
    devices=None,
) -> List[RequestResult]:
    """Run a trace-driven experiment with per-user links + idle reaping.

    When ``devices`` maps user ids to :class:`MobileDevice` objects,
    each device's battery is charged for its offloaded requests.
    Returns the completed request results.
    """
    if not plans:
        raise ValueError("empty plan list")
    per_user = group_by_device(plans, links, "link for user(s)")
    platform.start_idle_reaper(idle_timeout_s=idle_timeout_s)

    # Each user's stream rides its own link.
    procs = [
        env.process(
            replay_inflow(env, platform, per_user[user], links[user],
                          devices=devices)
        )
        for user in sorted(per_user)
    ]

    return env.run(until=env.process(gather_results(env, procs)))
