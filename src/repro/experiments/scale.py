"""Scale experiment (extension) — 1k→10k devices on a 3-node cluster.

The ROADMAP's north star is a platform that "serves heavy traffic from
millions of users"; this experiment measures whether the *simulator*
can reach that regime.  It ramps the device population from 1 000 to
10 000 — each device offloads one VirusScan request against the same
signature database — over a three-node Rattrap cluster with
app-affinity dispatch per node and 64 shared-medium WiFi APs
(:class:`~repro.network.link.FlowLink`, fluid fair-share).

Reported per ramp step:

- **req/s** — requests simulated per wall-clock second (sustained
  simulator throughput, the headline number);
- **kev/s** — kernel events scheduled per wall-clock second;
- **peak RSS** — ``ru_maxrss`` of the running process;
- **dedup** — content-addressed Sharing Offloading I/O hits and bytes
  saved (every clone ships the same signature DB, §IV-C taken to its
  multi-tenant conclusion).

This experiment is intentionally *not* part of the default suite (the
paper reports stay untouched); run it via ``rattrap-experiments scale``
or ``make scale``.  The full ramp must stay well under CI's patience —
that is the point.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from ..analysis import render_table
from ..network.link import FlowLink
from ..network.scenarios import SCENARIOS
from ..obs import PHASE_KINDS, Observability
from ..offload.request import OffloadRequest
from ..platform import ClusterPlatform, RattrapPlatform
from ..sim import Environment
from ..workloads import VIRUS_SCAN
from .common import open_loop_feeder

__all__ = ["run", "report", "cells", "merge", "DEVICE_STEPS", "SMOKE_STEPS"]

MB = 1024 * 1024

#: ramp steps: devices (== requests; each device offloads once)
DEVICE_STEPS = (1000, 2500, 5000, 10000)
#: abbreviated ramp for CI smoke / fresh-baseline measurement
SMOKE_STEPS = (1000, 2500)
SERVERS = 3
ACCESS_POINTS = 64
#: open-loop arrival rate; 10 req/s x 2.3 cpu_s ≈ 64 % of the fleet's
#: 36 cores, so the cluster stays loaded but never melts down
ARRIVAL_RATE_S = 10.0
#: every clone scans against the same signature database; requests
#: inherit the digest from ``VIRUS_SCAN.payload_key`` automatically


def _scale_cell(devices: int, seed: int = 1) -> Dict[str, Any]:
    """One ramp step: N devices, one VirusScan offload each."""
    import resource

    env = Environment()
    # Tracing stays on for the whole ramp: the span breakdown *is* part
    # of the deliverable (per-phase accounting of the 10k-device step),
    # and it doubles as a live overhead measurement for repro.obs.
    obs = Observability(env, tracing=True, metrics=True)
    cluster = ClusterPlatform(
        env,
        servers=SERVERS,
        policy="device-sticky",
        platform_factory=lambda e: RattrapPlatform(
            e, optimized=True, dispatch_policy="app-affinity"
        ),
    )
    params = SCENARIOS["lan-wifi"]
    aps = [
        FlowLink(f"ap-{i}", rng=np.random.default_rng((seed, i)), **params)
        for i in range(ACCESS_POINTS)
    ]
    requests = [
        OffloadRequest(
            request_id=i,
            device_id=f"dev-{i}",
            app_id=VIRUS_SCAN.name,
            profile=VIRUS_SCAN,
            submitted_at=i / ARRIVAL_RATE_S,
        )
        for i in range(devices)
    ]

    wall0 = time.perf_counter()
    env.run(until=env.process(open_loop_feeder(env, cluster, requests, aps)))
    wall_s = time.perf_counter() - wall0

    completed = cluster.completed()
    response_times = [r.response_time for r in completed]
    ios = [node.shared_layer.offload_io for node in cluster.nodes]
    breakdown = obs.tracer.by_kind()
    return {
        "span_breakdown": breakdown,
        "phase_sum_s": obs.tracer.phase_total_s(),
        "e2e_sum_s": sum(response_times),
        "warehouse_hit_rate": (
            sum(node.warehouse.hit_rate for node in cluster.nodes)
            / len(cluster.nodes)
        ),
        "devices": devices,
        "completed": len(completed),
        "sim_s": env.now,
        "wall_s": wall_s,
        "events": env.event_count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_response_s": sum(response_times) / len(response_times),
        "max_active_flows": max(ap.peak_flows for ap in aps),
        "runtimes": cluster.runtime_count(),
        "dedup_hits": sum(io.dedup_hits for io in ios),
        "dedup_saved_bytes": sum(io.dedup_bytes_saved for io in ios),
        "staged_bytes": sum(io.total_staged for io in ios),
    }


def cells(seed: int = 1, smoke: bool = False) -> list:
    """One cell per ramp step.

    ``smoke=True`` truncates the ramp to :data:`SMOKE_STEPS` — the
    cheap variant CI and the fresh-baseline measurement use.
    """
    from .engine import Cell

    return [
        Cell(
            experiment="scale",
            key=(devices,),
            fn=_scale_cell,
            kwargs={"devices": devices, "seed": seed},
        )
        for devices in (SMOKE_STEPS if smoke else DEVICE_STEPS)
    ]


def merge(cell_list: list, values: List[Any]) -> Dict[int, Dict[str, Any]]:
    """Reassemble data[devices] = metrics in cell order."""
    return {cell.key[0]: value for cell, value in zip(cell_list, values)}


def run(seed: int = 1, jobs: int = 0, smoke: bool = False) -> Dict[int, Dict[str, Any]]:
    """Run the whole ramp (serially by default: RSS is per-process).

    ``smoke=True`` truncates the ramp to :data:`SMOKE_STEPS`.
    """
    from .engine import run_cells

    cs = cells(seed=seed, smoke=smoke)
    return merge(cs, run_cells(cs, jobs=jobs))


def report(data: Dict[int, Dict[str, Any]]) -> str:
    """Render the ramp table plus the 10k-device headline."""
    rows = []
    for devices, m in data.items():
        rows.append(
            [
                f"{devices}",
                f"{m['completed']}",
                f"{m['sim_s']:.0f}",
                f"{m['wall_s']:.2f}",
                f"{m['completed'] / m['wall_s']:.0f}",
                f"{m['events'] / m['wall_s'] / 1e3:.0f}",
                f"{m['peak_rss_mb']:.0f}",
                f"{m['dedup_hits']}",
                f"{m['dedup_saved_bytes'] / MB:.0f}",
            ]
        )
    table = render_table(
        [
            "devices",
            "served",
            "sim (s)",
            "wall (s)",
            "req/s",
            "kev/s",
            "RSS (MB)",
            "dedup hits",
            "saved (MB)",
        ],
        rows,
        title=(
            f"Scale ramp — {SERVERS}-node cluster, {ACCESS_POINTS} shared APs, "
            f"VirusScan @ {ARRIVAL_RATE_S:.0f} req/s"
        ),
    )
    top = data[max(data)]
    hit_rate = 100.0 * top["dedup_hits"] / top["completed"]
    summary = table + (
        f"\n\n{top['devices']} devices: "
        f"{top['completed'] / top['wall_s']:.0f} req/s sustained, "
        f"{top['events'] / top['wall_s'] / 1e3:.0f}k events/s, "
        f"peak RSS {top['peak_rss_mb']:.0f} MB, "
        f"dedup saved {top['dedup_saved_bytes'] / MB:.0f} MB "
        f"({hit_rate:.0f}% of stagings were hits), "
        f"{top['runtimes']} runtimes booted for {top['devices']} devices"
    )
    return summary + "\n\n" + _phase_report(top)


def _phase_report(top: Dict[str, Any]) -> str:
    """Span breakdown of the largest ramp step (tracing accounting).

    The five request phases tile each request's serve time exactly, so
    their summed durations must reconcile with the summed end-to-end
    response times — the coverage line makes any drift visible.
    """
    breakdown = top["span_breakdown"]
    e2e = top["e2e_sum_s"]
    rows = []
    for kind in PHASE_KINDS:
        entry = breakdown.get(kind, {"count": 0, "total_s": 0.0})
        share = 100.0 * entry["total_s"] / e2e if e2e else 0.0
        rows.append([kind, f"{entry['count']}", f"{entry['total_s']:.1f}", f"{share:.1f}"])
    phase_table = render_table(
        ["phase", "spans", "total (s)", "% of e2e"],
        rows,
        title=f"Span breakdown — {top['devices']}-device step",
    )
    coverage = 100.0 * top["phase_sum_s"] / e2e if e2e else 0.0
    return phase_table + (
        f"\n\nphase spans cover {coverage:.2f}% of {e2e:.1f}s summed "
        f"end-to-end latency (target: within 1%); "
        f"warehouse hit rate {100.0 * top['warehouse_hit_rate']:.1f}%"
    )


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
