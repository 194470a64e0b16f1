"""Ablation studies (extension) — each Rattrap mechanism in isolation.

The paper's Rattrap(W/O) removes *all* optimizations at once; these
ablations remove one at a time, quantifying each mechanism's individual
contribution on the standard 5-device closed-loop experiment:

- ``no-cache``      — App Warehouse off (uploads revert to per-device);
- ``exclusive-io``  — Sharing Offloading I/O off (HDD instead of tmpfs);
- ``no-dedup``      — content-addressed staging off (every request
  materializes its own tmpfs copy of a shared payload);
- ``app-affinity``  — dispatcher consolidates instead of per-device;
- ``priority``      — Monitor & Scheduler CPU weights for the
  interactive app on a saturated 2-core server.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis import phase_means, render_table
from ..network import make_link
from ..offload import Phase, run_inflow_experiment
from ..platform import RattrapPlatform
from ..sim import Environment
from ..workloads import (
    ALL_WORKLOADS,
    CHESS_GAME,
    VIRUS_SCAN,
    generate_inflow,
    generate_mixed_inflow,
)
from .engine import Cell, run_cells

__all__ = ["run", "report", "cells", "merge"]

KB = 1024


def _standard_run(platform_factory, profile, seed=1):
    env = Environment()
    platform = platform_factory(env)
    plans = generate_inflow(profile, devices=5, requests_per_device=20, seed=seed)
    results = run_inflow_experiment(env, platform, plans, make_link("lan-wifi"))
    return platform, results


def _ablate_cache() -> Dict[str, float]:
    _, full = _standard_run(lambda e: RattrapPlatform(e), CHESS_GAME)

    def no_cache(env):
        p = RattrapPlatform(env)
        p.warehouse = None
        return p

    _, ablated = _standard_run(no_cache, CHESS_GAME)
    return {
        "upload_full_kb": sum(r.bytes_up for r in full) / KB,
        "upload_ablated_kb": sum(r.bytes_up for r in ablated) / KB,
        "xfer_full_s": phase_means(full).transfer,
        "xfer_ablated_s": phase_means(ablated).transfer,
    }


def _ablate_shared_io() -> Dict[str, float]:
    _, full = _standard_run(lambda e: RattrapPlatform(e), VIRUS_SCAN)

    def exclusive_io(env):
        p = RattrapPlatform(env)
        original_make = p.make_runtime

        def make(cid, request):
            runtime = original_make(cid, request)
            runtime.offload_io_device = lambda: p.server.disk
            return runtime

        p.make_runtime = make
        p.dispatcher.runtime_factory = make
        return p

    _, ablated = _standard_run(exclusive_io, VIRUS_SCAN)
    return {
        "exec_full_s": phase_means(full).execution,
        "exec_ablated_s": phase_means(ablated).execution,
    }


def _ablate_dedup() -> Dict[str, float]:
    """Content-addressed staging: N VirusScan clones share one copy of
    the signature database in the Sharing Offloading I/O layer."""

    def measure(shared_digest: bool):
        env = Environment()
        platform = RattrapPlatform(env)
        plans = generate_inflow(
            VIRUS_SCAN, devices=5, requests_per_device=20, seed=1
        )
        # Requests inherit VIRUS_SCAN.payload_key automatically; the
        # ablated arm strips the digests to force exclusive staging.
        if not shared_digest:
            for plan in plans:
                plan.request.payload_digest = None
        run_inflow_experiment(env, platform, plans, make_link("lan-wifi"))
        return platform.shared_layer.offload_io

    with_dedup = measure(True)
    without = measure(False)
    return {
        "written_dedup_kb": (
            with_dedup.total_staged - with_dedup.dedup_bytes_saved
        ) / KB,
        "written_exclusive_kb": (
            without.total_staged - without.dedup_bytes_saved
        ) / KB,
        "dedup_hits": float(with_dedup.dedup_hits),
        "dedup_saved_kb": with_dedup.dedup_bytes_saved / KB,
    }


def _ablate_dispatch() -> Dict[str, float]:
    per_device, _ = _standard_run(
        lambda e: RattrapPlatform(e, dispatch_policy="per-device"), CHESS_GAME
    )
    affinity, _ = _standard_run(
        lambda e: RattrapPlatform(e, dispatch_policy="app-affinity"), CHESS_GAME
    )
    return {
        "containers_per_device": float(len(per_device.db)),
        "containers_affinity": float(len(affinity.db)),
        "memory_per_device_mb": per_device.db.total_memory_mb(),
        "memory_affinity_mb": affinity.db.total_memory_mb(),
    }


def _ablate_priority() -> Dict[str, float]:
    def run(weights):
        env = Environment()
        platform = RattrapPlatform(env)
        platform.priority_weights = weights
        platform.server.cpu.cores = 2
        platform.server.cpu.utilization.capacity = 2
        plans = generate_mixed_inflow(
            ALL_WORKLOADS, devices=8, requests_per_device=6, think_time_s=2.0, seed=4
        )
        results = run_inflow_experiment(env, platform, plans, make_link("lan-wifi"))
        chess = [r for r in results if r.request.app_id == "chess"]
        return sum(r.phase(Phase.EXECUTION) for r in chess) / len(chess)

    return {"chess_exec_fair_s": run({}), "chess_exec_weighted_s": run({"chess": 8.0})}


#: ablation name -> measurement function, in report order
ABLATIONS = {
    "no-cache": _ablate_cache,
    "exclusive-io": _ablate_shared_io,
    "no-dedup": _ablate_dedup,
    "app-affinity": _ablate_dispatch,
    "priority": _ablate_priority,
}


def cells() -> List[Cell]:
    """One cell per ablated mechanism."""
    return [
        Cell(experiment="ablations", key=(name,), fn=fn)
        for name, fn in ABLATIONS.items()
    ]


def merge(cell_list: List[Cell], values: List[Any]) -> Dict[str, Dict[str, float]]:
    """Reassemble data[ablation name] = measurements."""
    return {cell.key[0]: value for cell, value in zip(cell_list, values)}


def run(jobs: int = 0) -> Dict[str, Dict[str, float]]:
    """All four ablations."""
    cs = cells()
    return merge(cs, run_cells(cs, jobs=jobs))


def report(data: Dict[str, Dict[str, float]]) -> str:
    """Render the ablation summary table."""
    cache = data["no-cache"]
    io = data["exclusive-io"]
    dedup = data["no-dedup"]
    dispatch = data["app-affinity"]
    priority = data["priority"]
    rows = [
        [
            "code cache (ChessGame upload)",
            f"{cache['upload_full_kb']:.0f} KB",
            f"{cache['upload_ablated_kb']:.0f} KB",
            f"{cache['upload_ablated_kb'] / cache['upload_full_kb']:.2f}x",
        ],
        [
            "sharing offload I/O (VirusScan exec)",
            f"{io['exec_full_s']:.2f} s",
            f"{io['exec_ablated_s']:.2f} s",
            f"{io['exec_ablated_s'] / io['exec_full_s']:.2f}x",
        ],
        [
            f"content-addressed staging (tmpfs writes, "
            f"{dedup['dedup_hits']:.0f} hits)",
            f"{dedup['written_dedup_kb']:.0f} KB",
            f"{dedup['written_exclusive_kb']:.0f} KB",
            f"{dedup['written_exclusive_kb'] / dedup['written_dedup_kb']:.2f}x",
        ],
        [
            "app-affinity dispatch (runtime memory)",
            f"{dispatch['memory_affinity_mb']:.0f} MB",
            f"{dispatch['memory_per_device_mb']:.0f} MB",
            f"{dispatch['memory_per_device_mb'] / dispatch['memory_affinity_mb']:.1f}x",
        ],
        [
            "scheduler priority (chess exec, saturated)",
            f"{priority['chess_exec_weighted_s']:.2f} s",
            f"{priority['chess_exec_fair_s']:.2f} s",
            f"{priority['chess_exec_fair_s'] / priority['chess_exec_weighted_s']:.2f}x",
        ],
    ]
    return render_table(
        ["mechanism", "with", "without", "cost of removal"],
        rows,
        title="Ablations — each Rattrap mechanism in isolation",
    )


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
