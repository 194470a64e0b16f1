"""Chaos experiment (extension) — recovery under injected faults.

The paper evaluates a healthy server; this experiment measures what
the robustness machinery (dispatcher re-boot, cluster failover, client
retry) buys when things break.  A three-node Rattrap cluster serves
the standard closed-loop inflow through the retrying client while a
seeded :class:`~repro.faults.FaultPlan` injects one fault class per
scenario, and the report grades each class on:

- **availability** — the fraction of requests the *cloud* answered
  (local fallbacks after retry exhaustion count against it);
- **p99 latency** — the end-to-end tail including failed attempts and
  backoff (honest ``started_at``);
- **retry amplification** — mean submission attempts per request.

Every scenario is fully seeded (inflow, victim picks, backoff jitter),
so the chaos numbers are regression-guarded like any other experiment.
This experiment is intentionally *not* part of the default suite — the
default reports stay byte-identical to a fault-free tree — and runs
via ``rattrap-experiments chaos`` or ``make chaos``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis import render_table
from ..faults import FaultInjector, FaultPlan
from ..network import make_link
from ..obs import Observability
from ..offload import MobileDevice, RetryPolicy, replay
from ..platform import ClusterPlatform
from ..sim import Environment
from ..workloads import CHESS_GAME, generate_inflow

__all__ = ["run", "report", "cells", "merge", "SCENARIOS"]

#: one scenario per fault class, plus the fault-free control
SCENARIOS = ("baseline", "runtime-crashes", "node-outage", "link-blackout")

DEVICES = 6
REQUESTS_PER_DEVICE = 10
SERVERS = 3


def _plan_for(scenario: str, seed: int) -> FaultPlan:
    """The declarative fault plan behind one scenario."""
    if scenario == "baseline":
        return FaultPlan(seed=seed)
    if scenario == "runtime-crashes":
        return FaultPlan.runtime_crashes(times=(6.0, 14.0, 25.0), seed=seed)
    if scenario == "node-outage":
        return FaultPlan.single_node_outage(node=0, at_s=10.0, duration_s=20.0, seed=seed)
    if scenario == "link-blackout":
        return FaultPlan.link_blackout("device-1", at_s=8.0, duration_s=6.0, seed=seed)
    raise ValueError(f"unknown scenario {scenario!r}; known: {SCENARIOS}")


def _p99(values: List[float]) -> float:
    """Nearest-rank 99th percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(0, -(-99 * len(ordered) // 100) - 1)  # ceil(0.99 n) - 1
    return ordered[rank]


def _chaos_cell(scenario: str, seed: int = 1) -> Dict[str, Any]:
    """One scenario run: cluster + injector + retry client, all seeded."""
    env = Environment()
    # Tracing on: the report grades recovery, and the span/fault
    # counters show *where* the injected failures bit.
    obs = Observability(env, tracing=True, metrics=True)
    cluster = ClusterPlatform(
        env, servers=SERVERS, policy="device-sticky", breaker_reset_s=5.0
    )
    cluster.start_health_monitor(check_interval_s=1.0)
    injector = FaultInjector(env, _plan_for(scenario, seed)).attach(cluster)
    plans = generate_inflow(
        CHESS_GAME,
        devices=DEVICES,
        requests_per_device=REQUESTS_PER_DEVICE,
        think_time_s=3.0,
        seed=seed,
    )
    link = make_link("lan-wifi")
    devices = {
        f"device-{i}": MobileDevice(f"device-{i}", link) for i in range(DEVICES)
    }
    proc = env.process(
        replay(env, cluster, plans, devices, retry=RetryPolicy(), seed=seed)
    )
    results = env.run(until=proc)
    cloud_served = [r for r in results if not r.blocked and not r.executed_locally]
    local = [r for r in results if r.executed_locally]
    return {
        "requests": len(results),
        "cloud_served": len(cloud_served),
        "local_fallbacks": len(local),
        "availability": len(cloud_served) / len(results),
        "p99_s": _p99([r.response_time for r in results]),
        "mean_attempts": sum(r.attempts for r in results) / len(results),
        "faults_injected": len(injector.injected),
        "faults_skipped": injector.skipped,
        "failovers": cluster.failovers,
        "breaker_trips": sum(h.trips for h in cluster.health),
        "span_breakdown": obs.tracer.by_kind(),
        "retries": obs.metrics.counter("client.retries").value,
        "runtime_crashes": obs.metrics.counter("runtime.crashes").value,
    }


def cells(seed: int = 1) -> list:
    """One cell per fault scenario."""
    from .engine import Cell

    return [
        Cell(
            experiment="chaos",
            key=(scenario,),
            fn=_chaos_cell,
            kwargs={"scenario": scenario, "seed": seed},
        )
        for scenario in SCENARIOS
    ]


def merge(cell_list: list, values: List[Any]) -> Dict[str, Dict[str, Any]]:
    """Reassemble scenario -> metrics in scenario order."""
    return {cell.key[0]: value for cell, value in zip(cell_list, values)}


def run(seed: int = 1, jobs: int = 0) -> Dict[str, Dict[str, Any]]:
    """Run every chaos scenario (optionally fanned out over processes)."""
    from .engine import run_cells

    cs = cells(seed=seed)
    return merge(cs, run_cells(cs, jobs=jobs))


def report(data: Dict[str, Dict[str, Any]]) -> str:
    """Render the per-fault-class recovery scorecard."""
    rows = []
    for scenario, m in data.items():
        rows.append(
            [
                scenario,
                m["requests"],
                m["cloud_served"],
                m["local_fallbacks"],
                f"{100.0 * m['availability']:.1f}",
                f"{m['p99_s']:.3f}",
                f"{m['mean_attempts']:.2f}",
                m["faults_injected"],
                m["failovers"],
            ]
        )
    table = render_table(
        [
            "scenario",
            "requests",
            "cloud",
            "local",
            "avail (%)",
            "p99 (s)",
            "attempts",
            "faults",
            "failovers",
        ],
        rows,
        title="Chaos: recovery per fault class (3-node cluster, retry client)",
    )
    outage = data.get("node-outage")
    note = ""
    if outage is not None:
        verdict = "PASS" if outage["availability"] >= 0.99 else "FAIL"
        note = (
            f"\n\nsingle-node outage availability: "
            f"{100.0 * outage['availability']:.1f}% (target >= 99%) [{verdict}]"
        )
    return table + "\n\n" + _span_report(data) + note


def _span_report(data: Dict[str, Dict[str, Any]]) -> str:
    """Where the sim time went per scenario (tracing breakdown)."""

    def total(m: Dict[str, Any], kind: str) -> float:
        return m["span_breakdown"].get(kind, {}).get("total_s", 0.0)

    rows = []
    for scenario, m in data.items():
        rows.append(
            [
                scenario,
                f"{total(m, 'queued'):.1f}",
                f"{total(m, 'boot'):.1f}",
                f"{total(m, 'upload'):.1f}",
                f"{total(m, 'execute'):.1f}",
                f"{int(m['retries'])}",
                f"{int(m['runtime_crashes'])}",
            ]
        )
    return render_table(
        [
            "scenario",
            "queued (s)",
            "boot (s)",
            "upload (s)",
            "execute (s)",
            "retries",
            "crashes",
        ],
        rows,
        title="Chaos: span totals per scenario (sim seconds)",
    )


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
