#!/usr/bin/env python
"""When is offloading worth it?  Decision analysis across networks.

Asks the offload decider's cost model for the predicted speedup of
every workload on every network scenario, against real platform state:
a cold VM cloud, a Rattrap whose App Warehouse holds the code but whose
container for this device is cold, and the same Rattrap once warm —
showing how the cloud platform's startup time changes the offloading
break-even point (§III-B's offloading-failure analysis).  Every
one-time cost is charged to the request at hand (``amortize_requests=1``).

Run:  python examples/offload_decision.py
"""

from repro.analysis import render_table
from repro.network import make_link, scenario_names
from repro.offload import MobileDevice, OffloadDecider, OffloadRequest, PartitionConfig
from repro.platform import RattrapPlatform, VMCloudPlatform
from repro.sim import Environment
from repro.workloads import ALL_WORKLOADS

DECIDER = OffloadDecider(PartitionConfig(amortize_requests=1))


def predicted_speedup(platform, device: MobileDevice, profile) -> float:
    """Local latency over the predicted offload latency."""
    request = OffloadRequest(0, device.device_id, profile.name, profile)
    local = DECIDER.estimate_local(request, device)
    offload = DECIDER.estimate_offload(request, device, platform)
    return local.latency_s / offload.latency_s


def serve_one(env: Environment, platform, device_id: str, profile, link) -> None:
    """Serve one request, leaving its container warm and its code stored."""
    request = OffloadRequest(0, device_id, profile.name, profile)
    env.run(until=platform.submit(request, link))


def main() -> None:
    for profile in ALL_WORKLOADS:
        rows = []
        for scenario in scenario_names():
            device = MobileDevice("device-0", make_link(scenario))
            cold_vm = predicted_speedup(VMCloudPlatform(Environment()), device, profile)
            env = Environment()
            rattrap = RattrapPlatform(env)
            # Another device ran the app: the App Warehouse has the code.
            serve_one(env, rattrap, "device-1", profile, make_link(scenario))
            cold_rt = predicted_speedup(rattrap, device, profile)
            serve_one(env, rattrap, device.device_id, profile, device.link)
            warm = predicted_speedup(rattrap, device, profile)
            rows.append(
                [
                    scenario,
                    cold_vm,
                    "offload" if cold_vm > 1 else "LOCAL",
                    cold_rt,
                    "offload" if cold_rt > 1 else "LOCAL",
                    warm,
                ]
            )
        print(
            render_table(
                [
                    "scenario",
                    "cold VM x",
                    "decision",
                    "cold Rattrap x",
                    "decision",
                    "warm x",
                ],
                rows,
                title=f"{profile.name} (local execution {profile.local_time_s:.0f} s)",
            )
        )
        print()
    print(
        "Reading: a cold VM start makes interactive workloads (ChessGame) a\n"
        "guaranteed offloading failure on every network, while Rattrap's\n"
        "sub-2 s start keeps offloading profitable — the paper's core claim."
    )


if __name__ == "__main__":
    main()
