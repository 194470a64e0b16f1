"""Grand integration: every subsystem in one scenario.

A two-node Rattrap cluster with QoS rebalancing, keepalive connections,
scheduler priorities and idle reaping serves a day-scale mixed-app
trace from a population of devices — and every global invariant holds
at the end.  This is the whole-repository smoke test.
"""

import numpy as np
import pytest

from repro.network import make_link
from repro.offload import MobileDevice, PowerModel
from repro.offload.client import replay_inflow
from repro.platform import ClusterPlatform, MigrationManager, QoSController
from repro.sim import Environment
from repro.traces import LiveLabConfig, generate_livelab_trace, trace_to_plans
from repro.workloads import ALL_WORKLOADS, get_profile


@pytest.fixture(scope="module")
def grand_run():
    env = Environment()
    cluster = ClusterPlatform(env, servers=2, policy="device-sticky")
    for node in cluster.nodes:
        node.keepalive_s = 120.0
        node.priority_weights = {"chess": 4.0}
        node.start_idle_reaper(idle_timeout_s=180.0, check_interval_s=30.0)
    controller = QoSController(
        cluster, MigrationManager(), check_interval_s=60.0, imbalance_threshold=3
    )
    controller.start()

    trace = generate_livelab_trace(
        LiveLabConfig(users=6, days=0.5, sessions_per_day=8),
        apps=tuple(w.name for w in ALL_WORKLOADS),
        seed=21,
    )
    power = PowerModel()
    all_results = []
    user_procs = []
    devices = {}
    for i, user in enumerate(trace.users()):
        link = make_link("lan-wifi", rng=np.random.default_rng(500 + i))
        devices[user] = MobileDevice(user, link, power_model=power)
    for profile in ALL_WORKLOADS:
        plans = trace_to_plans(trace, profile, seed=33)
        if not plans:
            continue
        for user in {p.device_id for p in plans}:
            user_plans = [p for p in plans if p.device_id == user]
            user_procs.append(
                env.process(
                    replay_inflow(env, cluster, user_plans, devices[user].link,
                                  devices=devices)
                )
            )

    def collect(env):
        done = yield env.all_of(user_procs)
        out = []
        for batch in done.values():
            out.extend(batch)
        return out

    all_results = env.run(until=env.process(collect(env)))
    env.run(until=env.now + 300.0)  # let reapers and controller settle
    return env, cluster, controller, devices, all_results, trace


def test_every_trace_access_served(grand_run):
    env, cluster, controller, devices, results, trace = grand_run
    assert len(results) == len(trace)
    assert all(not r.blocked for r in results)


def test_all_apps_cached_once_per_node_touched(grand_run):
    env, cluster, controller, devices, results, trace = grand_run
    for node in cluster.nodes:
        if not node.results:
            continue
        apps_here = {r.request.app_id for r in node.results}
        for app in apps_here:
            assert node.warehouse.has_code(app)
    # Per node, at most one cold upload per app it served.
    for node in cluster.nodes:
        cold = {}
        for r in node.results:
            if not r.code_cache_hit:
                cold[r.request.app_id] = cold.get(r.request.app_id, 0) + 1
        assert all(v == 1 for v in cold.values()), cold


def test_global_accounting_settles(grand_run):
    env, cluster, controller, devices, results, trace = grand_run
    for node in cluster.nodes:
        assert node.scheduler.active_requests == 0
        assert node.shared_layer.offload_io.resident_bytes == 0
        assert node.server.cpu.active_jobs == 0
        assert all(rec.active_requests == 0 for rec in node.db.all_records())
    # Reaping bounded resident memory: far less than one runtime per
    # (user, app) pair.
    resident = sum(n.db.total_memory_mb() for n in cluster.nodes)
    assert resident <= 6 * 96.0


def test_devices_spent_energy_and_survive(grand_run):
    env, cluster, controller, devices, results, trace = grand_run
    for device in devices.values():
        assert device.offloaded_requests > 0
        assert device.energy_used_j > 0
        assert device.battery_remaining_fraction > 0.9


def test_speedups_dominate_local_execution(grand_run):
    env, cluster, controller, devices, results, trace = grand_run
    wins = sum(1 for r in results if not r.offloading_failure)
    assert wins / len(results) > 0.85


def test_tracer_saw_the_whole_story(grand_run):
    """The whole run went through the production event loop."""
    env, cluster, controller, devices, results, trace = grand_run
    assert env.event_count > 2_000
    assert env._timeout_pool  # the loop recycled spent Timeouts
    # No undefused failures slipped through (the run would have raised).
    assert env.peek() == float("inf") or env.peek() > env.now
