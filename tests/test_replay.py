"""The closed-loop client's per-request pipeline: decide → submit
(racing a budget) → retry → local fallback or shed, composed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Fault, FaultInjector, FaultPlan
from repro.network import make_link
from repro.offload import (
    MobileDevice,
    OffloadDecider,
    OffloadRequest,
    PartitionConfig,
    RetryPolicy,
    StaticDecider,
    replay,
)
from repro.platform import ClusterPlatform, RattrapPlatform
from repro.platform.qos import QoSBudgetBook
from repro.sim import Environment
from repro.workloads import CHESS_GAME, LINPACK, generate_inflow
from repro.workloads.generator import ArrivalPlan


def _fleet(n, scenario="lan-wifi"):
    return {
        f"device-{i}": MobileDevice(f"device-{i}", make_link(scenario))
        for i in range(n)
    }


def test_local_run_scales_with_work_scale():
    env = Environment()
    platform = RattrapPlatform(env)
    request = OffloadRequest(0, "device-0", CHESS_GAME.name, CHESS_GAME,
                             work_scale=2.0)
    devices = _fleet(1)
    [result] = env.run(until=env.process(replay(
        env, platform, [ArrivalPlan(0.0, "device-0", request)], devices,
        decider=StaticDecider("local"),
    )))
    device = devices["device-0"]
    assert result.executed_locally
    assert result.response_time == pytest.approx(2.0 * CHESS_GAME.local_time_s)
    assert result.response_time == pytest.approx(result.local_time)
    assert device.energy_used_j == pytest.approx(
        2.0 * CHESS_GAME.local_time_s * device.power.cpu_active_watts
    )


def test_decider_refuses_target_without_client_estimates():
    env = Environment()
    cluster = ClusterPlatform(env, servers=2)
    plans = generate_inflow(CHESS_GAME, devices=2, requests_per_device=2, seed=0)
    with pytest.raises(ValueError, match="expected_preparation_s"):
        env.run(until=env.process(replay(
            env, cluster, plans, _fleet(2), decider=OffloadDecider()
        )))
    # Refused before anything was submitted.
    assert cluster.results == []
    assert sum(cluster.node_loads()) == 0
    # A decider that reads no platform state still drives a cluster.
    env = Environment()
    cluster = ClusterPlatform(env, servers=2)
    results = env.run(until=env.process(replay(
        env, cluster, plans, _fleet(2), decider=StaticDecider("offload")
    )))
    assert len(results) == len(plans)


def _composed_run(seed, crash_times, outage, blackout, deadline_s, attempts,
                  adaptive, book_budget_s, work_scale):
    env = Environment()
    platform = RattrapPlatform(env)
    faults = [Fault("runtime-crash", at_s=t) for t in crash_times]
    if outage is not None:
        faults.append(Fault("node-outage", at_s=outage[0], duration_s=outage[1]))
    if blackout is not None:
        faults.append(Fault("link-blackout", at_s=blackout[0],
                            duration_s=blackout[1], device_id="device-0"))
    FaultInjector(env, FaultPlan(faults, seed=seed)).attach(platform)
    plans = []
    devices = {}
    for d, (profile, scenario) in enumerate(
        ((CHESS_GAME, "lan-wifi"), (CHESS_GAME, "3g"), (LINPACK, "4g"))
    ):
        device_id = f"device-{d}"
        devices[device_id] = MobileDevice(device_id, make_link(scenario))
        for seq in range(2):
            request = OffloadRequest(len(plans), device_id, profile.name, profile,
                                     seq_on_device=seq, work_scale=work_scale)
            gap_s = 0.5 * d if seq == 0 else 2.0
            plans.append(ArrivalPlan(0.0, device_id, request, gap_s=gap_s))
    if adaptive:
        book = QoSBudgetBook(default_budget_s=book_budget_s)
        decider = OffloadDecider(
            PartitionConfig(enforce_budget=True, shed_over_budget=True),
            budgets=book,
        )
    else:
        decider = StaticDecider("offload", PartitionConfig(enforce_budget=True))
    results = env.run(until=env.process(replay(
        env, platform, plans, devices, decider=decider, deadline_s=deadline_s,
        retry=RetryPolicy(max_attempts=attempts), seed=seed,
    )))
    return plans, devices, results


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    crash_times=st.lists(st.floats(0.5, 20.0), max_size=3),
    outage=st.none() | st.tuples(st.floats(0.0, 15.0), st.floats(0.5, 10.0)),
    blackout=st.none() | st.tuples(st.floats(0.0, 15.0), st.floats(0.5, 10.0)),
    deadline_s=st.none() | st.floats(2.0, 30.0),
    attempts=st.integers(1, 4),
    adaptive=st.booleans(),
    book_budget_s=st.floats(1.0, 30.0),
    work_scale=st.floats(0.5, 2.0),
)
def test_retry_deadline_and_decider_compose(
    seed, crash_times, outage, blackout, deadline_s, attempts, adaptive,
    book_budget_s, work_scale,
):
    args = (seed, crash_times, outage, blackout, deadline_s, attempts,
            adaptive, book_budget_s, work_scale)
    plans, devices, results = _composed_run(*args)
    # Every plan yields exactly one result.
    assert sorted(r.request.request_id for r in results) == sorted(
        p.request.request_id for p in plans
    )
    # Each result took exactly one way out, and the devices agree.
    offloaded = [r for r in results if r.executed_on and not r.blocked]
    local = [r for r in results if r.executed_locally]
    shed = [r for r in results if r.shed]
    blocked = [r for r in results if r.blocked]
    assert len(offloaded) + len(local) + len(shed) + len(blocked) == len(plans)
    assert sum(d.offloaded_requests for d in devices.values()) == len(offloaded)
    assert sum(d.local_executions for d in devices.values()) == len(local)
    # An aborted offload costs at most its budget plus the local run.
    budget_s = deadline_s
    if budget_s is None:
        budget_s = book_budget_s if adaptive else None
    for r in results:
        assert 1 <= r.attempts <= attempts
        if r.deadline_aborted:
            assert budget_s is not None and r.executed_locally
            assert r.response_time <= budget_s + r.local_time + 1e-9
    # The same seed replays byte-identically.
    _, _, again = _composed_run(*args)

    def fingerprint(batch):
        return [(repr(r), r.timeline.as_dict()) for r in batch]

    assert fingerprint(again) == fingerprint(results)
