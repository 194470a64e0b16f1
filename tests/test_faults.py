"""Fault-injection subsystem tests: plans, the injector, and the
recovery invariants (every crash releases its scheduler slot and
memory; dead boot records are evicted; outages refuse work cleanly)."""

import pytest

from repro.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    NodeDown,
    RuntimeCrashed,
)
from repro.network import make_link
from repro.offload import MobileDevice, OffloadRequest, RetryPolicy, replay
from repro.platform import RattrapPlatform
from repro.runtime.base import RuntimeState
from repro.sim import Environment, Interrupt
from repro.workloads import CHESS_GAME, generate_inflow


# ---------------------------------------------------------------- fault plans
def test_fault_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault("meteor-strike", at_s=1.0)
    with pytest.raises(ValueError, match="at_s"):
        Fault("runtime-crash", at_s=-1.0)
    with pytest.raises(ValueError, match="duration_s"):
        Fault("node-outage", at_s=1.0, duration_s=-1.0)
    with pytest.raises(ValueError, match="node"):
        Fault("runtime-crash", at_s=1.0, node=-1)
    with pytest.raises(ValueError, match="positive duration"):
        Fault("link-blackout", at_s=1.0, duration_s=0.0)


def test_fault_plan_constructors():
    plan = FaultPlan.runtime_crashes(times=(1.0, 2.0), nodes=(0, 1), seed=7)
    assert len(plan) == 2
    assert plan.seed == 7
    assert [f.node for f in plan.faults] == [0, 1]
    outage = FaultPlan.single_node_outage(node=1, at_s=5.0, duration_s=3.0)
    assert outage.faults[0].kind == "node-outage"
    dark = FaultPlan.link_blackout(None, at_s=2.0, duration_s=1.0)
    assert dark.faults[0].device_id is None


def test_injector_rejects_out_of_range_node():
    env = Environment()
    platform = RattrapPlatform(env)
    plan = FaultPlan.runtime_crashes(times=(1.0,), nodes=(2,))
    with pytest.raises(ValueError, match="only 1 node"):
        FaultInjector(env, plan).attach(platform)


def test_injector_skips_when_nothing_to_crash():
    env = Environment()
    platform = RattrapPlatform(env)
    injector = FaultInjector(env, FaultPlan.runtime_crashes(times=(1.0,))).attach(
        platform
    )
    env.run()
    assert injector.skipped == 1
    assert injector.injected == []


def test_link_blackout_window_answers_client_probe():
    env = Environment()
    platform = RattrapPlatform(env)
    plan = FaultPlan.link_blackout("device-0", at_s=1.0, duration_s=2.0)
    injector = FaultInjector(env, plan).attach(platform)
    assert env.faults is injector
    env.run(until=env.timeout(1.5))
    assert injector.link_down("device-0")
    assert not injector.link_down("device-1")
    env.run(until=env.timeout(2.0))  # now 3.5 > blackout end at 3.0
    assert not injector.link_down("device-0")


def test_global_blackout_hits_every_device():
    env = Environment()
    platform = RattrapPlatform(env)
    plan = FaultPlan.link_blackout(None, at_s=0.5, duration_s=1.0)
    injector = FaultInjector(env, plan).attach(platform)
    env.run(until=env.timeout(1.0))
    assert injector.link_down("device-0")
    assert injector.link_down("anything-else")


# --------------------------------------------------------- crash invariants
def test_crash_ready_runtime_releases_memory():
    env = Environment()
    platform = RattrapPlatform(env)
    r = env.run(
        until=platform.submit(
            OffloadRequest(0, "d0", "chess", CHESS_GAME), make_link("lan-wifi")
        )
    )
    record = platform.db.get(r.executed_on)
    before = platform.server.memory.reserved_mb
    assert platform.crash_runtime(record.cid, reason="test")
    assert record.runtime.state is RuntimeState.CRASHED
    assert record.runtime.crash_reason == "test"
    assert platform.server.memory.reservation(record.cid) is None
    assert platform.server.memory.reserved_mb == pytest.approx(
        before - record.runtime.memory_mb
    )
    # Crashing a dead runtime is a no-op, never an error.
    assert not platform.crash_runtime(record.cid)
    assert not platform.crash_runtime("no-such-cid")


def test_crash_mid_request_releases_slot_and_memory():
    env = Environment()
    platform = RattrapPlatform(env)
    proc = platform.submit(
        OffloadRequest(0, "d0", "chess", CHESS_GAME), make_link("lan-wifi")
    )
    proc.defused = True
    victim = []

    def killer(env):
        yield env.timeout(3.0)  # boot done (1.75 s), request executing
        [record] = platform.db.all_records()
        victim.append(record)
        platform.crash_runtime(record.cid)

    env.process(killer(env))
    env.run()
    assert isinstance(proc.exception, Interrupt)
    assert isinstance(proc.exception.cause, RuntimeCrashed)
    assert platform.scheduler.active_requests == 0
    assert platform.server.memory.reservation(victim[0].cid) is None


def test_crash_during_boot_evicts_record_and_reboots():
    env = Environment()
    platform = RattrapPlatform(env)
    link = make_link("lan-wifi")
    p1 = platform.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link)
    p2 = platform.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link
    )
    dead = []

    def killer(env):
        yield env.timeout(0.5)  # container boot takes 1.75 s: still BOOTING
        [record] = platform.db.all_records()
        assert record.runtime.state is RuntimeState.BOOTING
        dead.append(record.cid)
        platform.crash_runtime(record.cid)

    env.process(killer(env))
    r1 = env.run(until=p1)
    r2 = env.run(until=p2)
    # Both the boot initiator and the piggybacked waiter recovered.
    assert not r1.blocked and not r2.blocked
    assert platform.dispatcher.cold_boots == 2
    # The dead record was evicted; only the replacement holds memory.
    assert not platform.db.exists(dead[0])
    assert platform.server.memory.reservation(dead[0]) is None
    assert len(platform.db) == 1
    assert platform.scheduler.active_requests == 0


def test_failed_node_refuses_work_until_restored():
    env = Environment()
    platform = RattrapPlatform(env)
    link = make_link("lan-wifi")
    r = env.run(
        until=platform.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link)
    )
    platform.fail_node("maintenance")
    # The live runtime died with its node, resources reclaimed.
    record = platform.db.get(r.executed_on)
    assert record.runtime.state is RuntimeState.CRASHED
    assert platform.server.memory.reservation(record.cid) is None
    # New submissions are refused while offline.
    p = platform.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link
    )
    p.defused = True
    env.run()
    assert isinstance(p.exception, NodeDown)
    # Restoration serves again (cold: the old runtime is gone).
    platform.restore_node()
    r2 = env.run(
        until=platform.submit(
            OffloadRequest(2, "d0", "chess", CHESS_GAME, seq_on_device=2), link
        )
    )
    assert not r2.blocked
    assert r2.executed_on != r.executed_on


def test_fail_node_is_idempotent():
    env = Environment()
    platform = RattrapPlatform(env)
    platform.fail_node()
    platform.fail_node()  # second call must not raise
    assert platform.offline
    platform.restore_node()
    assert not platform.offline


def test_injected_crashes_always_release_slots_and_memory():
    # The acceptance invariant: after a seeded crash campaign against a
    # live inflow, every crashed runtime's memory is back and no
    # scheduler slot leaks — while the retry client still serves
    # every request from the cloud.
    env = Environment()
    platform = RattrapPlatform(env)
    plan = FaultPlan.runtime_crashes(times=(4.0, 8.0, 12.0), seed=3)
    injector = FaultInjector(env, plan).attach(platform)
    plans = generate_inflow(
        CHESS_GAME, devices=4, requests_per_device=4, think_time_s=2.0, seed=3
    )
    devices = {
        f"device-{i}": MobileDevice(f"device-{i}", make_link("lan-wifi"))
        for i in range(4)
    }
    proc = env.process(
        replay(env, platform, plans, devices, retry=RetryPolicy(), seed=3)
    )
    results = env.run(until=proc)
    assert len(results) == 16
    assert injector.injected, "the campaign found no victim to crash"
    assert platform.scheduler.active_requests == 0
    crashed = [
        r
        for r in platform.db.all_records()
        if r.runtime.state is RuntimeState.CRASHED
    ]
    assert len(crashed) == len(injector.injected)
    for record in crashed:
        assert platform.server.memory.reservation(record.cid) is None
    live = [
        r for r in platform.db.all_records() if r.runtime.state is RuntimeState.READY
    ]
    assert platform.server.memory.reserved_mb == pytest.approx(
        sum(r.runtime.memory_mb for r in live)
    )


def test_injected_crash_campaign_is_deterministic():
    def campaign():
        env = Environment()
        platform = RattrapPlatform(env)
        plan = FaultPlan.runtime_crashes(times=(4.0, 8.0), seed=5)
        injector = FaultInjector(env, plan).attach(platform)
        plans = generate_inflow(
            CHESS_GAME, devices=3, requests_per_device=3, think_time_s=2.0, seed=5
        )
        devices = {
            f"device-{i}": MobileDevice(f"device-{i}", make_link("lan-wifi"))
            for i in range(3)
        }
        proc = env.process(
            replay(env, platform, plans, devices, retry=RetryPolicy(), seed=5)
        )
        results = env.run(until=proc)
        return (
            injector.injected,
            [(r.request.request_id, r.attempts, r.finished_at) for r in results],
        )

    assert campaign() == campaign()
