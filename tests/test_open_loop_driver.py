"""The open-loop client against a reference copy of its earlier form.

:func:`~repro.offload.client.replay_inflow` is one process that sleeps
to each request's ``submitted_at`` and submits it.  The reference below
is the driver it replaced: one process per request, each sleeping
``time_s - 0`` from time zero, started per user in sorted user order.
Both must submit the same requests at the same instants in the same
order, and so produce identical results and battery charges.
"""

import numpy as np
import pytest

from repro.network import make_link
from repro.offload import MobileDevice, OffloadRequest, PowerModel, replay_inflow
from repro.platform import RattrapPlatform
from repro.sim import Environment
from repro.traces import LiveLabConfig, generate_livelab_trace, replay_trace, trace_to_plans
from repro.workloads import CHESS_GAME
from repro.workloads.generator import ArrivalPlan


def reference_replay_trace(env, platform, plans, links, idle_timeout_s, devices):
    """Process generator: the per-request open-loop client."""

    def fire(plan):
        delay = plan.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        result = yield platform.submit(plan.request, links[plan.device_id])
        if not result.blocked:
            devices[plan.device_id].account_offload(result)
        return (result,)

    def per_user(user_plans):
        done = yield env.all_of([env.process(fire(plan)) for plan in user_plans])
        return [r for batch in done.values() for r in batch]

    platform.start_idle_reaper(idle_timeout_s=idle_timeout_s)
    users = {}
    for plan in plans:
        users.setdefault(plan.device_id, []).append(plan)
    done = yield env.all_of(
        [env.process(per_user(users[user])) for user in sorted(users)]
    )
    results = [r for batch in done.values() for r in batch]
    results.sort(key=lambda r: r.request.request_id)
    return results


class RecordingTarget:
    """A platform that logs every submission's instant and request."""

    def __init__(self, platform):
        self.platform = platform
        self.submits = []

    def submit(self, request, link):
        self.submits.append((self.platform.env.now, request.request_id))
        return self.platform.submit(request, link)

    def __getattr__(self, name):
        return getattr(self.platform, name)


def _plan(rid, user, t, seq):
    request = OffloadRequest(rid, user, CHESS_GAME.name, CHESS_GAME,
                             submitted_at=t, seq_on_device=seq)
    return ArrivalPlan(time_s=t, device_id=user, request=request)


def handmade_plans():
    # u-b is listed first, but at a shared instant sorted user order
    # submits u-a first; u-b's 0.7 -> 2.85 step is not exact as a delay.
    return [
        _plan(0, "u-b", 0.7, 0),
        _plan(1, "u-b", 2.85, 1),
        _plan(2, "u-a", 2.85, 0),
        _plan(3, "u-a", 2.85, 1),
        _plan(4, "u-b", 40.0, 2),
        _plan(5, "u-a", 40.0, 2),
    ]


def trace_plans():
    trace = generate_livelab_trace(
        LiveLabConfig(users=3, sessions_per_day=4), apps=("chess",), seed=4
    )
    return trace_to_plans(trace, CHESS_GAME, seed=4)


def _run(plans, driver):
    env = Environment()
    target = RecordingTarget(RattrapPlatform(env))
    users = sorted({plan.device_id for plan in plans})
    links = {
        user: make_link("lan-wifi", rng=np.random.default_rng(i))
        for i, user in enumerate(users)
    }
    power = PowerModel()
    devices = {u: MobileDevice(u, links[u], power_model=power) for u in users}
    if driver == "reference":
        results = env.run(until=env.process(
            reference_replay_trace(env, target, plans, links, 60.0, devices)
        ))
    else:
        results = replay_trace(env, target, plans, links, idle_timeout_s=60.0,
                               devices=devices)
    fingerprint = [
        (r.request.request_id, r.started_at, r.finished_at, r.executed_on,
         r.code_cache_hit, r.bytes_up, r.bytes_down, r.blocked,
         r.timeline.as_dict())
        for r in results
    ]
    energy = {u: d.energy_used_j for u, d in devices.items()}
    return target.submits, fingerprint, energy, env.now


@pytest.mark.parametrize("make_plans", [handmade_plans, trace_plans])
def test_one_process_driver_matches_the_per_request_reference(make_plans):
    plans = make_plans()
    reference = _run(plans, "reference")
    assert _run(plans, "replay_inflow") == reference
    submits, fingerprint, energy, _ = reference
    assert len(submits) == len(fingerprint) == len(plans)
    assert all(e > 0 for e in energy.values())


def test_same_instant_and_inexact_delay_arrivals_land_exactly():
    assert 0.7 + (2.85 - 0.7) != 2.85
    submits, *_ = _run(handmade_plans(), "replay_inflow")
    assert submits == [
        (0.7, 0), (2.85, 2), (2.85, 3), (2.85, 1), (40.0, 5), (40.0, 4),
    ]


def test_replay_inflow_submits_late_arrivals_at_once_and_orders_results():
    env = Environment()
    platform = RattrapPlatform(env)
    link = make_link("lan-wifi")
    device = MobileDevice("d", link)
    requests = [
        OffloadRequest(1, "d", CHESS_GAME.name, CHESS_GAME, submitted_at=5.0),
        OffloadRequest(0, "d", CHESS_GAME.name, CHESS_GAME, submitted_at=2.0),
    ]
    results = env.run(until=env.process(replay_inflow(
        env, platform, ((r, link) for r in requests), devices={"d": device}
    )))
    assert [r.request.request_id for r in results] == [0, 1]
    # the second request's instant had passed: it went at 5.0, not 2.0
    assert [r.started_at for r in results] == [5.0, 5.0]
    assert device.energy_used_j > 0
