"""Retry-policy and retrying-client tests: backoff determinism, the
retryable-failure taxonomy, crash recovery, and local fallback after
exhaustion."""

import pytest

from repro.faults import (
    CodeUploadAborted,
    FaultPlan,
    FaultInjector,
    LinkBlackout,
    NodeDown,
    RuntimeCrashed,
)
from repro.hostos import OutOfMemoryError
from repro.network import make_link
from repro.offload import (
    MobileDevice,
    RetryPolicy,
    is_retryable,
    replay,
)
from repro.offload.request import OffloadRequest
from repro.platform import RattrapPlatform
from repro.runtime.base import RuntimeState
from repro.sim import Environment, Interrupt
from repro.sim.rng import RandomStreams
from repro.workloads import CHESS_GAME, generate_inflow


# ---------------------------------------------------------------- the policy
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_delay_s=0.1, base_delay_s=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy().delay_s(0)


def test_backoff_doubles_then_caps_without_jitter():
    policy = RetryPolicy(jitter=0.0)
    delays = [policy.delay_s(n) for n in range(1, 7)]
    assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]


def test_backoff_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(jitter=0.1)

    def schedule(seed):
        rng = RandomStreams(seed).get("client.retry")
        return [policy.delay_s(n, rng) for n in range(1, 6)]

    # Same seed, same exact schedule — chaos runs are replayable.
    assert schedule(7) == schedule(7)
    # A different seed jitters differently.
    assert schedule(7) != schedule(8)
    # Jitter stays within its band around the deterministic backoff.
    for jittered, base in zip(schedule(7), [0.5, 1.0, 2.0, 4.0, 8.0]):
        assert base * 0.9 <= jittered <= base * 1.1


def test_is_retryable_taxonomy():
    # Exactly the injected-fault taxonomy retries, bare or wrapped in
    # the Interrupt that severed an in-flight request.
    assert is_retryable(RuntimeCrashed("cac-0", "injected"))
    assert is_retryable(NodeDown("rattrap", "outage"))
    assert is_retryable(LinkBlackout("device-0"))
    assert is_retryable(CodeUploadAborted("chess"))
    assert is_retryable(Interrupt(RuntimeCrashed("cac-0", "injected")))
    # Everything else still fails loudly.
    assert not is_retryable(Interrupt("client disconnected"))
    assert not is_retryable(ValueError("model bug"))
    assert not is_retryable(OutOfMemoryError("16384 MB exhausted"))


# ------------------------------------------------------------- the client
def test_retry_client_recovers_from_runtime_crash():
    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(
        CHESS_GAME, devices=1, requests_per_device=3, think_time_s=1.0, seed=0
    )
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}

    def killer(env):
        yield env.timeout(3.0)  # first request mid-execution
        [record] = [
            r
            for r in platform.db.all_records()
            if r.runtime.state is RuntimeState.READY
        ]
        platform.crash_runtime(record.cid)

    env.process(killer(env))
    proc = env.process(
        replay(env, platform, plans, devices, retry=RetryPolicy(), seed=0)
    )
    results = env.run(until=proc)
    assert len(results) == 3
    # Nothing fell back to the handset: the re-boot served the retry.
    assert not any(r.executed_locally for r in results)
    assert results[0].attempts == 2
    # Honest timing: the failed attempt and backoff count against the
    # request, so it started at submission, not at the retry.
    assert results[0].started_at == pytest.approx(plans[0].gap_s)
    assert results[0].finished_at > 3.0
    assert platform.scheduler.active_requests == 0


def test_retry_exhaustion_falls_back_to_local():
    env = Environment()
    platform = RattrapPlatform(env)
    platform.fail_node("permanent outage")
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    policy = RetryPolicy(max_attempts=3, jitter=0.0)
    proc = env.process(
        replay(env, platform, plans, devices, retry=policy, seed=0)
    )
    [result] = env.run(until=proc)
    # The user still got an answer — locally, after burning every attempt.
    assert result.executed_locally
    assert result.attempts == 3
    assert devices["device-0"].local_executions == 1
    # Two backoffs (0.5 s + 1.0 s) plus the local run are in the timing.
    expected = plans[0].gap_s + 0.5 + 1.0 + CHESS_GAME.local_time_s
    assert result.finished_at == pytest.approx(expected)


def test_retry_client_skips_cloud_during_blackout():
    env = Environment()
    platform = RattrapPlatform(env)
    # Device dark from before its first request until after the policy
    # would have exhausted its attempts: no submission ever leaves.
    plan = FaultPlan.link_blackout("device-0", at_s=0.0, duration_s=60.0)
    FaultInjector(env, plan).attach(platform)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    policy = RetryPolicy(max_attempts=2, jitter=0.0)
    proc = env.process(
        replay(env, platform, plans, devices, retry=policy, seed=0)
    )
    [result] = env.run(until=proc)
    assert result.executed_locally
    assert result.attempts == 2
    # The cloud never saw the request — no boot was even attempted.
    assert platform.dispatcher.cold_boots == 0
    assert len(platform.results) == 0


class _BuggyPlatform:
    """Stub platform whose every request dies with a non-fault bug."""

    def __init__(self, env):
        self.env = env

    def submit(self, request, link):
        """Return a process that fails with a plain ValueError."""

        def boom(env):
            yield env.timeout(0.01)
            raise ValueError("model bug")

        return self.env.process(boom(self.env))


def test_retry_does_not_mask_real_bugs():
    env = Environment()
    platform = _BuggyPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    proc = env.process(
        replay(env, platform, plans, devices, retry=RetryPolicy(), seed=0)
    )
    proc.defused = True
    env.run()
    assert isinstance(proc.exception, ValueError)


def test_result_attempts_defaults_to_one():
    env = Environment()
    platform = RattrapPlatform(env)
    r = env.run(
        until=platform.submit(
            OffloadRequest(0, "d0", "chess", CHESS_GAME), make_link("lan-wifi")
        )
    )
    assert r.attempts == 1
