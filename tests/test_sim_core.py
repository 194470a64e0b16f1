"""Unit tests for the discrete-event simulation kernel (events, core, process)."""

import math

import pytest

from repro.sim import (
    Environment,
    Event,
    EventState,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_initial_time():
    assert Environment(initial_time=5.5).now == 5.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.25)
    env.run()
    assert env.now == 3.25


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    assert env.run(until=p) == "payload"


def test_run_until_time_stops_at_horizon():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    assert env.run(until=env.process(proc(env))) == 42


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == "done"


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_lifecycle_states():
    env = Environment()
    ev = env.event()
    assert ev.state is EventState.PENDING
    assert not ev.triggered
    ev.succeed("v")
    assert ev.state is EventState.TRIGGERED
    env.run()
    assert ev.state is EventState.PROCESSED
    assert ev.value == "v"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_pending_event_value_undefined():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_raises_in_waiting_process():
    env = Environment()

    def proc(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught:{exc}"

    ev = env.event()
    p = env.process(proc(env, ev))
    ev.fail(RuntimeError("boom"))
    assert env.run(until=p) == "caught:boom"


def test_unhandled_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    ev = env.event()
    ev.defused = True
    ev.fail(RuntimeError("quiet"))
    env.run()  # no raise


def test_callback_after_processing_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("late")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["late"]


def test_all_of_waits_for_every_child():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(until=env.process(proc(env))) == (3.0, ["a", "b"])


def test_any_of_fires_on_first_child():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(9, value="slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    assert env.run(until=env.process(proc(env))) == (1.0, ["fast"])


def test_all_of_empty_succeeds_immediately():
    env = Environment()

    def proc(env):
        res = yield env.all_of([])
        return res

    assert env.run(until=env.process(proc(env))) == {}


def test_condition_propagates_child_failure():
    env = Environment()

    def proc(env):
        bad = env.event()
        bad.fail(ValueError("child died"))
        try:
            yield env.all_of([bad, env.timeout(5)])
        except ValueError as exc:
            return str(exc)

    assert env.run(until=env.process(proc(env))) == "child died"


def test_mixing_environments_rejected():
    env1, env2 = Environment(), Environment()
    t = env2.timeout(1)
    with pytest.raises(SimulationError):
        env1.all_of([t])


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return {"answer": 42}

    p = env.process(proc(env))
    env.run()
    assert p.value == {"answer": 42}


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def waiter(env, p):
        try:
            yield p
        except KeyError:
            return "saw it"

    p = env.process(failing(env))
    w = env.process(waiter(env, p))
    assert env.run(until=w) == "saw it"


def test_process_chain_composes():
    env = Environment()

    def inner(env):
        yield env.timeout(2)
        return 10

    def outer(env):
        v = yield env.process(inner(env))
        yield env.timeout(1)
        return v + 1

    assert env.run(until=env.process(outer(env))) == 11
    assert env.now == 3.0


def test_interrupt_delivers_cause():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            return ("interrupted", exc.cause, env.now)

    def killer(env, victim):
        yield env.timeout(5)
        victim.interrupt("teardown")

    p = env.process(sleeper(env))
    env.process(killer(env, p))
    assert env.run(until=p) == ("interrupted", "teardown", 5.0)


def test_interrupt_detaches_from_target():
    env = Environment()
    resumed = []

    def sleeper(env):
        try:
            yield env.timeout(10)
            resumed.append("timeout fired into process")
        except Interrupt:
            yield env.timeout(1)  # keep living after interrupt
            return "survived"

    def killer(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    p = env.process(sleeper(env))
    env.process(killer(env, p))
    assert env.run(until=p) == "survived"
    env.run()
    assert resumed == []


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_uncaught_interrupt_fails_process():
    env = Environment()

    def sleeper(env):
        yield env.timeout(100)

    def killer(env, victim):
        yield env.timeout(1)
        victim.interrupt("die")

    p = env.process(sleeper(env))
    p.defused = True
    env.process(killer(env, p))
    env.run()
    assert isinstance(p.exception, Interrupt)


def test_yield_non_event_surfaces_error():
    env = Environment()

    def bad(env):
        try:
            yield 42  # type: ignore[misc]
        except SimulationError as exc:
            return f"error:{type(exc).__name__}"

    assert env.run(until=env.process(bad(env))).startswith("error:")


def test_is_alive_tracks_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_defer_runs_callable():
    env = Environment()
    hits = []
    env.defer(lambda: hits.append(env.now), delay=2.5)
    env.run()
    assert hits == [2.5]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == float("inf")


def test_run_until_horizon_includes_boundary_event():
    env = Environment()
    hits = []
    env.defer(lambda: hits.append("at"), delay=1.0)
    env.defer(lambda: hits.append("after"), delay=1.0 + 1e-9)
    env.run(until=1.0)
    # An event scheduled exactly at the horizon fires; the first event
    # strictly beyond it stays queued and peek() reports its time.
    assert hits == ["at"]
    assert env.now == 1.0
    assert env.peek() == 1.0 + 1e-9
    env.run()
    assert hits == ["at", "after"]


def test_defer_beyond_horizon_is_pending_not_lost():
    env = Environment()
    hits = []
    env.defer(lambda: hits.append(env.now), delay=5.0)
    env.run(until=2.0)
    assert hits == []
    assert env.now == 2.0
    assert env.peek() == 5.0
    env.run(until=5.0)
    assert hits == [5.0]
    assert env.peek() == float("inf")


def test_event_count_tracks_scheduled_events():
    env = Environment()
    base = env.event_count
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.event_count == base + 2


# ------------------------------------------------------------ timeout pool
def test_timeout_pool_recycles_and_reuses():
    env = Environment()

    def proc(env):
        for _ in range(3):
            yield env.timeout(1.0)

    env.run(until=env.process(proc(env)))
    assert env._timeout_pool
    recycled = env._timeout_pool[-1]
    assert env.timeout(0.5) is recycled


def test_timeout_pool_skips_events_still_referenced():
    env = Environment()
    held = env.timeout(1.0)  # the test's reference vetoes recycling
    env.run()
    assert held.processed
    assert held not in env._timeout_pool
    assert not env._timeout_pool


def test_pooled_timeout_resets_value_and_validates_delay():
    env = Environment()
    seen = []

    def proc(env):
        seen.append((yield env.timeout(1.0, value="payload")))

    env.run(until=env.process(proc(env)))
    assert seen == ["payload"]
    assert env._timeout_pool
    with pytest.raises(ValueError):
        env.timeout(-1.0)
    fresh = env.timeout(0.0)
    assert fresh.value is None  # no stale value leaks out of the pool


def test_many_processes_scale():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(i * 0.001)
        done.append(i)

    for i in range(1000):
        env.process(proc(env, i))
    env.run()
    assert len(done) == 1000
    assert done == sorted(done)


# -- absolute-time schedule and waiter hand-over --------------------------------


def test_timeout_at_lands_exactly_on_when():
    now, when = 1.171, 3.376
    assert now + (when - now) != when  # a relative delay would miss it
    env = Environment()
    env.run(until=now)
    fired = []
    env.timeout_at(when).add_callback(lambda ev: fired.append(ev.env.now))
    env.run()
    assert fired == [when]


def test_timeout_at_rejects_the_past_and_untaken_slots():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.timeout_at(1.0)
    with pytest.raises(ValueError):
        env.timeout_at(3.0, order=env.event_count)


def test_timeout_at_order_reuses_an_earlier_slot():
    env = Environment()
    order = []
    slot = env.event_count
    env.timeout(5.0).add_callback(lambda _ev: order.append("holder"))
    env.timeout(1.0).add_callback(lambda _ev: order.append("later"))
    # Placed as if scheduled before "later", although created after it.
    env.timeout_at(1.0, order=slot).add_callback(lambda _ev: order.append("slot"))
    env.run()
    assert order == ["slot", "later", "holder"]


def test_defer_at_lands_exactly_on_when_and_rejects_the_past():
    now, when = 0.7, 2.85
    assert now + (when - now) != when  # a relative delay would miss it
    env = Environment()
    env.run(until=now)
    hits = []
    env.defer_at(lambda: hits.append(env.now), when)
    env.run()
    assert hits == [when]
    with pytest.raises(ValueError, match="in the past"):
        env.defer_at(lambda: None, 1.0)


def test_hand_over_moves_waiters_and_resumes_once():
    env = Environment()
    first, second = env.event(), env.event()
    seen = []

    def waiter(env):
        seen.append((yield first))

    proc = env.process(waiter(env))
    env.run(until=0.0)
    assert proc.target is first
    first.hand_over(second)
    assert proc.target is second
    first.succeed("stale")
    env.run()
    assert seen == [] and proc.is_alive  # the old event no longer wakes it
    second.succeed("fresh")
    env.run()
    assert seen == ["fresh"] and not proc.is_alive


def test_interrupt_after_hand_over_detaches_cleanly():
    env = Environment()
    first = env.timeout(1.0)
    second = env.event()
    resumes = []

    def waiter(env):
        try:
            yield first
            resumes.append("first")
        except Interrupt as exc:
            resumes.append(exc.cause)
        yield env.timeout(5.0)

    proc = env.process(waiter(env))
    env.run(until=0.5)
    first.hand_over(second)
    proc.interrupt("gone")
    env.run(until=2.0)
    second.succeed()  # fires with the process detached from it
    env.run()
    assert resumes == ["gone"]
    assert env.now == 5.5 and not proc.is_alive


def test_hand_over_of_a_processed_event_is_an_error():
    env = Environment()
    ev = env.event().succeed()
    env.run()
    with pytest.raises(SimulationError):
        ev.hand_over(env.event())


# ------------------------------------------------------------------ ticker
def _ticker_run(sleeping):
    """Neighbours on grids of 1 s (started before), 0.5 s and 2 s
    (started after) share the instants of a 1 s loop that acts on
    instants 2, 3 and 7 only; returns the order everything happened in
    and the kernel's event count."""
    env = Environment()
    log = []
    wanted = {2, 3, 7}

    def neighbour(env, name, period):
        while True:
            yield env.timeout(period)
            log.append((env.now, name))

    def act(index):
        log.append((env.now, "loop", index))

    env.process(neighbour(env, "early", 1.0))
    if sleeping:
        def fn():
            act(ticker.passed)
            ticker.sleep(min((i for i in wanted if i > ticker.passed), default=math.inf))

        ticker = env.ticker(1.0, fn)
        ticker.sleep(min(wanted))
    else:
        def loop(env):
            index = 0
            while True:
                yield env.timeout(1.0)
                index += 1
                if index in wanted:
                    act(index)

        env.process(loop(env))
    env.process(neighbour(env, "half", 0.5))
    env.process(neighbour(env, "late", 2.0))
    env.run(until=9.0)
    return log, env.event_count


def test_ticker_acts_where_the_every_instant_loop_would():
    """A woken instant runs in the tie-break slot of the loop's timeout;
    a slept-through one costs no event."""
    log, events = _ticker_run(sleeping=True)
    reference, reference_events = _ticker_run(sleeping=False)
    assert log == reference
    assert [e[2] for e in log if e[1] == "loop"] == [2, 3, 7]
    # the loop scheduled ten timeouts (instant 10's at 9 s); the
    # ticker counts its three woken instants
    assert events == reference_events - 10 + 3
    assert log.index((2.0, "loop", 2)) == log.index((2.0, "early")) + 1


def test_ticker_wakes_at_a_time_and_keeps_the_heap_busy():
    env = Environment()
    fired = []
    ticker = env.ticker(0.5, lambda: fired.append(env.now))
    ticker.sleep(at=1.2)  # the first instant at or after 1.2 s
    env.run(until=3.0)
    assert fired == [1.5] and ticker.passed == 6
    assert env.peek() == 3.5  # the next instant, slept through or not
    ticker.wake()
    env.run(until=3.5)
    assert fired == [1.5, 3.5]
    with pytest.raises(ValueError):
        env.ticker(0.0, lambda: None)
