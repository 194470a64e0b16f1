"""Unit tests for the FIFO Resource."""

import pytest

from repro.sim import Environment, Resource


# ---------------------------------------------------------------- Resource
def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def worker(env, i):
        with res.request() as req:
            yield req
            starts.append((env.now, i))
            yield env.timeout(10)

    for i in range(3):
        env.process(worker(env, i))
    env.run(until=1.0)
    assert [i for _, i in starts] == [0, 1]
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_fifo_queueing():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(5):
        env.process(worker(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]
    assert env.now == 5.0


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    times = []

    def worker(env):
        with res.request() as req:
            yield req
            times.append(env.now)
            yield env.timeout(3)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert times == [0.0, 3.0]


def test_uncontended_request_is_granted_without_a_heap_event():
    env = Environment()
    res = Resource(env, capacity=1)
    before = env.event_count
    req = res.request()
    assert req.processed and req.value is req
    assert env.event_count == before  # nothing was scheduled
    queued = res.request()
    assert not queued.triggered
    with req:
        pass  # the context exit frees the slot without a heap event
    assert env.event_count == before + 1  # only the waiter's grant
    assert queued.triggered and res.count == 1


def test_yielding_a_granted_request_resumes_at_once():
    env = Environment()
    res = Resource(env, capacity=1)
    steps = []

    def worker(env):
        with res.request() as req:
            yield req
            steps.append(env.now)
            yield env.timeout(2)
        steps.append(env.now)

    env.process(worker(env))
    env.run()
    assert steps == [0.0, 2.0] and res.count == 0


def test_resource_context_manager_releases_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)

    def failing(env):
        with res.request() as req:
            yield req
            raise RuntimeError("boom")

    def follower(env):
        with res.request() as req:
            yield req
            return env.now

    p1 = env.process(failing(env))
    p1.defused = True
    p2 = env.process(follower(env))
    assert env.run(until=p2) == 0.0
    assert res.count == 0


def test_resource_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        result = yield env.any_of([req, env.timeout(2)])
        if req not in result:
            req.cancel()
            return "gave up"
        return "got it"  # pragma: no cover

    env.process(holder(env))
    p = env.process(impatient(env))
    assert env.run(until=p) == "gave up"
    assert res.queue_length == 0
