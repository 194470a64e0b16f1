"""Unit tests for Resource / PriorityResource / Container / Store."""

import pytest

from repro.sim import (
    Container,
    Environment,
    PriorityResource,
    Resource,
    Store,
)


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
        pass  # the context exit frees the slot without a Release event
    assert env.event_count == before + 1  # only the waiter's grant
    assert queued.triggered and res.count == 1
    rel = res.release(queued)  # the public release still returns one
    assert rel.triggered and res.count == 0


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


# ------------------------------------------------------- PriorityResource
def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, name, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(name)
            yield env.timeout(5)

    env.process(worker(env, "first", 0, 0.0))
    env.process(worker(env, "low", 10, 1.0))
    env.process(worker(env, "high", 1, 2.0))
    env.run()
    assert order == ["first", "high", "low"]


def test_priority_ties_fifo():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, name):
        with res.request(priority=5) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in ("a", "b", "c"):
        env.process(worker(env, name))
    env.run()
    assert order == ["a", "b", "c"]


# -------------------------------------------------------------- Container
def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=10, init=11)
    c = Container(env, capacity=10, init=5)
    with pytest.raises(ValueError):
        c.put(0)
    with pytest.raises(ValueError):
        c.get(-1)


def test_container_put_get_levels():
    env = Environment()
    c = Container(env, capacity=100, init=50)

    def proc(env):
        yield c.get(30)
        assert c.level == 20
        yield c.put(60)
        assert c.level == 80
        return c.free

    assert env.run(until=env.process(proc(env))) == 20


def test_container_get_blocks_until_available():
    env = Environment()
    c = Container(env, capacity=100, init=0)
    got_at = []

    def consumer(env):
        yield c.get(10)
        got_at.append(env.now)

    def producer(env):
        yield env.timeout(4)
        yield c.put(10)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got_at == [4.0]


def test_container_put_blocks_when_full():
    env = Environment()
    c = Container(env, capacity=10, init=10)
    done_at = []

    def producer(env):
        yield c.put(5)
        done_at.append(env.now)

    def consumer(env):
        yield env.timeout(2)
        yield c.get(5)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert done_at == [2.0]


# ------------------------------------------------------------------ Store
def test_store_fifo():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for item in ("x", "y", "z"):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == ["x", "y", "z"]


def test_store_get_blocks_on_empty():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(7)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(7.0, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer(env):
        yield store.put(1)
        yield store.put(2)
        done.append(env.now)

    def consumer(env):
        yield env.timeout(3)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert done == [3.0]


def test_store_filtered_get():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        yield store.put({"app": "ocr"})
        yield store.put({"app": "chess"})

    def consumer(env):
        item = yield store.get(filter=lambda it: it["app"] == "chess")
        out.append(item["app"])
        item = yield store.get()
        out.append(item["app"])

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == ["chess", "ocr"]


def test_store_len_tracks_items():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")
    assert len(store) == 2


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
