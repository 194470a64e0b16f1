"""Tests for the sharded DES kernel (repro/sim/shard.py).

The conservative contract under test: a cross-shard message may never
arrive in the receiving shard's past, and the shard/job topology is
routing detail — the serial epoch loop, the per-shard worker pool, and
any zone→shard packing all produce byte-identical summaries.
The scatter-gather/idle-skip sync engine is property-tested against a
reference loop in ``tests/test_shard_sync.py``.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs_mod
import repro.sim.shard as shard_mod
from repro.obs import Observability
from repro.sim import Environment
from repro.sim.events import SimulationError
from repro.sim.shard import (
    CausalityError,
    EpochStats,
    ShardMessage,
    ShardRunner,
    run_epochs,
    run_sharded,
    sync_window,
)

LOOKAHEAD = 0.5


def _pair(lookahead=1.0):
    a = ShardRunner(0, Environment(), lookahead=lookahead)
    b = ShardRunner(1, Environment(), lookahead=lookahead)
    return a, b


# ------------------------------------------------------------ contract edges
def test_post_below_lookahead_raises():
    a, _ = _pair(lookahead=1.0)
    with pytest.raises(CausalityError):
        a.post(src=0, dst=1, kind="ping", payload=None, delay=0.999)


def test_inject_message_in_the_past_raises():
    _, b = _pair()
    b.on("ping", lambda msg: None)
    b.advance_to(5.0)
    stale = ShardMessage(
        src=0, dst=1, sent_at=1.0, deliver_at=4.0, kind="ping", payload=None, seq=0
    )
    with pytest.raises(CausalityError):
        b.inject([stale])


def test_inject_unknown_kind_raises():
    _, b = _pair()
    msg = ShardMessage(
        src=0, dst=1, sent_at=0.0, deliver_at=2.0, kind="mystery", payload=None, seq=0
    )
    with pytest.raises(KeyError):
        b.inject([msg])


def test_lookahead_must_be_positive():
    with pytest.raises(ValueError):
        ShardRunner(0, Environment(), lookahead=0.0)


def test_sync_window_validation():
    assert sync_window(0.25) == 0.25
    assert sync_window(0.25, window=0.1) == 0.1
    with pytest.raises(ValueError):
        sync_window(0.25, window=0.3)  # wider than the lookahead
    with pytest.raises(ValueError):
        sync_window(0.25, window=0.0)
    with pytest.raises(ValueError):
        sync_window(0.0)


def test_undelivered_mail_at_horizon_raises():
    a, b = _pair(lookahead=1.0)
    b.on("ping", lambda msg: None)
    a.env.defer(lambda: a.post(0, 1, "ping", None, delay=1.0), 0.5)
    # deliver_at = 1.5 > until = 1.0: the loop must surface the loss.
    with pytest.raises(SimulationError, match="undelivered"):
        run_epochs([a, b], owner={0: 0, 1: 1}, window=1.0, until=1.0)


# ---------------------------------------------------- causality (property)
@given(
    sends=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=20,
    )
)
@settings(deadline=None, max_examples=60)
def test_cross_shard_timestamps_never_violate_receiver_clock(sends):
    """Random traffic honoring the lookahead always delivers on time.

    Every message lands exactly at its ``deliver_at``, never behind the
    receiving shard's clock (``inject`` would raise CausalityError),
    and the delivery order is the deterministic ``sort_key`` order.
    """
    a, b = _pair(lookahead=1.0)
    received = []
    b.on("ping", lambda msg: received.append((b.env.now, msg)))
    for t, extra in sends:
        a.env.defer(
            lambda _e=extra: a.post(0, 1, "ping", None, delay=1.0 + _e), t
        )
    run_epochs([a, b], owner={0: 0, 1: 1}, window=1.0, until=20.0)
    assert len(received) == len(sends)
    assert b.delivered == len(sends)
    for now, msg in received:
        assert now == msg.deliver_at
        assert msg.deliver_at >= msg.sent_at + 1.0  # the lookahead
    assert [m for _, m in received] == sorted(
        (m for _, m in received), key=ShardMessage.sort_key
    )


# ------------------------------------------------- determinism across jobs
def _build_pingpong(spec):
    """Two-zone ping/pong shard: zone 0 sends, zone 1 echoes back."""
    env = Environment()
    runner = ShardRunner(spec["shard"], env, lookahead=LOOKAHEAD)
    runner.log = []
    if spec["shard"] == 0:
        for i in range(spec["pings"]):
            env.defer(
                lambda _i=i: runner.post(
                    0, 1, "ping", _i, delay=LOOKAHEAD + 0.1 + 0.01 * _i
                ),
                0.3 * i,
            )
        runner.on("pong", lambda msg: runner.log.append((env.now, msg.payload)))
    else:
        def echo(msg):
            runner.log.append((env.now, msg.payload))
            runner.post(1, 0, "pong", msg.payload * 10, delay=LOOKAHEAD + 0.05)

        runner.on("ping", echo)
    return runner


def _finalize_pingpong(runner):
    return {
        "shard": runner.shard_id,
        "log": list(runner.log),
        "delivered": runner.delivered,
        "events": runner.env.event_count,
    }


def _pingpong_specs(pings=12):
    return [{"shard": 0, "pings": pings}, {"shard": 1, "pings": pings}]


def test_run_sharded_serial_completes_roundtrips():
    out = run_sharded(
        _build_pingpong,
        _pingpong_specs(),
        owner={0: 0, 1: 1},
        window=LOOKAHEAD,
        until=10.0,
        finalize=_finalize_pingpong,
        jobs=0,
    )
    assert [s["shard"] for s in out] == [0, 1]
    assert len(out[0]["log"]) == 12  # every pong came home
    assert [p for _, p in out[1]["log"]] == list(range(12))


def test_run_sharded_jobs_identical_to_serial():
    """The determinism pin: jobs=1 and jobs=N summaries are equal."""
    kwargs = dict(
        specs=_pingpong_specs(),
        owner={0: 0, 1: 1},
        window=LOOKAHEAD,
        until=10.0,
        finalize=_finalize_pingpong,
    )
    serial = run_sharded(_build_pingpong, jobs=0, **kwargs)
    parallel = run_sharded(_build_pingpong, jobs=2, **kwargs)
    assert serial == parallel


def test_epoch_stats_identical_serial_vs_mp():
    """The sync counters are deterministic: both paths agree exactly."""
    kwargs = dict(
        specs=_pingpong_specs(),
        owner={0: 0, 1: 1},
        window=LOOKAHEAD,
        until=10.0,
        finalize=_finalize_pingpong,
    )
    s_serial, s_mp = EpochStats(), EpochStats()
    run_sharded(_build_pingpong, jobs=0, stats=s_serial, **kwargs)
    run_sharded(_build_pingpong, jobs=2, stats=s_mp, **kwargs)
    assert (s_serial.epochs_run, s_serial.epochs_skipped) == (
        s_mp.epochs_run,
        s_mp.epochs_skipped,
    )
    assert s_serial.epochs_run > 0


def _build_metered_pingpong(spec):
    """Ping/pong shard whose metrics name their shard, so the order
    the snapshots drain in shows."""
    runner = _build_pingpong(spec)
    runner.env.obs.metrics.counter("test.shard").inc(spec["shard"])
    return runner


def test_worker_metrics_match_in_process_metrics():
    """Counters mirrored inside the workers, absorbed in shard order,
    drain exactly like the in-process run's."""
    kwargs = dict(
        specs=_pingpong_specs(),
        owner={0: 0, 1: 1},
        window=LOOKAHEAD,
        until=10.0,
        finalize=_finalize_pingpong,
    )
    drained, stats = {}, {}
    obs_mod.enable_auto(tracing=False, metrics=True)
    try:
        for jobs in (0, 2):
            stats[jobs] = EpochStats()
            run_sharded(_build_metered_pingpong, jobs=jobs, stats=stats[jobs],
                        **kwargs)
            drained[jobs] = obs_mod.drain()
    finally:
        obs_mod.disable_auto()
    assert drained[0] == drained[2]
    assert stats[0].epochs_skipped > 0
    assert len(drained[0]) == 2  # one snapshot per shard, in shard order
    for shard, snap in enumerate(drained[0]):
        counters = snap["metrics"]["counters"]
        assert counters["test.shard"] == shard
        assert counters["shard.epochs_run"] == stats[0].epochs_run
        assert counters["shard.epochs_skipped"] == stats[0].epochs_skipped


def test_negative_jobs_is_rejected():
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        run_sharded(
            _build_pingpong,
            _pingpong_specs(),
            owner={0: 0, 1: 1},
            window=LOOKAHEAD,
            until=10.0,
            finalize=_finalize_pingpong,
            jobs=-1,
        )


# ------------------------------------------------------- idle-epoch skipping
def test_idle_epochs_are_skipped_on_sparse_trace():
    """A long quiet stretch costs one skip, not hundreds of barriers."""
    a, b = _pair(lookahead=1.0)
    b.on("ping", lambda msg: None)
    a.env.defer(lambda: a.post(0, 1, "ping", None, delay=1.5), 0.5)
    # One more event deep in the quiet tail, to prove the skip lands on
    # the round containing it rather than jumping straight to the end.
    late = []
    b.env.defer(lambda: late.append(b.env.now), 90.25)
    stats = run_epochs([a, b], owner={0: 0, 1: 1}, window=1.0, until=100.0)
    assert late == [90.25]
    assert stats.epochs_skipped > 80
    # every grid round is accounted for: run + skipped == ceil(100/1)
    assert stats.epochs_run + stats.epochs_skipped == 100


def test_event_exactly_on_epoch_boundary_is_not_skipped_past():
    """Boundary events fire in the round that ends at their instant."""
    a, b = _pair(lookahead=1.0)
    b.on("ping", lambda msg: None)
    hits = []
    b.env.defer(lambda: hits.append(b.env.now), 7.0)  # exactly on the grid
    stats = run_epochs([a, b], owner={0: 0, 1: 1}, window=1.0, until=20.0)
    assert hits == [7.0]
    assert stats.epochs_skipped > 0


def test_epoch_counters_mirrored_into_metrics():
    env_a, env_b = Environment(), Environment()
    obs = Observability(env_a, tracing=False, metrics=True)
    a = ShardRunner(0, env_a, lookahead=1.0)
    b = ShardRunner(1, env_b, lookahead=1.0)
    b.on("ping", lambda msg: None)
    a.env.defer(lambda: a.post(0, 1, "ping", None, delay=1.5), 0.5)
    stats = run_epochs([a, b], owner={0: 0, 1: 1}, window=1.0, until=50.0)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["shard.epochs_run"] == stats.epochs_run
    assert counters["shard.epochs_skipped"] == stats.epochs_skipped
    assert stats.epochs_skipped > 0


def test_inject_batches_same_instant_deliveries():
    """Messages sharing a deliver_at ride one kernel event, in order."""
    _, b = _pair(lookahead=1.0)
    order = []
    b.on("ping", lambda msg: order.append(msg.payload))
    msgs = [
        ShardMessage(src=0, dst=1, sent_at=0.0, deliver_at=at, kind="ping",
                     payload=i, seq=i)
        for i, at in enumerate((2.0, 2.0, 2.0, 3.0))
    ]
    before = b.env.event_count
    b.inject(msgs)
    assert b.env.event_count - before == 2  # two distinct instants
    b.advance_to(5.0)
    assert order == [0, 1, 2, 3]
    assert b.delivered == 4


# ------------------------------------------------- mp start-clock handshake
def _build_offset_pingpong(spec):
    """Ping/pong shard whose Environment starts at a non-zero clock."""
    env = Environment(initial_time=spec["clock"])
    runner = ShardRunner(spec["shard"], env, lookahead=LOOKAHEAD)
    runner.log = []
    if spec["shard"] == 0:
        for i in range(spec["pings"]):
            env.defer(
                lambda _i=i: runner.post(
                    0, 1, "ping", _i, delay=LOOKAHEAD + 0.1 + 0.01 * _i
                ),
                0.3 * i,
            )
        runner.on("pong", lambda msg: runner.log.append((env.now, msg.payload)))
    else:
        def echo(msg):
            runner.log.append((env.now, msg.payload))
            runner.post(1, 0, "pong", msg.payload * 10, delay=LOOKAHEAD + 0.05)

        runner.on("ping", echo)
    return runner


def test_mp_honors_nonzero_start_clock():
    """Regression: the parallel path must start the epoch grid at the
    workers' true minimum clock, not at t=0 (which would run a
    different epoch schedule than the serial loop)."""
    kwargs = dict(
        specs=[
            {"shard": 0, "pings": 8, "clock": 5.0},
            {"shard": 1, "pings": 8, "clock": 5.0},
        ],
        owner={0: 0, 1: 1},
        window=LOOKAHEAD,
        until=15.0,
        finalize=_finalize_pingpong,
    )
    s_serial, s_mp = EpochStats(), EpochStats()
    serial = run_sharded(_build_offset_pingpong, jobs=0, stats=s_serial, **kwargs)
    parallel = run_sharded(_build_offset_pingpong, jobs=2, stats=s_mp, **kwargs)
    assert serial == parallel
    assert len(serial[0]["log"]) == 8
    assert (s_serial.epochs_run, s_serial.epochs_skipped) == (
        s_mp.epochs_run,
        s_mp.epochs_skipped,
    )


# --------------------------------------------------- fallback and teardown
def test_pool_unavailable_falls_back_with_warning(monkeypatch):
    """A missing worker pool degrades to serial loudly, not silently."""

    def no_pool(*args, **kwargs):
        raise OSError("fork unavailable")

    monkeypatch.setattr(shard_mod, "_run_sharded_mp", no_pool)
    kwargs = dict(
        specs=_pingpong_specs(),
        owner={0: 0, 1: 1},
        window=LOOKAHEAD,
        until=10.0,
        finalize=_finalize_pingpong,
    )
    serial = run_sharded(_build_pingpong, jobs=0, **kwargs)
    with pytest.warns(RuntimeWarning, match="fork unavailable"):
        fallback = run_sharded(_build_pingpong, jobs=2, **kwargs)
    assert fallback == serial


def test_non_pool_errors_are_not_masked_by_fallback(monkeypatch):
    """Only pool-unavailability triggers the fallback; a coordinator
    bug (or a modelling error) must surface."""

    def broken(*args, **kwargs):
        raise ZeroDivisionError("coordinator bug")

    monkeypatch.setattr(shard_mod, "_run_sharded_mp", broken)
    with pytest.raises(ZeroDivisionError):
        run_sharded(
            _build_pingpong,
            _pingpong_specs(),
            owner={0: 0, 1: 1},
            window=LOOKAHEAD,
            until=10.0,
            finalize=_finalize_pingpong,
            jobs=2,
        )


def _build_crashy(spec):
    """Three-zone shard set where zone 1's handler blows up mid-run."""
    env = Environment()
    runner = ShardRunner(spec["shard"], env, lookahead=LOOKAHEAD)
    runner.log = []
    zone = spec["shard"]
    if zone == 0:
        for i in range(20):
            for dst in (1, 2):
                env.defer(
                    lambda _i=i, _d=dst: runner.post(
                        0, _d, "ping", _i, delay=LOOKAHEAD + 0.1
                    ),
                    0.4 * i,
                )

    def handler(msg):
        if zone == 1 and msg.payload >= 3:
            raise RuntimeError("injected handler crash")
        runner.log.append((env.now, msg.payload))

    runner.on("ping", handler)
    return runner


def test_worker_crash_surfaces_and_tears_down_promptly():
    """An errored worker raises SimulationError (never a silent serial
    rerun) carrying the worker's traceback, and the remaining workers
    are reaped without waiting out a long per-process join timeout."""
    t0 = time.monotonic()
    with pytest.raises(SimulationError, match="worker failed") as err:
        run_sharded(
            _build_crashy,
            [{"shard": 0}, {"shard": 1}, {"shard": 2}],
            owner={0: 0, 1: 1, 2: 2},
            window=LOOKAHEAD,
            until=12.0,
            finalize=_finalize_pingpong,
            jobs=3,
        )
    assert time.monotonic() - t0 < 4.0
    assert "injected handler crash" in str(err.value)
    assert "in handler" in str(err.value)  # the raising function
