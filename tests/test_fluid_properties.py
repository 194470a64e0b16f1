"""Property-based tests for the FluidChannel fair-share model.

Driven by seeded stdlib ``random`` sequences of flow arrivals,
cancellations, and idle gaps (no extra dependencies), these check the
two invariants the analytic fluid model promises:

- **work conservation** — whenever at least one flow is active the
  medium drains at exactly ``bps`` aggregate, so the bytes delivered
  over a run equal ``bps`` times the union of busy intervals;
- **FIFO completion within a size class** — with fair sharing and equal
  per-flow rates, an earlier arrival of the same size never finishes
  after a later one.

A hypothesis property then pins the quiet-channel latency fold to a
reference model without it, bit for bit.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import FluidChannel
from repro.obs import DEFAULT_COUNT_BUCKETS, Observability
from repro.sim import Environment, Interrupt

BPS = 1_000_000.0
SIZES = (20_000.0, 125_000.0, 400_000.0)


class _FlowMeta:
    def __init__(self, index, size, added_at):
        self.index = index
        self.size = size
        self.added_at = added_at
        self.done_at = None
        self.cancelled = False
        self.drained = None  # filled at cancel time


def _drive(seed, ops=60):
    """Random add/cancel/wait schedule; returns (metas, busy_points).

    ``busy_points`` samples ``(now, active_flows)`` at every moment the
    flow set changes — arrivals, cancellations, and completions — which
    is exactly when the fluid model's aggregate rate can change.
    """
    rng = random.Random(seed)
    env = Environment()
    channel = FluidChannel(env)
    metas = []
    active = []  # (flow, meta)
    points = []

    def mark(now=None):
        points.append((env.now, channel.active_flows))

    def driver(env):
        for _ in range(ops):
            roll = rng.random()
            if roll < 0.55 or not active:
                size = rng.choice(SIZES)
                meta = _FlowMeta(len(metas), size, env.now)
                metas.append(meta)
                flow = channel.add(size, BPS)
                active.append((flow, meta))

                def on_done(_ev, meta=meta):
                    meta.done_at = env.now
                    mark()

                flow.done.add_callback(on_done)
                mark()
            elif roll < 0.70:
                flow, meta = active.pop(rng.randrange(len(active)))
                if meta.done_at is None:
                    channel.cancel(flow)
                    meta.cancelled = True
                    meta.drained = meta.size - flow.remaining
                    mark()
            else:
                yield env.timeout(rng.uniform(0.0, 0.25))

    env.run(until=env.process(driver(env)))
    env.run()  # let the remaining flows drain
    return metas, points


def _busy_seconds(points):
    """Length of the union of intervals with >= 1 active flow."""
    busy = 0.0
    for (t0, n0), (t1, _n1) in zip(points, points[1:]):
        if n0 > 0:
            busy += t1 - t0
    return busy


@pytest.mark.parametrize("seed", range(8))
def test_goodput_conserves_bandwidth(seed):
    metas, points = _drive(seed)
    assert metas, "schedule produced no flows"
    # Every uncancelled flow completed once the heap drained.
    for meta in metas:
        if not meta.cancelled:
            assert meta.done_at is not None, f"flow {meta.index} never finished"
    drained = sum(
        meta.drained if meta.cancelled else meta.size for meta in metas
    )
    busy = _busy_seconds(points)
    assert drained == pytest.approx(BPS * busy, rel=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_fifo_completion_within_size_class(seed):
    metas, _points = _drive(seed)
    by_size = {}
    for meta in metas:
        if not meta.cancelled:
            by_size.setdefault(meta.size, []).append(meta)
    for size, group in by_size.items():
        group.sort(key=lambda m: m.index)  # arrival order
        done_times = [m.done_at for m in group]
        assert done_times == sorted(done_times), (
            f"size {size}: completions out of arrival order: {done_times}"
        )


@pytest.mark.parametrize("seed", range(4))
def test_cancelled_flows_never_exceed_their_size(seed):
    metas, _points = _drive(seed)
    for meta in metas:
        if meta.cancelled:
            assert -1e-9 <= meta.drained <= meta.size + 1e-9


def test_equal_flows_share_fairly():
    """n identical flows started together all finish at n * size / bps."""
    env = Environment()
    channel = FluidChannel(env)
    flows = [channel.add(100_000.0, BPS) for _ in range(4)]
    env.run()
    assert env.now == pytest.approx(4 * 100_000.0 / BPS)
    assert all(f.done.triggered for f in flows)
    assert channel.active_flows == 0


# -- latency folding against a reference model ----------------------------------
#
# ``FluidChannel.add(..., latency=L)`` folds a lone flow's latency and
# wire time into one timer and unfolds it when the flow set changes.
# The reference below is the model without either: a transfer sleeps
# through its latency (``yield env.timeout(L)``), then joins a channel
# that re-apportions on every change.  Random schedules of both must
# complete every flow at the bit-same instant, and, with a metrics
# registry attached, observe the same joins (the fold observes a
# folded flow's join only when the fold resolves).


class _ReferenceFlow:
    def __init__(self, remaining, bps, done):
        self.remaining = remaining
        self.bps = bps
        self.done = done


class _ReferenceChannel:
    """Equal-split fluid channel with no latency and no fold."""

    def __init__(self, env):
        self.env = env
        self.flows = []
        self.last = env.now
        self.epoch = 0
        self.peak_flows = 0

    def _settle(self):
        now = self.env.now
        dt = now - self.last
        if dt > 0.0 and self.flows:
            n = len(self.flows)
            for f in self.flows:
                f.remaining -= dt * f.bps / n
        self.last = now

    def _arm(self):
        self.epoch += 1
        if not self.flows:
            return
        n = len(self.flows)
        dt = min(f.remaining * n / f.bps for f in self.flows)
        finishers = [f for f in self.flows if f.remaining * n / f.bps == dt]
        epoch = self.epoch
        timer = self.env.timeout(max(dt, 0.0))
        timer.add_callback(lambda _ev: self._wake(epoch, finishers))

    def _wake(self, epoch, finishers):
        if epoch != self.epoch:
            return
        self._settle()
        for f in finishers:
            f.remaining = 0.0
            self.flows.remove(f)
        self._arm()
        for f in finishers:
            f.done.succeed()

    def add(self, nbytes, bps):
        self._settle()
        flow = _ReferenceFlow(float(nbytes), float(bps), self.env.event())
        if nbytes <= 0.0:
            flow.done.succeed()
        else:
            self.flows.append(flow)
            self.peak_flows = max(self.peak_flows, len(self.flows))
            self._arm()
        metrics = self.env.obs.metrics
        metrics.gauge("link.active_flows").set(len(self.flows))
        metrics.histogram(
            "link.concurrent_flows", bounds=DEFAULT_COUNT_BUCKETS
        ).observe(len(self.flows))
        return flow

    def cancel(self, flow):
        if flow in self.flows:
            self._settle()
            self.flows.remove(flow)
            self._arm()


# Coarse grids make exact ties (a start on another flow's join or
# completion instant) likely; sizes include zero-byte flows.
_STARTS = st.one_of(
    st.sampled_from([0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.5]),
    st.floats(0.0, 1.0, allow_nan=False),
)
_LATENCIES = st.one_of(
    st.sampled_from([0.0, 0.05, 0.1, 0.125]),
    st.floats(0.0, 0.3, allow_nan=False),
)
_SIZES = st.sampled_from([0.0, 1_000.0, 25_000.0, 100_000.0, 125_000.0, 333_333.0])
#: when to cancel: never, mid-latency (fraction of it), exactly at the
#: join, exactly at the flow's uncancelled completion, or at a time
_CANCELS = st.one_of(
    st.none(),
    st.tuples(st.just("latency"), st.floats(0.0, 1.0, exclude_max=True)),
    st.just(("join",)),
    st.just(("done",)),
    st.tuples(st.just("at"), st.floats(0.0, 1.5, allow_nan=False)),
)
_SCHEDULES = st.lists(
    st.tuples(_STARTS, _LATENCIES, _SIZES, _CANCELS), min_size=1, max_size=8
)


def _run_schedule(schedule, folded, done_at=None):
    """Drive ``schedule`` through one model.

    Returns ``(ends, peak_flows, active_flows, joins)``: ``ends[i]`` is
    the instant flow ``i``'s transfer ended, drained or cancelled, and
    ``joins`` the run's ``link.concurrent_flows`` histogram and
    ``link.active_flows`` gauge (a metrics registry is attached).
    ``done_at`` gives each flow's completion instant for ``("done",)``
    cancels (taken from an uncancelled run).
    """
    env = Environment()
    obs = Observability(env, tracing=False, metrics=True)
    channel = FluidChannel(env) if folded else _ReferenceChannel(env)
    ends = [None] * len(schedule)

    def transfer(env, i, start, latency, size, cancel):
        yield env.timeout(start)
        proc = env.active_process
        try:
            if folded:
                flow = channel.add(size, BPS, latency=latency)
            else:
                arrival = env.timeout(latency)
            # The canceller is set up after the transfer started, so at
            # a tie with the join it lands after it in both models.
            when = None
            if cancel is not None:
                kind = cancel[0]
                if kind == "latency":
                    when = env.now + latency * cancel[1]
                elif kind == "join":
                    when = env.now + latency
                elif kind == "done":
                    when = done_at[i] if done_at is not None else None
                else:
                    when = max(cancel[1], env.now)
            if when is not None:
                def interrupt(_ev):
                    if proc.is_alive:
                        proc.interrupt("cancel")

                env.timeout_at(when).add_callback(interrupt)
            if not folded:
                yield arrival
                flow = channel.add(size, BPS)
            try:
                yield flow.done
            except Interrupt:
                channel.cancel(flow)
                raise
        except Interrupt:
            pass
        ends[i] = env.now

    for i, spec in enumerate(schedule):
        env.process(transfer(env, i, *spec))
    env.run()
    active = channel.active_flows if folded else len(channel.flows)
    snapshot = obs.metrics.snapshot()
    joins = (
        snapshot["histograms"].get("link.concurrent_flows"),
        snapshot["gauges"].get("link.active_flows"),
    )
    return ends, channel.peak_flows, active, joins


@settings(max_examples=300, deadline=None)
@given(_SCHEDULES)
def test_folded_channel_matches_reference_bit_for_bit(schedule):
    uncancelled = [spec[:3] + (None,) for spec in schedule]
    done_at = _run_schedule(uncancelled, folded=False)[0]
    reference = _run_schedule(schedule, folded=False, done_at=done_at)
    folded = _run_schedule(schedule, folded=True, done_at=done_at)
    assert folded == reference
    assert folded[2] == 0


def test_lone_transfer_costs_one_event():
    """A flow on a quiet channel schedules its completion timer only."""
    env = Environment()
    channel = FluidChannel(env)
    before = env.event_count
    flow = channel.add(125_000.0, BPS, latency=0.05)
    assert env.event_count == before + 1
    env.run()
    assert env.now == (0.0 + 0.05) + 125_000.0 * 1 / BPS
    assert flow.done.processed and channel.peak_flows == 1


def test_second_flow_unfolds_the_first():
    env = Environment()
    channel = FluidChannel(env)
    first = channel.add(100_000.0, BPS, latency=0.1)
    ends = {}

    def later(env):
        yield env.timeout(0.15)
        second = channel.add(100_000.0, BPS)
        assert channel.active_flows == 2
        yield second.done
        ends["second"] = env.now

    env.process(later(env))
    first.done.add_callback(lambda _ev: ends.setdefault("first", env.now))
    env.run()
    # first: 0.05 s alone, then both share until it drains.
    assert ends["first"] == pytest.approx(0.1 + 0.05 + 2 * 0.05)
    assert ends["second"] == pytest.approx(0.25 + 0.05)
    assert channel.peak_flows == 2 and channel.active_flows == 0
