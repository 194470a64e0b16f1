"""Unit + property tests for monitoring probes and RNG streams."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    Counter,
    Environment,
    RandomStreams,
    RateTracker,
    TimeSeries,
    UtilizationTracker,
)


# --------------------------------------------------------------- TimeSeries
def test_timeseries_step_lookup():
    ts = TimeSeries("x")
    ts.record(0.0, 1.0)
    ts.record(5.0, 3.0)
    assert ts.value_at(-1.0) == 0.0
    assert ts.value_at(0.0) == 1.0
    assert ts.value_at(4.999) == 1.0
    assert ts.value_at(5.0) == 3.0
    assert ts.value_at(100.0) == 3.0


def test_timeseries_rejects_time_travel():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 2.0)


def test_timeseries_resample_grid():
    ts = TimeSeries()
    ts.record(0.0, 2.0)
    ts.record(2.0, 4.0)
    grid = ts.resample(0.0, 4.0, 1.0)
    assert list(grid) == [2.0, 2.0, 4.0, 4.0]


def test_timeseries_resample_dt_validation():
    with pytest.raises(ValueError):
        TimeSeries().resample(0, 1, 0)


def test_timeseries_time_average_exact():
    ts = TimeSeries()
    ts.record(0.0, 0.0)
    ts.record(1.0, 10.0)
    # value is 0 on [0,1), 10 on [1,2] -> mean over [0,2] is 5
    assert ts.time_average(0.0, 2.0) == pytest.approx(5.0)


def test_timeseries_time_average_validation():
    with pytest.raises(ValueError):
        TimeSeries().time_average(1.0, 1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=-50, max_value=50),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_timeseries_average_bounded_by_extremes(samples):
    samples = sorted(samples, key=lambda s: s[0])
    ts = TimeSeries()
    last_t = -1.0
    values = []
    for t, v in samples:
        if t <= last_t:
            continue
        ts.record(t, v)
        values.append(v)
        last_t = t
    if not values:
        return
    avg = ts.time_average(samples[0][0], last_t + 10.0)
    lo = min(values + [0.0]) - 1e-9
    hi = max(values + [0.0]) + 1e-9
    assert lo <= avg <= hi


# ------------------------------------------------------------------ Counter
def test_counter_totals_and_rate_bins():
    c = Counter()
    c.add(0.5, 10)
    c.add(1.5, 20)
    c.add(1.9, 5)
    assert c.total == 35
    assert len(c) == 3
    bins = c.rate_series(0.0, 3.0, 1.0)
    assert list(bins) == [10.0, 25.0, 0.0]


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().add(0.0, -1)


def test_counter_rate_dt_validation():
    with pytest.raises(ValueError):
        Counter().rate_series(0, 1, 0)


def test_counter_rate_respects_window():
    c = Counter()
    c.add(10.0, 100.0)
    assert c.rate_series(0.0, 5.0).sum() == 0.0


# ------------------------------------------------------- UtilizationTracker
def test_utilization_tracks_busy_capacity():
    env = Environment()
    u = UtilizationTracker(env, capacity=4)

    def proc(env):
        u.acquire(2)
        yield env.timeout(10)
        u.release(2)

    env.process(proc(env))
    env.run()
    series = u.percent_series(0.0, 20.0, 1.0)
    assert series[0] == pytest.approx(50.0)
    assert series[-1] == pytest.approx(0.0)
    assert u.mean_percent(0.0, 20.0) == pytest.approx(25.0)


def test_utilization_over_capacity_rejected():
    env = Environment()
    u = UtilizationTracker(env, capacity=1)
    u.acquire(1)
    with pytest.raises(ValueError):
        u.acquire(0.5)


def test_utilization_over_release_rejected():
    env = Environment()
    u = UtilizationTracker(env, capacity=1)
    with pytest.raises(ValueError):
        u.release(1)


def test_utilization_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        UtilizationTracker(env, capacity=0)


# -------------------------------------------------------------- RateTracker
def test_rate_tracker_mbps():
    env = Environment()
    rt = RateTracker(env, "disk")

    def proc(env):
        rt.read(1024 * 1024)
        yield env.timeout(1)
        rt.write(2 * 1024 * 1024)

    env.process(proc(env))
    env.run()
    series = rt.mbps_series(0.0, 2.0, 1.0)
    assert series["read"][0] == pytest.approx(1.0)
    assert series["write"][1] == pytest.approx(2.0)


# ------------------------------------------------------------ RandomStreams
def test_streams_deterministic_per_name():
    s1 = RandomStreams(seed=7)
    s2 = RandomStreams(seed=7)
    assert s1.get("a").random() == s2.get("a").random()


def test_streams_independent_across_names():
    s = RandomStreams(seed=7)
    a = s.get("a").random(100)
    b = s.get("b").random(100)
    assert not np.allclose(a, b)


def test_streams_cached_identity():
    s = RandomStreams(seed=0)
    assert s.get("x") is s.get("x")


def test_streams_differ_across_seeds():
    assert RandomStreams(1).get("x").random() != RandomStreams(2).get("x").random()


def test_streams_fork_independent():
    s = RandomStreams(seed=3)
    f = s.fork("child")
    assert s.get("x").random() != f.get("x").random()


def test_streams_reset_restarts_sequences():
    s = RandomStreams(seed=9)
    first = s.get("x").random()
    s.get("x").random()
    s.reset()
    assert s.get("x").random() == first
