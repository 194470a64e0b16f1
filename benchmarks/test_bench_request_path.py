"""Micro-benchmarks of the request path's network layer: one transfer
over a quiet shared-medium link, and two transfers contending for it.

A lone transfer folds its latency and wire time into one completion
timer, with or without a metrics registry attached; a contended pair takes the fluid path (latency timers, the
channel's re-armed wake, a ``done`` event per flow).  Both are checked
for the kernel events they schedule, so an event-count regression
fails here before it shows in a whole-run benchmark.  Run with::

    pytest benchmarks/test_bench_request_path.py --benchmark-only
"""

import pytest

from repro.network import SCENARIOS, FlowLink
from repro.obs import Observability
from repro.sim import Environment

NBYTES = 64 * 1024


@pytest.fixture
def ap():
    """A fresh environment and one LAN WiFi access point on it."""
    return Environment(), FlowLink("ap", **SCENARIOS["lan-wifi"])


def _transfers(env, link, n: int) -> int:
    """Run ``n`` simultaneous uploads to completion; return the kernel
    events they scheduled."""
    before = env.event_count
    procs = [env.process(link.transmit(env, NBYTES, "up")) for _ in range(n)]
    env.run()
    assert all(p.ok for p in procs)
    assert link.peak_flows == n
    return env.event_count - before


def test_lone_transfer_schedules_one_timer(ap):
    # process bootstrap + the folded completion timer + process exit
    assert _transfers(*ap, 1) == 3


def test_lone_transfer_folds_with_metrics_attached(ap):
    """The fold holds with a registry attached: the join is observed
    when the folded timer fires, at no event's cost."""
    env, link = ap
    obs = Observability(env, tracing=False, metrics=True)
    assert _transfers(env, link, 1) == 3
    snapshot = obs.metrics.snapshot()
    assert snapshot["histograms"]["link.concurrent_flows"]["count"] == 1
    assert snapshot["gauges"]["link.active_flows"]["max"] == 1.0


def test_contended_pair_costs_no_more_than_the_fluid_path(ap):
    # The second flow unfolds the first before it joins, so the pair
    # pays the fluid path's 11 events: per flow a bootstrap, a latency
    # timer (the first one's takes its folded timer's slot), a ``done``
    # and an exit, plus the channel's wakes.
    assert _transfers(*ap, 2) <= 11


@pytest.mark.paper_artifact("request-path")
def test_bench_uncontended_transmit(benchmark, ap):
    benchmark(_transfers, *ap, 1)


@pytest.mark.paper_artifact("request-path")
def test_bench_contended_pair(benchmark, ap):
    benchmark(_transfers, *ap, 2)
