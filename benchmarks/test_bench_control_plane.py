"""Micro-benchmarks of the control plane: one predictor tick and one
idle-reaper scan on a node that has booted and stopped 1,000 runtimes.

The Container DB keeps every row it ever registered, but the control
loops read only its live indices, so neither loop should slow down with
the node's history.  Run with::

    pytest benchmarks/test_bench_control_plane.py --benchmark-only
"""

import pytest

from repro.network import make_link
from repro.obs import Observability
from repro.offload import OffloadRequest
from repro.platform import PredictiveConfig, RattrapPlatform
from repro.runtime.base import RuntimeState
from repro.sim import Environment
from repro.workloads import CHESS_GAME

CHURNED = 1_000


def _churned_node():
    """A predictive node with 1,000 stopped runtimes behind a warm one."""
    env = Environment()
    Observability(env, tracing=False, metrics=True)
    node = RattrapPlatform(env, dispatch_policy="app-affinity")
    node.enable_predictive(PredictiveConfig(hold_s=1e9))
    for _ in range(CHURNED):
        runtime = node.make_pool_runtime(node.db.new_cid(), CHESS_GAME.name)
        node.db.register(runtime, now=env.now)
        env.run(until=env.process(runtime.boot()))
        runtime.mark_loaded(CHESS_GAME.name)
        runtime.stop()
    request = OffloadRequest(
        request_id=0,
        device_id="dev-0",
        app_id=CHESS_GAME.name,
        profile=CHESS_GAME,
        submitted_at=env.now,
    )
    env.run(until=node.submit(request, make_link("lan-wifi")))
    node.predictor.tick()
    env.run(until=env.now + 60.0)  # the warm runtime's idle time expires
    return node


@pytest.fixture(scope="module")
def node():
    return _churned_node()


def test_live_indices_hold_no_stopped_record(node):
    db = node.db
    assert len(db) == CHURNED + 1
    live = db.live_records()
    assert [r.runtime.state for r in live] == [RuntimeState.READY]
    assert db.with_app(CHESS_GAME.name) == live


@pytest.mark.paper_artifact("control-plane")
def test_bench_predictor_tick(benchmark, node):
    benchmark(node.predictor.tick)
    assert node.dispatcher.preboots == 0  # settled: the warm runtime is the pool


@pytest.mark.paper_artifact("control-plane")
def test_bench_reaper_scan(benchmark, node):
    reaped = benchmark(node.reap_idle_runtimes, 30.0)
    assert reaped == []  # expired, but the predictor keeps it warm
