"""Tests for the repro.obs observability subsystem.

Covers the instruments (counters/gauges/histograms), the tracer, the
zero-cost disabled path, the serve-path span taxonomy (phase spans tile
a request's response time exactly), component metrics, the auto-attach
machinery behind ``rattrap-experiments --trace/--metrics``, and the
runner flags end to end.
"""

import json
import math

import pytest

from repro.network import make_link
from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    PHASE_KINDS,
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
    disable_auto,
    drain,
    enable_auto,
    metrics_of,
    trace_span,
)
from repro.offload import run_inflow_experiment
from repro.offload.request import OffloadRequest
from repro.platform import RattrapPlatform, VMCloudPlatform
from repro.sim import Environment
from repro.workloads import CHESS_GAME, generate_inflow


# --------------------------------------------------------------- instruments
def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert reg.counter("x") is c  # get-or-create
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("depth")
    g.set(4)
    g.set(2)
    g.add(1)
    assert g.value == 3 and g.max_value == 4


def test_histogram_percentiles_are_bucket_edges():
    h = Histogram("t", bounds=(0.1, 1.0, 10.0))
    for v in (0.05, 0.05, 0.5, 0.5, 0.5, 5.0, 5.0, 5.0, 5.0, 50.0):
        h.observe(v)
    assert h.count == 10
    assert h.quantile(0.5) == 1.0  # 5th observation lands in (0.1, 1.0]
    assert h.quantile(0.9) == 10.0  # 9th observation is in the (1, 10] bucket
    assert h.quantile(1.0) == 50.0  # overflow bucket reports the exact max
    snap = h.snapshot()
    assert snap["p99"] == 50.0
    assert snap["min"] == 0.05 and snap["max"] == 50.0
    assert sum(n for _edge, n in snap["buckets"]) == 10


def test_histogram_quantile_never_exceeds_max():
    h = Histogram("t", bounds=(1.0, 100.0))
    h.observe(1.5)
    assert h.quantile(0.5) == 1.5  # edge 100.0 clamped to the observed max


def test_histogram_empty_and_validation():
    h = Histogram("t")
    assert math.isnan(h.quantile(0.5))
    assert h.snapshot() == {"count": 0}
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        h.quantile(0.0)


def test_registry_snapshot_is_sorted_and_json_ready():
    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.counter("a").inc(2)
    reg.gauge("g").set(7)
    reg.histogram("h", bounds=DEFAULT_COUNT_BUCKETS).observe(3)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    json.dumps(snap)  # must serialize without custom encoders
    assert reg.counters_with_prefix("a") == {"a": 2.0}


# -------------------------------------------------------------------- tracer
def test_tracer_spans_and_aggregation():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        with tracer.span("execute", who="c1", trace="t1"):
            yield env.timeout(2.0)
        with tracer.span("upload", trace="t2"):
            yield env.timeout(0.5)

    env.run(until=env.process(proc(env)))
    assert len(tracer) == 2
    agg = tracer.by_kind()
    assert agg["execute"] == {"count": 1, "total_s": 2.0}
    assert agg["upload"]["total_s"] == 0.5
    rows = tracer.as_rows()
    assert rows[0] == ["execute", "c1", "t1", 0.0, 2.0]


def test_open_spans_are_excluded_until_finished():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.begin("boot", who="c9")
    assert span.open and math.isnan(span.duration)
    assert tracer.by_kind() == {}
    tracer.finish(span)
    tracer.finish(span)  # idempotent
    assert tracer.by_kind()["boot"]["count"] == 1


def test_span_closes_on_exception():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        with tracer.span("execute"):
            yield env.timeout(1.0)
            raise RuntimeError("sliced")

    with pytest.raises(RuntimeError):
        env.run(until=env.process(proc(env)))
    assert not tracer.spans[0].open
    assert tracer.spans[0].duration == 1.0


# --------------------------------------------------------- zero-cost default
def test_environment_has_no_obs_by_default():
    env = Environment()
    assert env.obs is None
    assert metrics_of(env) is None
    assert Environment.obs_factory is None


def test_trace_span_disabled_is_shared_noop():
    env = Environment()
    cm1 = trace_span(env, "execute")
    cm2 = trace_span(env, "upload", who="x")
    assert cm1 is cm2  # one shared instance: no allocation per call
    with cm1:
        pass


def test_observability_installs_on_env():
    env = Environment()
    obs = Observability(env, tracing=True, metrics=False)
    assert env.obs is obs
    assert obs.metrics is None
    snap = obs.snapshot()
    assert snap["metrics"] is None and snap["spans"] == []


# ----------------------------------------------------------- serve-path spans
def _serve_one(platform_cls, **kw):
    env = Environment()
    obs = Observability(env)
    plat = platform_cls(env, **kw)
    req = OffloadRequest(request_id=0, device_id="d0", app_id="chess",
                         profile=CHESS_GAME)
    result = env.run(until=plat.submit(req, make_link("lan-wifi")))
    return obs, result


def test_phase_spans_tile_response_time_rattrap():
    obs, result = _serve_one(RattrapPlatform, optimized=True)
    assert obs.tracer.phase_total_s() == pytest.approx(
        result.response_time, rel=1e-9
    )
    kinds = {s.kind for s in obs.tracer.spans}
    # "cache_hit" only replaces "execute" when a compute cache serves
    # the result; "decide"/"local_exec" only appear on the partitioned
    # client path.  An uncached direct serve emits every other kind.
    for kind in PHASE_KINDS:
        if kind in ("cache_hit", "decide", "local_exec"):
            assert kind not in kinds
            continue
        assert kind in kinds, f"missing phase span {kind!r}"
    assert "queued" in kinds and "boot" in kinds and "stage" in kinds


def test_phase_spans_tile_response_time_vm():
    obs, result = _serve_one(VMCloudPlatform)
    assert obs.tracer.phase_total_s() == pytest.approx(
        result.response_time, rel=1e-9
    )


def test_spans_carry_the_request_trace_id():
    obs, result = _serve_one(RattrapPlatform, optimized=True)
    trace_id = result.request.trace_id
    assert trace_id == "d0/chess/0"
    phase_spans = [s for s in obs.tracer.spans if s.kind in PHASE_KINDS]
    assert phase_spans and all(s.trace == trace_id for s in phase_spans)
    # Detail spans nest inside their phase: queued within prepare.
    prepare = next(s for s in obs.tracer.spans if s.kind == "prepare")
    queued = next(s for s in obs.tracer.spans if s.kind == "queued")
    assert prepare.start <= queued.start and queued.end <= prepare.end


def test_trace_id_can_be_supplied_explicitly():
    req = OffloadRequest(request_id=3, device_id="d1", app_id="ocr",
                         profile=CHESS_GAME, trace_id="custom-id")
    assert req.trace_id == "custom-id"


# ---------------------------------------------------------- component metrics
def test_platform_metrics_after_inflow():
    env = Environment()
    obs = Observability(env)
    plat = RattrapPlatform(env, optimized=True)
    plans = generate_inflow(CHESS_GAME, devices=2, requests_per_device=3, seed=1)
    results = run_inflow_experiment(env, plat, plans, make_link("lan-wifi"))
    m = obs.metrics
    assert m.counter("platform.requests").value == len(results) == 6
    assert m.counter("dispatch.cold_boots").value == 2  # one per device
    assert m.counter("dispatch.warm_dispatches").value == 4
    assert m.counter("runtime.boots").value == 2
    assert m.counter("platform.code_cache_hits").value == 5  # all but first
    assert m.counter("warehouse.lookups").value >= 5
    assert m.counter("warehouse.stores").value == 1
    assert m.counter("io.staged_bytes").value > 0
    assert m.counter("io.burned_bytes").value == m.counter("io.staged_bytes").value
    hist = m.histogram("platform.response_s")
    assert hist.count == 6
    assert hist.quantile(0.99) >= hist.quantile(0.5)
    assert m.counter("link.bytes_up").value > m.counter("link.bytes_down").value
    assert m.gauge("scheduler.active_requests").value == 0
    assert m.gauge("scheduler.active_requests").max_value >= 1
    assert m.gauge("dispatch.pending_boots").value == 0


def test_request_failure_counter():
    env = Environment()
    obs = Observability(env)
    plat = RattrapPlatform(env, optimized=True)
    req = OffloadRequest(request_id=0, device_id="d0", app_id="chess",
                         profile=CHESS_GAME)
    proc = plat.submit(req, make_link("lan-wifi"))
    proc.defused = True

    def saboteur(env):
        while not plat._inflight:  # wait until the request is being served
            yield env.timeout(0.05)
        assert plat.crash_runtime("cid-1", reason="test")

    env.run(until=env.process(saboteur(env)))
    env.run()
    assert obs.metrics.counter("platform.request_failures").value == 1
    assert obs.metrics.counter("runtime.crashes").value == 1
    # The severed request's spans are all closed (death is visible).
    assert all(not s.open for s in obs.tracer.spans)


def test_closing_a_suspended_serve_is_not_a_failure():
    # Closing a suspended serve generator (as interpreter exit does)
    # raises GeneratorExit inside it: that is no request failure, but
    # the finally bookkeeping must still release the runtime.
    env = Environment()
    obs = Observability(env)
    plat = RattrapPlatform(env, optimized=True)
    failed = []
    plat.on_request_failed = lambda request, exc: failed.append(exc)
    req = OffloadRequest(request_id=0, device_id="d0", app_id="chess",
                         profile=CHESS_GAME)
    proc = plat.submit(req, make_link("lan-wifi"))

    def until_uploading(env):
        while not plat._inflight:
            yield env.timeout(0.05)

    env.run(until=env.process(until_uploading(env)))
    assert plat.scheduler.active_requests == 1
    proc._generator.close()
    assert failed == []
    assert "platform.request_failures" not in obs.metrics.snapshot()["counters"]
    assert plat._inflight == {}
    assert plat.scheduler.active_requests == 0
    assert plat.db.get("cid-1").active_requests == 0


# --------------------------------------------------------------- auto-attach
def test_enable_auto_attaches_and_drains():
    try:
        enable_auto(tracing=True, metrics=True)
        env = Environment()
        assert env.obs is not None
        with trace_span(env, "execute"):
            pass
        env.obs.metrics.counter("x").inc()
        snaps = drain()
        assert len(snaps) == 1
        assert snaps[0]["metrics"]["counters"] == {"x": 1.0}
        assert [row[0] for row in snaps[0]["spans"]] == ["execute"]
        assert drain() == []  # drained instances are forgotten
    finally:
        disable_auto()
    assert Environment().obs is None


def test_runner_trace_flag_writes_obs_json(tmp_path, capsys):
    from repro.experiments.runner import main

    rc = main(["fig1", "--trace", "--metrics", "--obs-dir", str(tmp_path)])
    assert rc == 0
    assert Environment.obs_factory is None  # cleaned up afterwards
    path = tmp_path / "fig1.obs.json"
    assert path.exists()
    snaps = json.loads(path.read_text())
    assert isinstance(snaps, list) and snaps
    assert any(s["spans"] for s in snaps)
    assert any(
        s["metrics"] and s["metrics"]["counters"].get("platform.requests")
        for s in snaps
    )
    assert "[obs written to" in capsys.readouterr().out


def test_runner_obs_parallel_jobs_still_dump(tmp_path):
    """--jobs N no longer forces serial: worker snapshots are absorbed."""
    from repro.experiments.runner import main

    rc = main(["table1", "--jobs", "4", "--metrics", "--obs-dir", str(tmp_path)])
    assert rc == 0
    assert Environment.obs_factory is None
    snaps = json.loads((tmp_path / "table1.obs.json").read_text())
    assert isinstance(snaps, list) and snaps
    assert all(s["spans"] is None for s in snaps)  # tracing was off
    # table1's cells boot one runtime each; the counters crossed the
    # process boundary intact.
    assert any(
        s["metrics"] and s["metrics"]["counters"].get("runtime.boots")
        for s in snaps
    )
