"""The control plane's fast paths change nothing a run can observe.

A settled warm-pool predictor sleeps through its quiet ticks and
re-checks only what moved on the others; the idle reaper sleeps through
scans that cannot reap, and reuses its last scan and the predictor's
last protected set while the Container DB stands still.  The property
below replays random arrival schedules into 1-3 node clusters with the
predictor and the reaper on, once as shipped and once with both loops
replaced by the plain algorithm, written out below, woken on every
instant: a tick that folds every rate, computes every target and
reconciles every app, and a reaper that scans every record and computes
protection afresh.  The predictor's rates (bit for bit), pending-boot
samples, targets, pre-boots and drains at every tick it wakes for,
every reap, the final dispatcher counters and the metrics snapshot's
counters, histograms and gauge maxima must agree, and the shipped run
may not schedule more kernel events.
"""

import math
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import make_link
from repro.obs import Observability, metrics_of
from repro.offload import OffloadRequest
from repro.platform import ClusterPlatform, PredictiveConfig, RattrapPlatform
from repro.platform.base import CloudPlatform
from repro.platform.scheduler import HEADROOM, LOW_WATERMARK, WarmPoolPredictor
from repro.sim import Environment, Ticker
from repro.workloads import CHESS_GAME, OCR, VIRUS_SCAN

PROFILES = {p.name: p for p in (CHESS_GAME, OCR, VIRUS_SCAN)}
COUNTERS = (
    "cold_boots",
    "warm_dispatches",
    "preboots",
    "preboot_hits",
    "pool_drained",
    "preboot_refusals",
    "boot_stalls",
    "warmable_stalls",
)


def _reference_target(predictor, app_id):
    """``target_pool`` computed from scratch."""
    cfg = predictor.cfg
    now = predictor.platform.env.now
    floor = predictor.platform.dispatcher.pool_floors.get(app_id, 0)
    demand = predictor._rates.rate(app_id) * predictor.boot_estimate_s() * HEADROOM
    last = predictor._last_arrival
    held = app_id in last and now - last[app_id] <= cfg.hold_s
    if demand < LOW_WATERMARK and not held:
        return min(floor, cfg.max_pool)
    target = max(1, math.ceil(demand), floor)
    trend = predictor.pending_boots_trend()
    if trend > 0:
        target += trend
    return min(target, cfg.max_pool)


def _reference_tick(predictor):
    """One predictor tick: fold every rate, reconcile every app.

    Returns the targets it reconciled to (None on an offline tick).
    """
    predictor._ticks += 1
    ewma = predictor._rates
    counts, rates = ewma._counts, ewma._rates
    for app_id in counts:
        if app_id not in rates:
            rates[app_id] = 0.0
    for app_id, prev in rates.items():
        inst = counts.get(app_id, 0) / ewma.tick_s
        rate = prev + ewma.alpha * (inst - prev)
        # an idle rate below the smallest normal float reads 0
        rates[app_id] = rate if rate >= sys.float_info.min else 0.0
    counts.clear()
    platform = predictor.platform
    if platform.offline:
        predictor._surplus_ticks.clear()
        return None
    dispatcher = platform.dispatcher
    predictor._pending_samples.append(dispatcher.pending_boots())
    metrics = metrics_of(platform.env)
    node = platform.node_name
    targets = {}
    for app_id in ewma.apps():
        target = targets[app_id] = _reference_target(predictor, app_id)
        if metrics is not None:
            rate = ewma.rate(app_id)
            metrics.gauge(f"sched.arrival_rate.{node}.{app_id}").set(rate)
            metrics.gauge(f"sched.target_pool.{node}.{app_id}").set(target)
        have = len(platform.db.with_app(app_id)) + dispatcher.pool_size(app_id)
        surplus = predictor._surplus_ticks
        if have < target:
            for _ in range(target - have):
                if dispatcher.preboot(app_id) is None:
                    break
            surplus[app_id] = 0
        elif have > target:
            surplus[app_id] = streak = surplus.get(app_id, 0) + 1
            if streak >= predictor.cfg.drain_ticks and dispatcher.drain_pool(app_id):
                predictor.drains += 1
        else:
            surplus[app_id] = 0
    return targets


def _reference_protected(predictor):
    """``protected_cids`` computed from scratch."""
    dispatcher = predictor.platform.dispatcher
    out = set(dispatcher.pooled_cids())
    capacity = dispatcher.pool_capacity
    budget = math.inf if capacity is None else max(0, capacity - len(out))
    floors = dispatcher.pool_floors
    for app_id in sorted(predictor._rates.apps(), key=lambda a: -floors.get(a, 0)):
        if budget <= 0:
            break
        need = _reference_target(predictor, app_id) - dispatcher.pool_spares(app_id)
        if need <= 0:
            continue
        need = int(min(need, budget))
        for record in predictor.platform.db.with_app(app_id):
            if record.active_requests == 0 and record.cid not in out:
                out.add(record.cid)
                budget -= 1
                need -= 1
                if need == 0:
                    break
    return out


def _reference_reap(platform, idle_timeout_s):
    """The idle reaper as a scan of every record ever registered."""
    now = platform.env.now
    protected = (
        _reference_protected(platform.predictor)
        if platform.predictor is not None
        else None
    )
    reaped = []
    for record in platform.db.all_records():
        if (
            record.active_requests == 0
            and now - max(record.last_used, record.created_at) > idle_timeout_s
            and record.runtime.is_ready
            and (protected is None or record.cid not in protected)
        ):
            record.runtime.stop()
            reaped.append(record.cid)
    return reaped


@st.composite
def scenarios(draw):
    arrivals = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3000).map(lambda t: t / 10),
                st.sampled_from(sorted(PROFILES)),
                st.integers(0, 7),
            ),
            max_size=30,
        )
    )
    return {
        "servers": draw(st.integers(1, 3)),
        "config": PredictiveConfig(
            tick_s=draw(st.sampled_from((0.5, 1.0, 5.0))),
            alpha=draw(st.sampled_from((0.2, 0.5, 1.0))),
            max_pool=draw(st.integers(1, 4)),
            hold_s=draw(st.sampled_from((0.0, 3.0, 40.0, 400.0, math.inf))),
            drain_ticks=draw(st.integers(1, 3)),
            pool_capacity=draw(st.sampled_from((None, 1, 3))),
            pool_floors=draw(st.sampled_from(((), (("chess", 1),), (("ocr", 2),)))),
        ),
        "idle_timeout_s": draw(st.sampled_from((2.0, 20.0, 120.0))),
        "check_s": draw(st.sampled_from((1.0, 5.0, 10.0))),
        "arrivals": sorted(arrivals),
    }


def _replay(scenario, fast):
    """Run one scenario; returns everything the comparison looks at.

    The plain run (``fast=False``) wakes both loops on every instant of
    their tickers, so it is the every-tick loop the sleepers stand for.
    """
    env = Environment()
    obs = Observability(env, tracing=False, metrics=True)
    cluster = ClusterPlatform(
        env,
        servers=scenario["servers"],
        platform_factory=lambda e: RattrapPlatform(e, dispatch_policy="app-affinity"),
    )
    cluster.enable_predictive(scenario["config"])
    log = []
    node_of = {id(node.predictor): i for i, node in enumerate(cluster.nodes)}
    tick = WarmPoolPredictor.tick
    reap = CloudPlatform.reap_idle_runtimes

    def logged_tick(predictor):
        if fast:
            tick(predictor)
            targets = None if predictor.platform.offline else predictor._targets
        else:
            targets = _reference_tick(predictor)
        dispatcher = predictor.platform.dispatcher
        log.append((
            "tick",
            node_of[id(predictor)],
            env.now,
            list(predictor.rates.estimates.items()),
            list(predictor._pending_samples),
            targets,
            predictor.drains,
            tuple(getattr(dispatcher, name) for name in COUNTERS),
        ))

    def logged_reap(platform, idle_timeout_s):
        reaped = (reap if fast else _reference_reap)(platform, idle_timeout_s)
        log.append(("reap", env.now, list(reaped)))
        return reaped

    patches = [
        mock.patch.object(WarmPoolPredictor, "tick", logged_tick),
        mock.patch.object(CloudPlatform, "reap_idle_runtimes", logged_reap),
    ]
    if not fast:
        patches += [
            mock.patch.object(Ticker, "sleep", lambda ticker, *_, **__: ticker.wake()),
            mock.patch.object(
                CloudPlatform, "_plan_reaper", lambda node, _t: node._reaper.wake()
            ),
        ]
    for patch in patches:
        patch.start()
    try:
        cluster.start_predictors()
        cluster.start_idle_reaper(scenario["idle_timeout_s"], scenario["check_s"])
        links = {}

        def feeder(env):
            for rid, (at, app, device) in enumerate(scenario["arrivals"]):
                if at > env.now:
                    yield env.timeout(at - env.now)
                name = f"dev-{device}"
                link = links.setdefault(name, make_link("lan-wifi"))
                request = OffloadRequest(
                    request_id=rid,
                    device_id=name,
                    app_id=app,
                    profile=PROFILES[app],
                    submitted_at=env.now,
                )
                cluster.submit(request, link).defused = True

        env.process(feeder(env))
        env.run(until=900.0)
    finally:
        for patch in patches:
            patch.stop()
    counters = [
        tuple(getattr(node.dispatcher, name) for name in COUNTERS)
        for node in cluster.nodes
    ]
    ticks = [node.predictor.ticks for node in cluster.nodes]
    snapshot = obs.metrics.snapshot()
    maxima = {name: g["max"] for name, g in snapshot["gauges"].items()}
    outcome = (counters, ticks, snapshot["counters"], snapshot["histograms"], maxima)
    return log, outcome, env.event_count


def _assert_same_run(fast, full):
    """The sleepers' run against the every-tick one."""
    log, outcome, events = fast
    full_log, full_outcome, full_events = full
    ticks = {entry[1:3]: entry for entry in full_log if entry[0] == "tick"}
    wakes = [entry for entry in log if entry[0] == "tick"]
    assert wakes == [ticks[entry[1:3]] for entry in wakes]  # state at each wake
    assert [e for e in log if e[0] == "reap" and e[2]] == [
        e for e in full_log if e[0] == "reap" and e[2]
    ]  # every reap
    assert outcome == full_outcome
    assert events <= full_events


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios())
# one arrival, then a long idle: the rate decays into the subnormals
@example(scenario={
    "servers": 1,
    "config": PredictiveConfig(tick_s=0.5, alpha=0.5, max_pool=1, hold_s=0.0,
                               drain_ticks=1),
    "idle_timeout_s": 2.0,
    "check_s": 1.0,
    "arrivals": [(0.0, "chess", 0)],
})
# scans on every fifth tick, runtimes expiring and pre-boots lapsing
# under them: a reap and a tick fall due at the same instants
@example(scenario={
    "servers": 2,
    "config": PredictiveConfig(tick_s=1.0, alpha=0.5, max_pool=2, hold_s=40.0,
                               drain_ticks=1),
    "idle_timeout_s": 20.0,
    "check_s": 5.0,
    "arrivals": [(0.0, "chess", 0), (5.0, "ocr", 1), (10.0, "chess", 2),
                 (10.0, "virusscan", 3), (60.0, "ocr", 4), (125.0, "chess", 5)],
})
# the hold window lapses at 40 s, between two ticks 5 s apart: the
# scan at 41 s already re-aims without the hold and reaps
@example(scenario={
    "servers": 1,
    "config": PredictiveConfig(tick_s=5.0, alpha=0.5, max_pool=1, hold_s=40.0,
                               drain_ticks=1),
    "idle_timeout_s": 2.0,
    "check_s": 1.0,
    "arrivals": [(0.0, "chess", 0)],
})
# one retention slot under a capacity of 1: chess's runtime going idle
# takes the slot back from ocr's expired one, which the next scan reaps
@example(scenario={
    "servers": 1,
    "config": PredictiveConfig(tick_s=0.5, alpha=0.2, max_pool=1, hold_s=40.0,
                               drain_ticks=1, pool_capacity=1),
    "idle_timeout_s": 2.0,
    "check_s": 1.0,
    "arrivals": [(0.0, "chess", 0), (24.2, "ocr", 0), (32.8, "chess", 0)],
})
def test_fast_paths_match_full_reconciliation(scenario):
    _assert_same_run(_replay(scenario, fast=True), _replay(scenario, fast=False))


def test_quiet_ticks_and_reused_scans_happen():
    """The fast paths are taken: a long quiet tail neither reconciles
    nor wakes the predictor often, and the result still matches the
    full path."""
    scenario = {
        "servers": 1,
        "config": PredictiveConfig(tick_s=1.0, hold_s=400.0),
        "idle_timeout_s": 20.0,
        "check_s": 5.0,
        "arrivals": [(1.0, "chess", 0), (2.0, "ocr", 1), (30.0, "chess", 2)],
    }
    full_passes = []
    reconcile = WarmPoolPredictor._reconcile

    def counted(predictor):
        full_passes.append(predictor.ticks)
        reconcile(predictor)

    with mock.patch.object(WarmPoolPredictor, "_reconcile", counted):
        fast = _replay(scenario, fast=True)
    assert fast[1][1] == [900]  # ticks, the slept-through ones included
    wakes = sum(1 for entry in fast[0] if entry[0] == "tick")
    assert wakes <= 90
    assert len(full_passes) < wakes
    _assert_same_run(fast, _replay(scenario, fast=False))
