"""Tests for predictive warm-pool scheduling (scheduler + dispatcher).

Covers the seeded property tests — pool size bounded by the hysteresis
band, EWMA monotone convergence under a constant rate — that runs are
identical with and without observability, that cluster nodes keep
their signals apart, plus the dispatcher's FIFO waiter wake-up, preboot
ride/claim paths, reaper protection, and cluster failover behavior.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import make_link
from repro.obs import Observability
from repro.offload import OffloadRequest
from repro.platform import (
    ArrivalRateEWMA,
    ClusterPlatform,
    ContainerDB,
    MonitorScheduler,
    PredictiveConfig,
    RattrapPlatform,
)
from repro.sim import Environment
from repro.workloads import CHESS_GAME


def _platform(env, metrics=True, config=None):
    if metrics:
        Observability(env, tracing=False, metrics=True)
    plat = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    plat.enable_predictive(config)
    plat.start_predictor()
    return plat


def _request(i, device="d0", app="chess", at=0.0, seq=0):
    return OffloadRequest(
        request_id=i, device_id=device, app_id=app, profile=CHESS_GAME,
        submitted_at=at, seq_on_device=seq,
    )


def _cluster(env, servers=2):
    return ClusterPlatform(
        env,
        servers=servers,
        policy="device-sticky",
        platform_factory=lambda e: RattrapPlatform(
            e, optimized=True, dispatch_policy="app-affinity"
        ),
    )


def _devices_on(cluster, idx, count):
    """``count`` device ids whose sticky home is node ``idx``."""
    devices = (f"dev-{i}" for i in range(1000))
    return [d for d in devices if cluster._sticky_index(d) == idx][:count]


# ----------------------------------------------------------------- EWMA
@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.01, max_value=1.0),
    rate=st.integers(min_value=1, max_value=20),
    ticks=st.integers(min_value=1, max_value=50),
)
def test_ewma_monotone_under_constant_rate(alpha, rate, ticks):
    """From zero, a constant arrival rate converges monotonically."""
    ewma = ArrivalRateEWMA(alpha=alpha, tick_s=1.0)
    previous = 0.0
    for _ in range(ticks):
        for _ in range(rate):
            ewma.observe("app")
        ewma.tick()
        estimate = ewma.rate("app")
        assert previous <= estimate <= rate + 1e-9
        previous = estimate


def test_ewma_decays_after_demand_stops():
    ewma = ArrivalRateEWMA(alpha=0.5, tick_s=1.0)
    for _ in range(10):
        ewma.observe("app")
        ewma.tick()
    peak = ewma.rate("app")
    for _ in range(10):
        ewma.tick()
    assert ewma.rate("app") < peak * 0.01


@pytest.mark.parametrize("busy_neighbour", [False, True])
def test_ewma_idle_rate_reaches_exactly_zero(busy_neighbour):
    """The decay's rounding sticks at a subnormal (1e-323 at alpha 0.2);
    a rate below the smallest normal float reads exactly 0.  With a
    busy neighbour the fold runs the counted branch instead."""
    ewma = ArrivalRateEWMA(alpha=0.2, tick_s=1.0)
    ewma.observe("app")
    ewma.tick()
    rates = [ewma.rate("app")]
    for _ in range(3400):
        if busy_neighbour:
            ewma.observe("other")
        ewma.tick()
        rates.append(ewma.rate("app"))
    assert ewma.rate("app") == 0.0
    assert ewma.estimates["app"] == 0.0
    # Above the floor every fold is the plain geometric one.
    for prev, rate in zip(rates, rates[1:]):
        if rate:
            assert rate == prev + 0.2 * (0.0 - prev)
            assert rate >= sys.float_info.min


def test_ewma_validation():
    with pytest.raises(ValueError):
        ArrivalRateEWMA(alpha=0.0)
    with pytest.raises(ValueError):
        ArrivalRateEWMA(alpha=1.5)
    with pytest.raises(ValueError):
        ArrivalRateEWMA(tick_s=0.0)


# ------------------------------------------------------------ pool bounds
def test_pool_bounded_by_max_pool_under_load():
    """Spares + in-flight pre-boots never exceed the configured cap."""
    env = Environment()
    cfg = PredictiveConfig(max_pool=2, hold_s=1000.0)
    plat = _platform(env, config=cfg)
    link = make_link("lan-wifi")

    procs = [
        plat.submit(_request(i, device=f"d{i}", at=i * 0.05), link)
        for i in range(30)
    ]

    def watch(env):
        for _ in range(200):
            yield env.timeout(0.5)
            assert plat.dispatcher.pool_size("chess") <= cfg.max_pool + 1

    env.process(watch(env))
    for p in procs:
        env.run(until=p)
    assert plat.predictor.ticks > 0


def test_pool_drains_after_demand_fades():
    """Hysteresis: after hold_s with no arrivals, spares are drained."""
    env = Environment()
    cfg = PredictiveConfig(hold_s=20.0, drain_ticks=2)
    plat = _platform(env, config=cfg)
    link = make_link("lan-wifi")
    for i in range(5):
        env.run(until=plat.submit(_request(i, device=f"d{i}", seq=0), link))
    env.run(until=env.now + 300.0)
    assert plat.dispatcher.pool_spares("chess") == 0
    # The rate estimate decayed below the watermark and the hold lapsed.
    assert plat.predictor.target_pool("chess") == 0


def _waves(servers, observe):
    """Three waves of chess requests, 200 s apart, through a predictive
    node or cluster; what a run decided, request by request."""
    env = Environment()
    if observe:
        Observability(env, tracing=False, metrics=True)
    cfg = PredictiveConfig(hold_s=1000.0)
    if servers == 1:
        plat = _platform(env, metrics=False, config=cfg)
        nodes = [plat]
    else:
        plat = _cluster(env, servers)
        plat.enable_predictive(cfg)
        plat.start_predictors()
        nodes = plat.nodes
    plat.start_idle_reaper(idle_timeout_s=120.0)
    link = make_link("lan-wifi")
    procs = []

    def inflow(env):
        for wave in range(3):
            for d in range(6):
                rid = wave * 6 + d
                procs.append(plat.submit(
                    _request(rid, device=f"dev-{d}", at=env.now, seq=wave), link
                ))
                yield env.timeout(0.3)
            yield env.timeout(200.0)

    env.run(until=env.process(inflow(env)))
    results = [env.run(until=p) for p in procs]
    served = [(r.request.request_id, r.executed_on, r.response_time) for r in results]
    counters = [
        (
            n.dispatcher.cold_boots,
            n.dispatcher.boot_stalls,
            n.dispatcher.preboots,
            n.dispatcher.preboot_hits,
            n.dispatcher.pool_drained,
        )
        for n in nodes
    ]
    return served, counters


@pytest.mark.parametrize("servers", [1, 2])
def test_predictor_identical_with_and_without_observability(servers):
    """Observability only exports: the predictor pre-boots and dispatch
    ranks the same whether or not a metrics registry is attached."""
    served, counters = _waves(servers, observe=False)
    assert len(served) == 18
    assert sum(c[2] for c in counters) > 0  # the predictor did pre-boot
    assert _waves(servers, observe=True) == (served, counters)


def test_enable_predictive_requires_app_affinity():
    env = Environment()
    plat = RattrapPlatform(env, optimized=True)  # per-device policy
    with pytest.raises(ValueError, match="app-affinity"):
        plat.enable_predictive()


def test_default_platform_pays_zero_predictive_cost():
    """No predictor attached: no pool state, counters stay untouched."""
    env = Environment()
    plat = RattrapPlatform(env, optimized=True)
    link = make_link("lan-wifi")
    env.run(until=plat.submit(_request(0), link))
    d = plat.dispatcher
    assert plat.predictor is None
    assert d._pool_factory is None
    assert (d.preboots, d.preboot_hits, d.pool_drained) == (0, 0, 0)
    assert not plat.scheduler.tail_ranking


# ----------------------------------------------------------- warm dispatch
def test_late_request_lands_warm_via_retention():
    """A request after the reaper window dispatches without a stall: the
    predictor's reaper protection keeps the first runtime (``cid-1``)
    warm, and dispatch prefers it over the pre-booted spares."""
    env = Environment()
    cfg = PredictiveConfig(hold_s=1000.0)
    plat = _platform(env, config=cfg)
    plat.start_idle_reaper(idle_timeout_s=120.0)
    link = make_link("lan-wifi")
    for i in range(5):
        env.run(until=plat.submit(_request(i, device=f"d{i}", at=env.now), link))
    stalls_before = plat.dispatcher.boot_stalls
    env.run(until=env.now + 300.0)  # reaper would kill an unprotected runtime
    r = env.run(until=plat.submit(_request(99, device="d99", at=env.now, seq=1), link))
    assert not r.blocked
    assert plat.dispatcher.boot_stalls == stalls_before
    assert plat.dispatcher.warmable_stalls == 0


def test_reaper_protection_keeps_target_pool_warm():
    env = Environment()
    cfg = PredictiveConfig(hold_s=1000.0)
    plat = _platform(env, config=cfg)
    link = make_link("lan-wifi")
    r = env.run(until=plat.submit(_request(0), link))
    env.run(until=env.now + 200.0)
    protected = plat.predictor.protected_cids()
    assert r.executed_on in protected
    assert plat.reap_idle_runtimes(idle_timeout_s=120.0) == []


def test_preboot_riders_share_one_boot():
    """Same-app arrivals during a pre-boot ride it instead of cold-booting."""
    env = Environment()
    plat = _platform(env, config=PredictiveConfig())
    link = make_link("lan-wifi")
    assert plat.dispatcher.preboot("chess") is not None
    p1 = plat.submit(_request(0, device="d0"), link)
    p2 = plat.submit(_request(1, device="d1"), link)
    r1 = env.run(until=p1)
    r2 = env.run(until=p2)
    assert plat.dispatcher.cold_boots == 0
    assert r1.executed_on == r2.executed_on
    assert plat.dispatcher.preboot_hits >= 1


def _pool_platform(env):
    """Predictive platform whose pool moves only when a test pre-boots."""
    plat = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    plat.enable_predictive()
    return plat


def test_request_takes_settled_spare():
    env = Environment()
    plat = _pool_platform(env)
    spare = plat.dispatcher.preboot("chess")
    env.run(until=10.0)
    assert spare.runtime.is_ready
    r = env.run(until=plat.submit(_request(0, at=env.now), make_link("lan-wifi")))
    d = plat.dispatcher
    assert r.executed_on == spare.cid
    assert (d.preboot_hits, d.cold_boots, d.boot_stalls) == (1, 0, 0)
    assert d.pool_spares("chess") == 0


def test_riders_reacquire_when_preboot_crashes():
    """Requests riding a pre-boot that dies cold-boot one runtime."""
    env = Environment()
    plat = _pool_platform(env)
    link = make_link("lan-wifi")
    spare = plat.dispatcher.preboot("chess")
    p1 = plat.submit(_request(0, device="d0"), link)
    p2 = plat.submit(_request(1, device="d1"), link)
    env.run(until=0.5)
    assert plat.crash_runtime(spare.cid)
    r1 = env.run(until=p1)
    r2 = env.run(until=p2)
    d = plat.dispatcher
    assert r1.executed_on == r2.executed_on == "cid-2"
    assert (d.cold_boots, d.preboot_hits, d.boot_stalls) == (1, 0, 4)
    assert [r.cid for r in plat.db.all_records()] == ["cid-2"]


def test_preboot_refused_while_offline():
    env = Environment()
    plat = _pool_platform(env)
    plat.fail_node()
    assert plat.dispatcher.preboot("chess") is None
    assert plat.dispatcher.preboots == 0


def test_preboot_propagates_factory_bugs():
    """Only the offline refusal reads as "no spare"; a bug is loud."""
    env = Environment()
    plat = _pool_platform(env)

    def broken(cid, app_id):
        raise TypeError("factory bug")

    plat.dispatcher._pool_factory = broken
    with pytest.raises(TypeError, match="factory bug"):
        plat.dispatcher.preboot("chess")


# ----------------------------------------------------------- FIFO waiters
def test_boot_waiters_wake_fifo_by_request_id():
    """Same-boot waiters acquire in request-id order, not set order."""
    env = Environment()
    plat = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    link = make_link("lan-wifi")
    order = []

    def client(env, rid):
        record = yield from plat.dispatcher.acquire(_request(rid, device=f"d{rid}"))
        order.append(rid)
        return record

    procs = [env.process(client(env, rid)) for rid in (3, 1, 4, 2, 0)]
    for p in procs:
        env.run(until=p)
    # The initiator (first submitter, rid 3) resumes first; the joiners
    # wake strictly by request id.
    assert order[0] == 3
    assert order[1:] == [0, 1, 2, 4]


# ------------------------------------------------------------ tail-aware
def test_tail_ranking_avoids_drifting_runtime():
    env = Environment()
    plat = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    plat.enable_predictive()
    sched = plat.scheduler
    assert sched.tail_ranking
    for _ in range(20):
        sched.note_response("cac-slow", 9.0)
        sched.note_response("cac-fast", 0.5)
    assert sched.tail_p95("cac-slow") > sched.tail_p95("cac-fast") > 0.0
    assert sched.tail_p95("cac-none") == 0.0  # no data yet


# --------------------------------------------------------------- cluster
def test_cluster_failover_grows_surviving_pools():
    env = Environment()
    Observability(env, tracing=False, metrics=True)
    cluster = _cluster(env)
    cluster.enable_predictive(PredictiveConfig(hold_s=1000.0))
    cluster.start_predictors()
    link = make_link("lan-wifi")
    procs = [
        cluster.submit(_request(i, device=f"dev-{i}", at=i * 0.2), link)
        for i in range(8)
    ]
    for p in procs:
        env.run(until=p)
    assert all(node.predictor is not None for node in cluster.nodes)

    # Take one node dark: its predictor skips ticks (no boom, no boots),
    # and rehashed traffic keeps flowing through the survivor.
    cluster.nodes[0].fail_node("maintenance")
    dark_preboots = cluster.nodes[0].dispatcher.preboots
    more = [
        cluster.submit(_request(100 + i, device=f"dev-{i}", at=env.now, seq=1), link)
        for i in range(8)
    ]
    done = 0
    for p in more:
        try:
            env.run(until=p)
            done += 1
        except Exception:
            pass
    assert done == 8  # sticky devices failed over to the live node
    assert cluster.nodes[0].dispatcher.preboots == dark_preboots
    env.run(until=env.now + 30.0)
    assert cluster.nodes[0].dispatcher.preboots == dark_preboots


def _replayed_tail(response_times):
    """The decayed p95 a fresh scheduler gives these responses."""
    sched = MonitorScheduler(Environment(), ContainerDB())
    for rt in response_times:
        sched.note_response("cid-1", rt)
    return sched.tail_p95("cid-1")


def test_cluster_nodes_keep_their_tails_apart():
    """Both nodes number their first runtime cid-1; each node's tail
    estimate for it sees only the responses that node served."""
    env = Environment()
    Observability(env, tracing=False, metrics=True)
    cluster = _cluster(env)
    cluster.enable_predictive()  # tail ranking on, no tick loop: no spares
    links = (make_link("lan-wifi"), make_link("3g"))
    devices = {0: iter(_devices_on(cluster, 0, 3)), 1: iter(_devices_on(cluster, 1, 5))}
    served = {0: [], 1: []}
    for rid, idx in enumerate((0, 1, 0, 1, 0, 1, 1, 1)):
        r = env.run(until=cluster.submit(
            _request(rid, device=next(devices[idx]), at=env.now), links[idx]
        ))
        assert r.executed_on == "cid-1"
        served[idx].append(r.response_time)
    fast, slow = cluster.nodes
    assert fast.scheduler.tail_p95("cid-1") == _replayed_tail(served[0])
    assert slow.scheduler.tail_p95("cid-1") == _replayed_tail(served[1])


def test_cluster_predictors_sample_only_their_own_boots():
    """One app cold-booting on node 0, three on node 1: each predictor's
    pending-boot sample counts its own dispatcher's boots."""
    env = Environment()
    Observability(env, tracing=False, metrics=True)
    cluster = _cluster(env)
    cluster.enable_predictive()
    cluster.start_predictors()
    link = make_link("lan-wifi")
    rid = 0
    for idx, apps in ((0, ["chess"]), (1, ["chess", "a1", "a2"])):
        for device, app in zip(_devices_on(cluster, idx, len(apps)), apps):
            cluster.submit(_request(rid, device=device, app=app), link)
            rid += 1
    env.run(until=1.5)  # first predictor tick at t=1, boots still running
    samples = [list(node.predictor._pending_samples) for node in cluster.nodes]
    assert [n.dispatcher.pending_boots() for n in cluster.nodes] == [1, 3]
    assert samples == [[1], [3]]


def test_predictive_experiment_ab_in_both_scenarios():
    """The opt-in A/B: in each scenario both arms serve the same inflow,
    and the predictor removes at least 80 % of the warm-capable stalls."""
    from repro.experiments import predictive

    data = predictive.run()
    assert sorted(data) == sorted(predictive.SCENARIOS)
    for scenario in predictive.SCENARIOS:
        react, pred = data[scenario]["reactive"], data[scenario]["predictive"]
        assert react["served"] == pred["served"] > 0
        assert react["warmable_stalls"] > 0
        assert pred["warmable_stalls"] <= 0.2 * react["warmable_stalls"]
    text = predictive.report(data)
    for scenario in predictive.SCENARIOS:
        assert f"\n{scenario} (" in text
    assert text.count("warm-capable cold-boot stalls") == 2


def test_cluster_nodes_export_their_own_pool_gauges():
    """A 3-node replay with metrics: each node's predictor writes its
    own ``sched.*`` gauges, and the target gauge ends at that node's
    ``target_pool`` (1, 2 and 4 devices' requests per second)."""
    env = Environment()
    obs = Observability(env, tracing=False, metrics=True)
    cluster = _cluster(env, servers=3)
    cluster.enable_predictive(PredictiveConfig(max_pool=8, hold_s=1000.0))
    cluster.start_predictors()
    link = make_link("lan-wifi")
    load = {0: 1, 1: 2, 2: 4}
    devices = {idx: _devices_on(cluster, idx, n) for idx, n in load.items()}

    def feeder(env):
        rid = 0
        for second in range(20):
            for idx in load:
                for device in devices[idx]:
                    cluster.submit(_request(rid, device=device, at=env.now), link)
                    rid += 1
            yield env.timeout(1.0)

    env.process(feeder(env))
    env.run(until=20.5)
    gauges = obs.metrics.snapshot()["gauges"]
    targets = [node.predictor.target_pool("chess") for node in cluster.nodes]
    assert len(set(targets)) == 3  # the nodes' loads are told apart
    for i, node in enumerate(cluster.nodes):
        assert gauges[f"sched.target_pool.node{i}.chess"]["value"] == targets[i]
        rate = node.predictor.rates.rate("chess")
        assert gauges[f"sched.arrival_rate.node{i}.chess"]["max"] >= rate > 0
