"""The benchmark's three workloads, built from the simulator's public API.

Each workload is split the same way so ``run.py`` can time the parts
apart:

- ``<workload>_inputs(seed)`` generates every input from the seed (pure,
  picklable, no simulator state);
- ``build(inputs, jobs)`` constructs the model up to its first simulated
  event — set-up ends when it returns;
- ``Model.run()`` executes the simulation (the timed ``wall_s``) and
  returns an :class:`Outcome` with the request accounting, the sim-time
  response samples and the deterministic statistics that go into the
  run digest.  While ``fleet`` and ``trace_mix`` run, they stamp
  ``Model.marks`` with the host clock at the end of every fixed
  simulated segment (see :func:`run_in_segments`), so ``run.py`` can
  time the same segment across repeated runs; ``sharded`` runs uncut.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.network.backhaul import ShardLink
from repro.network.link import FlowLink, Link, Mbps
from repro.network.scenarios import SCENARIOS
from repro.obs import Observability
from repro.offload.request import OffloadRequest, RequestResult
from repro.platform import (
    ClusterPlatform,
    PopulationSource,
    PredictiveConfig,
    RattrapPlatform,
)
from repro.platform.population import per_request_bytes
from repro.sim import Environment
from repro.sim.events import Event
from repro.sim.shard import EpochStats, ShardRunner, run_sharded
from repro.traces import LiveLabConfig, generate_livelab_trace, replay_trace
from repro.workloads import CHESS_GAME, LINPACK, OCR, VIRUS_SCAN
from repro.workloads.generator import ArrivalPlan

WORKLOADS = ("fleet", "trace_mix", "sharded")

#: the shared cluster shape of ``fleet`` and ``trace_mix``
SERVERS = 3
SCENARIO = "lan-wifi"

#: fleet: 10k one-shot VirusScan devices over 64 shared APs, open loop
FLEET_DEVICES = 10_000
FLEET_RATE_S = 10.0
FLEET_APS = 64
#: simulated seconds per timed segment (~500 segments of a few ms each)
FLEET_SEGMENT_S = 2.0

#: trace_mix: one LiveLab day of ~80 users over four apps
TRACE_USERS = 80
TRACE_DAYS = 1.0
#: the generated day: 7,969 records, sampled down to TRACE_REQUESTS
TRACE_DAY_SEED = 0
TRACE_REQUESTS = 7_000
#: compress the day to half: session gaps still dwarf the idle reaper,
#: and the simulated horizon halves
TRACE_TIME_SCALE = 0.5
TRACE_APPS = {p.name: p for p in (CHESS_GAME, OCR, VIRUS_SCAN, LINPACK)}
#: recurring chess positions across the player population (payload
#: digests the compute cache can hit on).  With ~1,750 chess requests
#: about half hit; together with the VirusScan hits that keeps cache
#: hits near 37 % of requests, well clear of the median, so the p50 is a
#: miss-path response on every seed
TRACE_POSITIONS = 1000
TRACE_WORK_SIGMA = 0.30
TRACE_IDLE_TIMEOUT_S = 120.0
TRACE_POOL_HOLD_S = 3600.0
#: predictor cadence; at the 1 s default the ticks' scans of every
#: runtime ever booted make one run take ~40 s on a 2-CPU host
TRACE_TICK_S = 5.0
#: simulated seconds per timed segment of the 12 h replay
TRACE_SEGMENT_S = 60.0

#: sharded: two zones, one per shard, mesoscale crowd + discrete tracers
SHARD_ZONES = 2
SHARD_DEVICES_PER_ZONE = 2_000_000
SHARD_JOBS = 2
#: one discrete tracer per thousand devices rides the real serve path
SHARD_TRACER_FRACTION = 1_000
#: every fifth tracer offloads into the neighbour zone (cross-shard)
SHARD_ROAM_EVERY = 5
SHARD_APS_PER_ZONE = 4
SHARD_POP_RATE_S = 500.0
SHARD_POP_CAPACITY_S = 520.0
SHARD_POP_START_S = 5.0
SHARD_POOL_HOLD_S = 3600.0
#: the cross-zone backhaul latency is the conservative sync window.  Each
#: round is a pipe round trip per worker whose wake-up cost swings with
#: the host's load.  At 1 s a jobs=2 run took ~4,000 rounds of ~0.5 ms
#: of work per worker, and whole runs swung 3.8-5.5 s; at 5 s it takes
#: ~810 rounds of a few ms each, and the sync wait still dominates
SHARD_BACKHAUL_S = 5.0
SHARD_BACKHAUL_BPS = 10_000 * Mbps


@dataclass
class Outcome:
    """What one simulated run produced, for checks and metrics."""

    submitted: int
    completed: int
    blocked: int
    failed: int
    #: sim-time response of every discretely served request
    responses: List[float]
    #: deterministic simulated statistics (hashed into the digest)
    sim: Dict[str, Any]
    #: simulator counters the per-layer metrics read
    counts: Dict[str, float] = field(default_factory=dict)
    #: consistency problems found while accounting the run
    errors: List[str] = field(default_factory=list)

    @property
    def unaccounted(self) -> int:
        return self.submitted - self.completed - self.blocked - self.failed


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * p)) - 1]


def digest_of(outcome: Outcome) -> str:
    """Stable hash of the run's simulated statistics.

    Floats enter through ``repr``, so any drift in the model changes
    the digest; host time never enters it.
    """
    rts = sorted(outcome.responses)
    payload = dict(outcome.sim)
    payload.update(
        submitted=outcome.submitted,
        completed=outcome.completed,
        blocked=outcome.blocked,
        failed=outcome.failed,
        samples=len(rts),
        p50=repr(percentile(rts, 0.50)) if rts else None,
        p99=repr(percentile(rts, 0.99)) if rts else None,
        response_sum=repr(math.fsum(rts)),
    )
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_in_segments(
    env: Environment, until: Optional[Event], step_s: float, marks: List[float]
) -> Any:
    """``env.run(until)``, cut at every multiple of ``step_s`` sim seconds.

    After each cut the host clock is appended to ``marks``.  A cut is
    only a pause of the event loop, so the events, their order and the
    result are those of one ``env.run(until)``; grid intervals without
    an event are skipped.  The cuts fall at the same simulated instants
    in every run of one seed, so a segment is the same work every time.
    With ``until=None`` the clock ends on the last cut, not on the last
    event.
    """
    run = Environment.run.__get__(env)
    if until is not None:
        if until.processed:
            return until.value
        # what run(until=event) installs: stop right after the event
        until.add_callback(Environment._stop_callback)
    while True:
        nxt = env.peek()
        if nxt == math.inf:
            return run(until)  # empty heap: run's own end or error
        value = run(until=(math.floor(nxt / step_s) + 1) * step_s)
        marks.append(time.perf_counter())
        if until is not None and until.processed:
            return value


def _cluster(env: Environment) -> ClusterPlatform:
    return ClusterPlatform(
        env,
        servers=SERVERS,
        policy="device-sticky",
        platform_factory=lambda e: RattrapPlatform(
            e, optimized=True, dispatch_policy="app-affinity"
        ),
    )


def _ap(name: str, rng_key: tuple) -> FlowLink:
    return FlowLink(name, rng=np.random.default_rng(rng_key), **SCENARIOS[SCENARIO])


def _node_counts(cluster: ClusterPlatform) -> Dict[str, float]:
    """Per-layer counters read off the cluster after a run."""
    dispatchers = [n.dispatcher for n in cluster.nodes]
    ios = [n.shared_layer.offload_io for n in cluster.nodes]
    houses = [n.warehouse for n in cluster.nodes]
    caches = [n.compute_cache for n in cluster.nodes if n.compute_cache is not None]
    counts = {
        "cold_boots": sum(d.cold_boots for d in dispatchers),
        "boot_stalls": sum(d.boot_stalls for d in dispatchers),
        "warm_dispatches": sum(d.warm_dispatches for d in dispatchers),
        "preboots": sum(d.preboots for d in dispatchers),
        "preboot_hits": sum(d.preboot_hits for d in dispatchers),
        "io_dedup_hits": sum(io.dedup_hits for io in ios),
        "warehouse_lookups": sum(w.lookups for w in houses),
        "warehouse_misses": sum(w.misses for w in houses),
        "cache_lookups": sum(c.lookups for c in caches),
        "cache_hits": sum(c.hits for c in caches),
        "cache_evictions": sum(c.evictions for c in caches),
    }
    return counts


# -- fleet --------------------------------------------------------------------


def fleet_inputs(seed: int) -> Dict[str, Any]:
    """FLEET_DEVICES arrivals at a steady FLEET_RATE_S.

    The seed drives the APs' latency jitter.  Arrivals are evenly spaced:
    with Poisson arrivals the p99 followed each seed's bursts (3.4-4.1 s
    over ten seeds) more than the platform.
    """
    arrivals = [i / FLEET_RATE_S for i in range(FLEET_DEVICES)]
    return {"seed": seed, "arrivals": arrivals}


class FleetModel:
    """10k VirusScan devices, one offload each, into a 3-node cluster."""

    def __init__(self, inputs: Dict[str, Any]):
        seed = inputs["seed"]
        self.env = Environment()
        self.cluster = _cluster(self.env)
        self.aps = [_ap(f"ap-{i}", (seed, i)) for i in range(FLEET_APS)]
        self.requests = [
            OffloadRequest(
                request_id=i,
                device_id=f"dev-{i}",
                app_id=VIRUS_SCAN.name,
                profile=VIRUS_SCAN,
                submitted_at=t,
            )
            for i, t in enumerate(inputs["arrivals"])
        ]
        self.procs: list = []
        self.marks: List[float] = []
        self.env.process(self._feeder(self.env))

    def _feeder(self, env):
        aps, submit, procs = self.aps, self.cluster.submit, self.procs
        for i, request in enumerate(self.requests):
            if request.submitted_at > env.now:
                yield env.timeout(request.submitted_at - env.now)
            procs.append(submit(request, aps[i % FLEET_APS]))

    def run(self) -> Outcome:
        # No background process is attached, so the heap drains exactly
        # when the last request completes.
        run_in_segments(self.env, None, FLEET_SEGMENT_S, self.marks)
        completed = blocked = failed = 0
        responses: List[float] = []
        errors: List[str] = []
        for proc in self.procs:
            if not proc.triggered:
                continue  # unaccounted: caught by the conservation check
            if not proc.ok:
                failed += 1
                continue
            result: RequestResult = proc.value
            if result.blocked:
                blocked += 1
            else:
                completed += 1
                responses.append(result.response_time)
        if len(self.procs) != len(self.requests):
            errors.append(
                f"{len(self.requests) - len(self.procs)} request(s) never submitted"
            )
        counts = _node_counts(self.cluster)
        counts["events"] = self.env.event_count
        counts["peak_flows"] = max(ap.peak_flows for ap in self.aps)
        return Outcome(
            submitted=len(self.requests),
            completed=completed,
            blocked=blocked,
            failed=failed,
            responses=responses,
            sim={
                "sim_end": repr(self.env.now),
                "events": self.env.event_count,
                "cold_boots": counts["cold_boots"],
                "dedup_hits": counts["io_dedup_hits"],
                "node_loads": self.cluster.node_loads(),
            },
            counts=counts,
            errors=errors,
        )


# -- trace_mix ----------------------------------------------------------------


def trace_mix_inputs(seed: int) -> Dict[str, Any]:
    """One LiveLab day over four apps, as picklable arrival rows.

    The day itself (users, sessions, timestamps) is fixed by
    TRACE_DAY_SEED and sampled down to TRACE_REQUESTS records; ``seed``
    draws what each request carries: its task size and its chess
    position.  Days drawn per seed booted 28 to 110 runtimes, and the
    predictor and reaper scan every runtime ever booted, so their host
    time swung by 1.4 s from seed to seed; on the fixed day every seed
    boots the same runtimes.
    """
    trace = generate_livelab_trace(
        LiveLabConfig(users=TRACE_USERS, days=TRACE_DAYS),
        apps=tuple(TRACE_APPS),
        seed=TRACE_DAY_SEED,
    )
    day = np.random.default_rng(TRACE_DAY_SEED)
    keep = np.sort(day.choice(len(trace), TRACE_REQUESTS, replace=False))
    # Sessions take their app in rotation rather than at random, so the
    # app mix is exactly balanced.
    apps = tuple(TRACE_APPS)
    rng = np.random.default_rng((seed, 0x7ACE))
    rows = []
    for rid, index in enumerate(keep):
        record = trace.records[index]
        app = apps[record.session_id % len(apps)]
        scale = float(rng.lognormal(-0.5 * TRACE_WORK_SIGMA**2, TRACE_WORK_SIGMA))
        position = int(rng.integers(0, TRACE_POSITIONS))
        rows.append(
            (rid, record.time_s * TRACE_TIME_SCALE, record.user_id, app, scale, position)
        )
    return {"seed": seed, "rows": rows, "users": sorted({row[2] for row in rows})}


class TraceMixModel:
    """LiveLab replay into the cluster with every control-plane layer on."""

    def __init__(self, inputs: Dict[str, Any]):
        seed = inputs["seed"]
        self.env = Environment()
        # The predictor reads its signals from the metrics registry.
        Observability(self.env, tracing=False, metrics=True)
        self.cluster = _cluster(self.env)
        self.cluster.enable_compute_cache()
        self.cluster.enable_predictive(
            PredictiveConfig(tick_s=TRACE_TICK_S, hold_s=TRACE_POOL_HOLD_S)
        )
        self.cluster.start_predictors()
        seqs: Dict[tuple, int] = {}
        self.plans: List[ArrivalPlan] = []
        for rid, t, user, app, scale, position in inputs["rows"]:
            seq = seqs.get((user, app), 0)
            seqs[(user, app)] = seq + 1
            request = OffloadRequest(
                request_id=rid,
                device_id=user,
                app_id=app,
                profile=TRACE_APPS[app],
                submitted_at=t,
                seq_on_device=seq,
                work_scale=scale,
                # popular chess positions recur across players
                payload_digest=(
                    f"chess-pos-{position}" if app == CHESS_GAME.name else None
                ),
            )
            self.plans.append(ArrivalPlan(time_s=t, device_id=user, request=request))
        self.links = {
            user: _ap(f"ap-{user}", (seed, 7, i))
            for i, user in enumerate(inputs["users"])
        }
        # replay_trace drives the loop itself: cut its env.run into segments
        self.marks: List[float] = []
        self.env.run = lambda until=None: run_in_segments(
            self.env, until, TRACE_SEGMENT_S, self.marks
        )

    def run(self) -> Outcome:
        results = replay_trace(
            self.env,
            self.cluster,
            self.plans,
            self.links,
            idle_timeout_s=TRACE_IDLE_TIMEOUT_S,
        )
        completed = [r for r in results if not r.blocked]
        errors: List[str] = []
        if len(self.cluster.results) != len(results):
            errors.append(
                f"cluster collected {len(self.cluster.results)} results, "
                f"the client {len(results)}"
            )
        counts = _node_counts(self.cluster)
        counts["events"] = self.env.event_count
        counts["peak_flows"] = max(link.peak_flows for link in self.links.values())
        stats = self.cluster.cache_directory.stats()
        return Outcome(
            submitted=len(self.plans),
            completed=len(completed),
            blocked=len(results) - len(completed),
            failed=0,
            responses=[r.response_time for r in completed],
            sim={
                "sim_end": repr(self.env.now),
                "events": self.env.event_count,
                "cold_boots": counts["cold_boots"],
                "preboots": counts["preboots"],
                "cache_hits": stats["hits"],
                "warehouse_lookups": counts["warehouse_lookups"],
            },
            counts=counts,
            errors=errors,
        )


# -- sharded ------------------------------------------------------------------


def sharded_inputs(seed: int) -> Dict[str, Any]:
    """Per-zone tracer arrival instants and the population shape."""
    rng = np.random.default_rng((seed, 0x5A4D))
    tracers = max(1, SHARD_DEVICES_PER_ZONE // SHARD_TRACER_FRACTION)
    pop_n = SHARD_DEVICES_PER_ZONE - tracers
    # The crowd drains at min(rate, capacity); tracers spread over the
    # same span so they ride the real serve path while the crowd is live.
    pop_span = (pop_n - 1) / min(SHARD_POP_RATE_S, SHARD_POP_CAPACITY_S)
    tracer_last = max(pop_span - 40.0, 10.0)
    zones = []
    for z in range(SHARD_ZONES):
        times = np.sort(rng.uniform(0.0, tracer_last, tracers))
        zones.append({"zone": z, "arrivals": times.tolist(), "population": pop_n})
    return {"seed": seed, "zones": zones, "pop_span": pop_span}


def _calibrate_base_response(seed: int) -> float:
    """Warm response of one discrete request on a jitter-free AP.

    The mesoscale crowd is paced by what the discrete model serves, not
    by a hand-set constant: one cold request boots the runtime, a warm
    one two seconds later is measured.
    """
    env = Environment()
    platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    params = dict(SCENARIOS[SCENARIO], jitter_sigma=0.0)
    ap = FlowLink("calm-ap", rng=np.random.default_rng((seed, 0)), **params)
    out: Dict[str, RequestResult] = {}

    def requests(env):
        yield platform.submit(_tracer_request(0, 0, 0.0), ap)
        yield env.timeout(2.0)
        out["warm"] = yield platform.submit(_tracer_request(0, 1, env.now), ap)

    env.run(until=env.process(requests(env)))
    return out["warm"].response_time


def _tracer_request(zone: int, i: int, at: float) -> OffloadRequest:
    return OffloadRequest(
        request_id=zone * 10_000_000 + i,
        device_id=f"z{zone}-dev-{i}",
        app_id=VIRUS_SCAN.name,
        profile=VIRUS_SCAN,
        submitted_at=at,
    )


class Zone:
    """One zone: Rattrap node, APs, tracers, roamers and a population."""

    def __init__(self, env: Environment, runner: ShardRunner, spec: Dict[str, Any]):
        self.env = env
        self.runner = runner
        self.zone_id = z = spec["zone"]
        self.platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
        self.platform.enable_predictive(PredictiveConfig(hold_s=SHARD_POOL_HOLD_S))
        self.platform.start_predictor()
        self.aps = [
            _ap(f"z{z}-ap-{i}", (spec["seed"], z, i)) for i in range(SHARD_APS_PER_ZONE)
        ]
        # datacenter-side leg for visiting roamers: deterministic and fat
        self.stub = Link(
            f"z{z}-dc",
            latency_s=0.001,
            up_bw_bps=SHARD_BACKHAUL_BPS,
            down_bw_bps=SHARD_BACKHAUL_BPS,
            handshake_rounds=1,
        )
        self.backhaul = ShardLink(
            f"z{z}-backhaul", latency_s=SHARD_BACKHAUL_S, bw_bps=SHARD_BACKHAUL_BPS
        )
        self.roam_to = (z + 1) % SHARD_ZONES
        self.bytes_up_each, self.bytes_down_each = per_request_bytes(VIRUS_SCAN)
        self.requests = [
            _tracer_request(z, i, t) for i, t in enumerate(spec["arrivals"])
        ]
        self.home: List[tuple] = []
        self.roamed: Dict[int, float] = {}
        self.visitors = 0
        self.population = PopulationSource(
            env,
            VIRUS_SCAN,
            n=spec["population"],
            rate_req_s=SHARD_POP_RATE_S,
            start_s=SHARD_POP_START_S,
            base_response_s=spec["base_response_s"],
            capacity_req_s=SHARD_POP_CAPACITY_S,
            predictor=self.platform.predictor,
            name=f"z{z}-pop",
        )
        self.population.start()
        env.process(self._feeder(env))

    def _feeder(self, env):
        for i, req in enumerate(self.requests):
            if req.submitted_at > env.now:
                yield env.timeout(req.submitted_at - env.now)
            if i % SHARD_ROAM_EVERY == SHARD_ROAM_EVERY - 1:
                env.process(self._roam_out(req))
            else:
                env.process(self._serve_home(req, self.aps[i % SHARD_APS_PER_ZONE]))

    def _serve_home(self, req: OffloadRequest, ap: FlowLink):
        result = yield self.platform.submit(req, ap)
        self.home.append((req.request_id, result.response_time))

    def _roam_out(self, req: OffloadRequest):
        ap = self.aps[req.request_id % SHARD_APS_PER_ZONE]
        yield from ap.transmit(self.env, self.bytes_up_each, "up")
        self.backhaul.send(
            self.runner, self.zone_id, self.roam_to, "offload", req, self.bytes_up_each
        )

    def on_offload(self, msg) -> None:
        self.env.process(self._serve_visitor(msg.payload, msg.src))

    def _serve_visitor(self, req: OffloadRequest, origin: int):
        result = yield self.platform.submit(req, self.stub)
        self.visitors += 1
        self.backhaul.send(
            self.runner,
            self.zone_id,
            origin,
            "result",
            (req.request_id, req.submitted_at),
            result.bytes_down,
        )

    def on_result(self, msg) -> None:
        self.env.process(self._finish_roamer(*msg.payload))

    def _finish_roamer(self, request_id: int, submitted_at: float):
        ap = self.aps[request_id % SHARD_APS_PER_ZONE]
        yield from ap.transmit(self.env, self.bytes_down_each, "down")
        self.roamed[request_id] = self.env.now - submitted_at

    def summary(self) -> Dict[str, Any]:
        pop = self.population
        dispatcher = self.platform.dispatcher
        return {
            "zone": self.zone_id,
            "tracers": len(self.requests),
            "home": sorted(self.home),
            "roamed": sorted(self.roamed.items()),
            "visitors": self.visitors,
            "population": pop.summary(),
            "cold_boots": dispatcher.cold_boots,
            "boot_stalls": dispatcher.boot_stalls,
            "warm_dispatches": dispatcher.warm_dispatches,
            "preboots": dispatcher.preboots,
            "preboot_hits": dispatcher.preboot_hits,
            "io_dedup_hits": self.platform.shared_layer.offload_io.dedup_hits,
            "warehouse_lookups": self.platform.warehouse.lookups,
            "warehouse_misses": self.platform.warehouse.misses,
            "peak_flows": max(ap.peak_flows for ap in self.aps),
        }


#: hooks the traced run sets so shard workers trace themselves (see
#: run.py); unset, shard building and finalizing are untouched
SHARD_HOOKS: Dict[str, Optional[Callable]] = {"start": None, "finalize": None}


def build_shard(spec: Dict[str, Any]) -> ShardRunner:
    """Construct one shard (environment + its zones) from a picklable spec."""
    if SHARD_HOOKS["start"] is not None:
        SHARD_HOOKS["start"]()
    env = Environment()
    # The zone predictors read their signals from the metrics registry.
    Observability(env, tracing=False, metrics=True)
    runner = ShardRunner(spec["shard"], env, lookahead=SHARD_BACKHAUL_S)
    zones = {z["zone"]: Zone(env, runner, z) for z in spec["zones"]}
    runner.zones = zones
    runner.on("offload", lambda msg: zones[msg.dst].on_offload(msg))
    runner.on("result", lambda msg: zones[msg.dst].on_result(msg))
    runner.built_at = time.monotonic()
    return runner


def finalize_shard(runner: ShardRunner) -> Dict[str, Any]:
    """Reduce a finished shard to its picklable summary."""
    summary = {
        "shard": runner.shard_id,
        "zones": [zone.summary() for _, zone in sorted(runner.zones.items())],
        "events": runner.env.event_count,
        "delivered": runner.delivered,
        "built_at": runner.built_at,
    }
    if SHARD_HOOKS["finalize"] is not None:
        summary["trace"] = SHARD_HOOKS["finalize"](runner.shard_id)
    return summary


class ShardedModel:
    """Two zones on two shards, advanced by the conservative epoch loop."""

    def __init__(self, inputs: Dict[str, Any], jobs: int = SHARD_JOBS):
        self.jobs = jobs
        base = _calibrate_base_response(inputs["seed"])
        self.specs = [
            {
                "shard": z["zone"],
                "zones": [dict(z, seed=inputs["seed"], base_response_s=base)],
            }
            for z in inputs["zones"]
        ]
        self.owner = {z["zone"]: z["zone"] for z in inputs["zones"]}
        # Population end plus slack for the last roamer's round trip.
        self.horizon = SHARD_POP_START_S + inputs["pop_span"] + base + 40.0
        #: never cut: a run is timed whole (see run.wall_of)
        self.marks: List[float] = []
        self.stats = EpochStats()
        self.summaries: List[Dict[str, Any]] = []

    def run(self, until: Optional[float] = None) -> Outcome:
        self.summaries = run_sharded(
            build_shard,
            self.specs,
            self.owner,
            window=SHARD_BACKHAUL_S,
            until=self.horizon if until is None else until,
            finalize=finalize_shard,
            jobs=self.jobs,
            stats=self.stats,
        )
        return self.outcome()

    def outcome(self) -> Outcome:
        zones = [z for s in self.summaries for z in s["zones"]]
        submitted = completed = 0
        responses: List[float] = []
        errors: List[str] = []
        for z in zones:
            pop = z["population"]
            submitted += z["tracers"] + pop["devices"]
            completed += len(z["home"]) + len(z["roamed"]) + pop["completed"]
            responses.extend(rt for _, rt in z["home"])
            responses.extend(rt for _, rt in z["roamed"])
        visitors = sum(z["visitors"] for z in zones)
        roamed = sum(len(z["roamed"]) for z in zones)
        if visitors != roamed:
            errors.append(f"{visitors} visitors served but {roamed} roamers returned")
        counts: Dict[str, float] = {}
        for key in (
            "cold_boots", "boot_stalls", "warm_dispatches", "preboots",
            "preboot_hits", "io_dedup_hits", "warehouse_lookups",
            "warehouse_misses",
        ):
            counts[key] = sum(z[key] for z in zones)
        counts["events"] = sum(s["events"] for s in self.summaries)
        counts["peak_flows"] = max(z["peak_flows"] for z in zones)
        counts["cross_messages"] = sum(s["delivered"] for s in self.summaries)
        counts["epochs_run"] = self.stats.epochs_run
        counts["epochs_skipped"] = self.stats.epochs_skipped
        counts["sync_wait_s"] = self.stats.sync_wall_s
        return Outcome(
            submitted=submitted,
            completed=completed,
            blocked=0,
            failed=0,
            responses=responses,
            sim={
                "events": counts["events"],
                "cold_boots": counts["cold_boots"],
                "preboots": counts["preboots"],
                "cross_messages": counts["cross_messages"],
                "epochs_run": self.stats.epochs_run,
                "epochs_skipped": self.stats.epochs_skipped,
                "population_mean": [
                    repr(z["population"]["mean_response_s"]) for z in zones
                ],
            },
            counts=counts,
            errors=errors,
        )


INPUTS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "fleet": fleet_inputs,
    "trace_mix": trace_mix_inputs,
    "sharded": sharded_inputs,
}


def build(workload: str, inputs: Dict[str, Any], jobs: int = SHARD_JOBS):
    """Construct the model of ``workload`` up to its first simulated event."""
    if workload == "fleet":
        return FleetModel(inputs)
    if workload == "trace_mix":
        return TraceMixModel(inputs)
    if workload == "sharded":
        return ShardedModel(inputs, jobs=jobs)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def requests_in(workload: str, inputs: Dict[str, Any]) -> int:
    """Requests a run of ``workload`` submits (for failure accounting)."""
    if workload == "fleet":
        return len(inputs["arrivals"])
    if workload == "trace_mix":
        return len(inputs["rows"])
    return sum(len(z["arrivals"]) + z["population"] for z in inputs["zones"])
