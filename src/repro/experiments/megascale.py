"""Megascale experiment (extension) — 1M devices on the sharded kernel.

The ROADMAP's north star is "heavy traffic from millions of users";
``make scale`` tops out at 10k devices in one event heap.  This
experiment composes the two kernel layers built for that regime:

- **Sharded DES** (:mod:`repro.sim.shard`): the world is partitioned
  into *zones* — one optimized Rattrap node, its WiFi APs, its tracer
  devices, its device population — packed onto shards that advance
  under a conservative sync window equal to the cross-shard backhaul
  latency (:class:`~repro.network.backhaul.ShardLink`).  Roaming
  tracers offload into the *next* zone, so every run exercises the
  cross-shard message path.
- **Mesoscale populations** (:class:`~repro.platform.population
  .PopulationSource`): the cold crowd is an analytic arrival aggregate
  calibrated against a discrete probe request, so kernel events scale
  with simulated time, not with devices.  Tracer devices stay fully
  discrete and ride the real serve path.

Three cells pin the method before the headline:

- **anchor** — a small zone run twice, fully discrete vs mesoscale,
  with jitter-free links: conserved totals (requests completed, bytes
  transferred, device energy) must match *exactly*, and mean response
  within float tolerance (see docs/PERFORMANCE.md for why the fluid
  closed forms are exact for this deterministic system).
- **identity** — a fully discrete two-zone config with roamers in both
  directions, run as one shard and as two: the per-zone summaries must
  be byte-identical, i.e. the shard count is routing detail.
- **mega** — 8 zones x 125 000 devices = 1 000 000 devices; reports
  simulated requests per wall-clock second (target: >= 100k).

Run via ``make megascale`` (or ``make megascale-smoke`` for the 50k /
2-shard CI variant); not part of the default suite.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

from ..analysis import render_table
from ..network.backhaul import ShardLink
from ..network.link import FlowLink, Link, Mbps
from ..network.scenarios import SCENARIOS
from ..obs import Observability, merge_metrics_snapshots
from ..offload.power import PowerModel
from ..offload.request import OffloadRequest
from ..platform import (
    ComputeCacheConfig,
    PopulationSource,
    PredictiveConfig,
    RattrapPlatform,
)
from ..platform.population import per_request_bytes
from ..sim import Environment
from ..sim.shard import EpochStats, ShardRunner, run_sharded
from ..workloads import VIRUS_SCAN
from .common import open_loop_feeder

__all__ = ["run", "report", "cells", "merge", "MEGA_ZONES", "MEGA_DEVICES_PER_ZONE"]

SCENARIO = "lan-wifi"
#: every clone scans against the same signature database (dedup
#: hits); requests inherit the digest from ``VIRUS_SCAN.payload_key``

#: cross-shard backhaul: its latency IS the conservative sync window
BACKHAUL_LATENCY_S = 0.25
BACKHAUL_BW_BPS = 10_000 * Mbps  # provisioned 10 Gbps fiber

#: full megascale configuration — 8 zones x 125k devices = 1M
MEGA_ZONES = 8
MEGA_DEVICES_PER_ZONE = 125_000
#: smoke variant for CI — 2 zones x 25k = 50k devices
SMOKE_ZONES = 2
SMOKE_DEVICES_PER_ZONE = 25_000

#: mesoscale population: deterministic open-loop arrivals per zone.
#: The capacity models a scaled-out zone head (the population never
#: touches the 12-core tracer node; see docs/PERFORMANCE.md).
POP_RATE_S = 500.0
POP_CAPACITY_S = 520.0
POP_START_S = 5.0
#: one discrete tracer per thousand devices rides the real serve path
TRACER_FRACTION = 1_000
ROAM_EVERY = 5
APS_PER_ZONE = 4

#: anchor cell: small enough that discrete arrivals never overlap
#: (spacing 4s > warm response ~2.6s), so every warm request is
#: identical and the fluid aggregate is exact, not approximate
ANCHOR_DEVICES = 24
ANCHOR_RATE_S = 0.25
ANCHOR_CAPACITY_S = 2.0
ANCHOR_GAP_S = 2.0

#: identity cell: fully discrete, jittered, roamers both ways
IDENTITY_TRACERS = 40
IDENTITY_RATE_S = 0.5
IDENTITY_ROAM_EVERY = 4
IDENTITY_HORIZON_S = 110.0


def _request(zone: int, i: int, submitted_at: float) -> OffloadRequest:
    """One VirusScan tracer request with globally unique ids."""
    return OffloadRequest(
        request_id=zone * 10_000_000 + i,
        device_id=f"z{zone}-dev-{i}",
        app_id=VIRUS_SCAN.name,
        profile=VIRUS_SCAN,
        submitted_at=submitted_at,
    )


def _calm_ap(seed: int, zone: int, index: int = 0) -> FlowLink:
    """A jitter-free AP: the deterministic leg used for calibration."""
    params = dict(SCENARIOS[SCENARIO])
    params["jitter_sigma"] = 0.0
    return FlowLink(
        f"z{zone}-calm-ap-{index}",
        rng=np.random.default_rng((seed, zone, index)),
        **params,
    )


def _energy_j(result, model: Optional[PowerModel] = None) -> float:
    """Device-side energy of one served request (PowerTutor model)."""
    return (model or PowerModel()).offload_energy(result, SCENARIO).total_j


def _calibrate(seed: int = 1) -> Dict[str, float]:
    """Measure the warm base response in a throwaway discrete zone.

    Runs one cold request (boots the runtime, fills the code cache)
    and, after a settle gap, one warm request in an environment built
    exactly like an anchor zone.  The warm request's response time and
    energy are the mesoscale ``base_response_s`` / per-request energy —
    calibration *from the discrete model*, not hand-tuned constants.

    A third leg enables the compute cache and measures one stored-then
    -hit pair: the hit's response is the mesoscale ``hit_response_s``.
    """
    env = Environment()
    platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    ap = _calm_ap(seed, zone=0)
    out: Dict[str, Any] = {}

    def driver(env):
        out["cold"] = yield platform.submit(_request(0, 0, 0.0), ap)
        yield env.timeout(ANCHOR_GAP_S)
        out["warm"] = yield platform.submit(_request(0, 1, env.now), ap)
        platform.enable_compute_cache(ComputeCacheConfig(adaptive=False))
        yield env.timeout(ANCHOR_GAP_S)
        out["store"] = yield platform.submit(_request(0, 2, env.now), ap)
        yield env.timeout(ANCHOR_GAP_S)
        out["hit"] = yield platform.submit(_request(0, 3, env.now), ap)

    env.run(until=env.process(driver(env)))
    warm = out["warm"]
    assert out["hit"].result_cache_hit
    return {
        "base_response_s": warm.response_time,
        "energy_j": _energy_j(warm),
        "cold_response_s": out["cold"].response_time,
        "hit_response_s": out["hit"].response_time,
        "hit_energy_j": _energy_j(out["hit"]),
        "bytes_up": warm.bytes_up,
        "bytes_down": warm.bytes_down,
    }


# -- anchor: mesoscale exactness against the discrete model -------------------

def _anchor_discrete(seed: int, n: int, rate: float) -> Dict[str, Any]:
    """Fully discrete anchor arm: warm-up + n uncontended requests."""
    env = Environment()
    platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    ap = _calm_ap(seed, zone=0)

    def driver(env):
        yield platform.submit(_request(0, 0, 0.0), ap)
        start = env.now + ANCHOR_GAP_S
        requests = (_request(0, i + 1, start + i / rate) for i in range(n))
        yield from open_loop_feeder(env, platform, requests, [ap])

    env.run(until=env.process(driver(env)))
    results = platform.completed()
    warmup, warm = results[0], results[1:]
    responses = [r.response_time for r in warm]
    energies = [_energy_j(r) for r in warm]
    # Physically every warm serve is identical; recorded responses can
    # differ by a few ulps because completed-submitted rounds at
    # different absolute times.  Gate the spread at a nanosecond.
    resp_spread = max(responses) - min(responses)
    energy_spread = max(energies) - min(energies)
    uniform = resp_spread < 1e-9 and energy_spread < 1e-9
    e_warm = _energy_j(warm[0])
    return {
        "completed": len(results),
        "bytes_up": sum(r.bytes_up for r in results),
        "bytes_down": sum(r.bytes_down for r in results),
        "energy_j": _energy_j(warmup) + n * e_warm,
        "uniform": uniform,
        "response_spread_s": resp_spread,
        "energy_spread_j": energy_spread,
        "warm_response_s": warm[0].response_time,
        "mean_warm_response_s": sum(r.response_time for r in warm) / n,
        "events": env.event_count,
    }


def _anchor_meso(seed: int, n: int, rate: float) -> Dict[str, Any]:
    """Mesoscale anchor arm: same warm-up, probe-calibrated aggregate.

    The probe request *is* population device 0 — served discretely to
    measure the warm base response — and devices 1..n-1 become a
    :class:`PopulationSource` starting at device 1's arrival instant.
    """
    env = Environment()
    platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    ap = _calm_ap(seed, zone=0)
    out: Dict[str, Any] = {}

    def driver(env):
        out["warmup"] = yield platform.submit(_request(0, 0, 0.0), ap)
        start = env.now + ANCHOR_GAP_S
        yield env.timeout(start - env.now)
        probe = yield platform.submit(_request(0, 1, start), ap)
        out["probe"] = probe
        pop = PopulationSource(
            env,
            VIRUS_SCAN,
            n=n - 1,
            rate_req_s=rate,
            start_s=start + 1.0 / rate,
            base_response_s=probe.response_time,
            capacity_req_s=ANCHOR_CAPACITY_S,
            name="anchor-pop",
        )
        out["pop"] = pop
        pop.start()
        yield env.timeout(pop.end_time_s + 0.5 - env.now)

    env.run(until=env.process(driver(env)))
    warmup, probe, pop = out["warmup"], out["probe"], out["pop"]
    e_probe = _energy_j(probe)
    return {
        "completed": 1 + 1 + pop.completed,
        "bytes_up": warmup.bytes_up + probe.bytes_up + pop.completed * pop.bytes_up_each,
        "bytes_down": (
            warmup.bytes_down + probe.bytes_down + pop.completed * pop.bytes_down_each
        ),
        "energy_j": _energy_j(warmup) + n * e_probe,
        "base_response_s": probe.response_time,
        "mean_warm_response_s": (
            probe.response_time + (n - 1) * pop.mean_response_s
        ) / n,
        "events": env.event_count,
    }


def _anchor_cell(seed: int = 1) -> Dict[str, Any]:
    """Run both anchor arms and check the conserved totals match exactly."""
    d = _anchor_discrete(seed, ANCHOR_DEVICES, ANCHOR_RATE_S)
    m = _anchor_meso(seed, ANCHOR_DEVICES, ANCHOR_RATE_S)
    exact = {
        "completed": d["completed"] == m["completed"],
        "bytes_up": d["bytes_up"] == m["bytes_up"],
        "bytes_down": d["bytes_down"] == m["bytes_down"],
        "energy_j": d["energy_j"] == m["energy_j"],
    }
    return {
        "discrete": d,
        "meso": m,
        "exact": exact,
        "exact_all": d["uniform"] and all(exact.values()),
        "mean_response_delta_s": abs(
            d["mean_warm_response_s"] - m["mean_warm_response_s"]
        ),
        "devices": 2 * (ANCHOR_DEVICES + 1),
    }


# -- zones and shards ---------------------------------------------------------

class _Zone:
    """One zone: Rattrap node + APs + tracers (+ optional population)."""

    def __init__(self, env: Environment, runner: ShardRunner, spec: Dict[str, Any]):
        self.env = env
        self.runner = runner
        self.zone_id = int(spec["zone"])
        seed = spec["seed"]
        self.platform = RattrapPlatform(
            env, optimized=True, dispatch_policy="app-affinity"
        )
        if spec.get("predictive"):
            self.platform.enable_predictive(PredictiveConfig(hold_s=3600.0))
            self.platform.start_predictor()
        if spec.get("cache"):
            # Node-tier result cache: the zone's tracers share one
            # digest, so the adaptive admission self-primes (first
            # sighting ghosts, second stores, the rest hit).
            self.platform.enable_compute_cache()
        params = dict(SCENARIOS[SCENARIO])
        self.aps = [
            FlowLink(
                f"z{self.zone_id}-ap-{i}",
                rng=np.random.default_rng((seed, self.zone_id, i)),
                **params,
            )
            for i in range(spec["aps"])
        ]
        # Datacenter-side leg for visiting roamers: deterministic, fat.
        self.stub = Link(
            f"z{self.zone_id}-dc",
            latency_s=0.001,
            up_bw_bps=BACKHAUL_BW_BPS,
            down_bw_bps=BACKHAUL_BW_BPS,
            handshake_rounds=1,
        )
        self.backhaul = ShardLink(
            f"z{self.zone_id}-backhaul",
            latency_s=spec["lookahead"],
            bw_bps=BACKHAUL_BW_BPS,
        )
        self.roam_to: Optional[int] = spec.get("roam_to")
        self.roam_every: int = spec.get("roam_every", 0)
        self.bytes_up_each, self.bytes_down_each = per_request_bytes(VIRUS_SCAN)
        rate = spec["tracer_rate_s"]
        self.requests = [
            _request(self.zone_id, i, i / rate) for i in range(spec["tracers"])
        ]
        self.roam_responses: Dict[int, float] = {}
        pspec = spec.get("population")
        self.population: Optional[PopulationSource] = None
        if pspec is not None:
            self.population = PopulationSource(
                env,
                VIRUS_SCAN,
                n=pspec["n"],
                rate_req_s=pspec["rate_req_s"],
                start_s=pspec["start_s"],
                base_response_s=pspec["base_response_s"],
                capacity_req_s=pspec["capacity_req_s"],
                predictor=self.platform.predictor,
                name=f"z{self.zone_id}-pop",
                cache_hit_rate=pspec.get("cache_hit_rate", 0.0),
                hit_response_s=pspec.get("hit_response_s"),
            )
            self.population.start()
        env.process(self._feeder(env))

    def _is_roamer(self, i: int) -> bool:
        """Does tracer ``i`` offload into the neighbour zone?"""
        return (
            self.roam_to is not None
            and self.roam_every > 0
            and i % self.roam_every == self.roam_every - 1
        )

    def _feeder(self, env):
        """Submit every tracer at its deterministic arrival instant."""
        for i, req in enumerate(self.requests):
            if req.submitted_at > env.now:
                yield env.timeout(req.submitted_at - env.now)
            if self._is_roamer(i):
                env.process(self._roam_out(req))
            else:
                self.platform.submit(req, self.aps[i % len(self.aps)])

    def _roam_out(self, req: OffloadRequest):
        """Origin half of a roamer: AP upload, then the backhaul hop."""
        ap = self.aps[req.request_id % len(self.aps)]
        yield from ap.transmit(self.env, self.bytes_up_each, "up")
        self.backhaul.send(
            self.runner, self.zone_id, self.roam_to, "offload", req, self.bytes_up_each
        )

    def on_offload(self, msg) -> None:
        """A roamer arrived from another zone: serve it here."""
        self.env.process(self._serve_visitor(msg.payload, msg.src))

    def _serve_visitor(self, req: OffloadRequest, origin: int):
        """Remote half of a roamer: real serve path, result shipped back."""
        result = yield self.platform.submit(req, self.stub)
        self.backhaul.send(
            self.runner,
            self.zone_id,
            origin,
            "result",
            (req.request_id, req.submitted_at),
            result.bytes_down,
        )

    def on_result(self, msg) -> None:
        """A roamer's result came home: final AP download leg."""
        self.env.process(self._finish_roamer(*msg.payload))

    def _finish_roamer(self, request_id: int, submitted_at: float):
        yield from self.aps[request_id % len(self.aps)].transmit(
            self.env, self.bytes_down_each, "down"
        )
        self.roam_responses[request_id] = self.env.now - submitted_at

    def summary(self) -> Dict[str, Any]:
        """Picklable per-zone record; the identity cell compares these."""
        prefix = f"z{self.zone_id}-dev-"
        results = self.platform.completed()
        home = sorted(
            (r.request.request_id, r.response_time)
            for r in results
            if r.request.device_id.startswith(prefix)
        )
        visitors = sum(
            1 for r in results if not r.request.device_id.startswith(prefix)
        )
        pop = self.population
        completed = len(home) + len(self.roam_responses) + (pop.completed if pop else 0)
        return {
            "zone": self.zone_id,
            "devices": len(self.requests) + (pop.n if pop else 0),
            "completed": completed,
            "tracer_responses": tuple(home),
            "roamer_responses": tuple(sorted(self.roam_responses.items())),
            "visitors_served": visitors,
            "bytes_up": sum(ap.bytes_up for ap in self.aps) + self.stub.bytes_up,
            "bytes_down": sum(ap.bytes_down for ap in self.aps) + self.stub.bytes_down,
            "backhaul_bytes": self.backhaul.bytes_moved,
            "backhaul_messages": self.backhaul.messages,
            "runtimes": self.platform.runtime_count(),
            "preboots": self.platform.dispatcher.preboots,
            "population": pop.summary() if pop else None,
            "compute_cache": (
                self.platform.compute_cache.stats()
                if self.platform.compute_cache is not None
                else None
            ),
        }


def _build_shard(spec: Dict[str, Any]) -> ShardRunner:
    """Construct one shard (environment + zones) from a picklable spec."""
    env = Environment()
    if spec.get("metrics"):
        Observability(env, tracing=False, metrics=True)
    runner = ShardRunner(spec["shard"], env, lookahead=spec["lookahead"])
    zones = {
        zspec["zone"]: _Zone(env, runner, {**zspec, "lookahead": spec["lookahead"]})
        for zspec in spec["zones"]
    }
    runner.zones = zones
    runner.on("offload", lambda msg: zones[msg.dst].on_offload(msg))
    runner.on("result", lambda msg: zones[msg.dst].on_result(msg))
    return runner


def _finalize_shard(runner: ShardRunner) -> Dict[str, Any]:
    """Reduce a finished shard to its picklable summary."""
    obs = runner.env.obs
    return {
        "shard": runner.shard_id,
        "zones": [zone.summary() for _, zone in sorted(runner.zones.items())],
        "events": runner.env.event_count,
        "delivered": runner.delivered,
        "metrics": (
            obs.metrics.snapshot() if obs is not None and obs.metrics else None
        ),
    }


# -- identity: shard count must be routing detail -----------------------------

def _identity_zone_specs(seed: int) -> List[Dict[str, Any]]:
    """Two fully discrete zones with roamers in both directions."""
    return [
        {
            "zone": z,
            "seed": seed,
            "aps": 2,
            "tracers": IDENTITY_TRACERS,
            "tracer_rate_s": IDENTITY_RATE_S,
            "roam_to": 1 - z,
            "roam_every": IDENTITY_ROAM_EVERY,
            "population": None,
        }
        for z in (0, 1)
    ]


def _run_packing(
    zone_specs: List[Dict[str, Any]],
    packing: List[List[int]],
    horizon: float,
    jobs: int = 0,
    metrics: bool = False,
    stats: Optional[EpochStats] = None,
) -> List[Dict[str, Any]]:
    """Run the same zones packed onto shards per ``packing``."""
    by_id = {z["zone"]: z for z in zone_specs}
    specs = [
        {
            "shard": si,
            "zones": [by_id[z] for z in pack],
            "lookahead": BACKHAUL_LATENCY_S,
            "metrics": metrics,
        }
        for si, pack in enumerate(packing)
    ]
    owner = {z: si for si, pack in enumerate(packing) for z in pack}
    return run_sharded(
        _build_shard,
        specs,
        owner,
        window=BACKHAUL_LATENCY_S,
        until=horizon,
        finalize=_finalize_shard,
        jobs=jobs,
        stats=stats,
    )


def _identity_cell(seed: int = 1) -> Dict[str, Any]:
    """Byte-identity of the discrete config across shard counts."""
    zone_specs = _identity_zone_specs(seed)
    one = _run_packing(zone_specs, [[0, 1]], IDENTITY_HORIZON_S)
    two = _run_packing(zone_specs, [[0], [1]], IDENTITY_HORIZON_S)
    flat_one = [z for s in one for z in s["zones"]]
    flat_two = [z for s in two for z in s["zones"]]
    return {
        "identical": flat_one == flat_two,
        "zones": flat_one,
        "cross_messages": sum(s["delivered"] for s in two),
        "devices": 2 * 2 * IDENTITY_TRACERS,
    }


# -- mega: the 1M-device headline ---------------------------------------------

def _mega_zone_specs(
    zones: int,
    devices_per_zone: int,
    seed: int,
    base_response_s: float,
    hit_response_s: Optional[float] = None,
) -> tuple:
    """Zone specs plus the analytic horizon for a megascale run.

    With ``hit_response_s`` the zones carry a node-tier compute cache
    and the populations the matching hit-rate closed form: the zone's
    discrete tracers make the shared digest resident before the
    population starts, so every aggregate request is a hit.
    """
    tracers = max(1, devices_per_zone // TRACER_FRACTION)
    pop_n = devices_per_zone - tracers
    rho = min(POP_RATE_S, POP_CAPACITY_S)
    pop_end = POP_START_S + (pop_n - 1) / rho + base_response_s
    tracer_last = max(pop_end - 40.0, 10.0)
    tracer_rate = tracers / tracer_last
    horizon = pop_end + 40.0
    population: Dict[str, Any] = {
        "n": pop_n,
        "rate_req_s": POP_RATE_S,
        "start_s": POP_START_S,
        "base_response_s": base_response_s,
        "capacity_req_s": POP_CAPACITY_S,
    }
    if hit_response_s is not None:
        population["cache_hit_rate"] = 1.0
        population["hit_response_s"] = hit_response_s
    specs = [
        {
            "zone": z,
            "seed": seed,
            "aps": APS_PER_ZONE,
            "tracers": tracers,
            "tracer_rate_s": tracer_rate,
            "roam_to": (z + 1) % zones if zones > 1 else None,
            "roam_every": ROAM_EVERY,
            "predictive": True,
            "cache": hit_response_s is not None,
            "population": dict(population),
        }
        for z in range(zones)
    ]
    return specs, horizon


def _mega_cell(
    zones: int, devices_per_zone: int, seed: int = 1, jobs: int = 0
) -> Dict[str, Any]:
    """One megascale run: Z zones, one per shard, mesoscale + tracers."""
    cal = _calibrate(seed)
    zone_specs, horizon = _mega_zone_specs(
        zones,
        devices_per_zone,
        seed,
        cal["base_response_s"],
        hit_response_s=cal["hit_response_s"],
    )
    stats = EpochStats()
    wall0 = time.perf_counter()
    summaries = _run_packing(
        zone_specs,
        [[z] for z in range(zones)],
        horizon,
        jobs=jobs,
        metrics=True,
        stats=stats,
    )
    wall_s = time.perf_counter() - wall0
    zsums = [z for s in summaries for z in s["zones"]]
    merged = merge_metrics_snapshots(
        [s["metrics"] for s in summaries if s["metrics"] is not None]
    )
    devices = zones * devices_per_zone
    completed = sum(z["completed"] for z in zsums)
    return {
        "zones": zones,
        "shards": zones,
        "devices": devices,
        "completed": completed,
        "sim_s": horizon,
        "wall_s": wall_s,
        "req_per_s": completed / wall_s,
        "events": sum(s["events"] for s in summaries),
        "epochs_run": stats.epochs_run,
        "epochs_skipped": stats.epochs_skipped,
        "sync_wall_s": stats.sync_wall_s,
        "cross_messages": sum(s["delivered"] for s in summaries),
        "backhaul_bytes": sum(z["backhaul_bytes"] for z in zsums),
        "roamers": sum(len(z["roamer_responses"]) for z in zsums),
        "preboots": sum(z["preboots"] for z in zsums),
        "runtimes": sum(z["runtimes"] for z in zsums),
        "cache_hits": (
            sum(z["population"]["cache_hits"] for z in zsums if z["population"])
            + sum(
                z["compute_cache"]["hits"] for z in zsums if z["compute_cache"]
            )
        ),
        "base_response_s": cal["base_response_s"],
        "hit_response_s": cal["hit_response_s"],
        "mean_response_s": (
            sum(z["population"]["mean_response_s"] for z in zsums) / len(zsums)
        ),
        "metrics": merged,
    }


# -- experiment plumbing ------------------------------------------------------

def cells(seed: int = 1, smoke: bool = False, jobs: int = 0) -> list:
    """Anchor + identity + mega cells (smoke shrinks the mega config).

    The mega cell receives ``jobs`` for *shard-level* parallelism; the
    cells themselves run serially to avoid nesting process pools.
    """
    from .engine import Cell

    zones = SMOKE_ZONES if smoke else MEGA_ZONES
    per_zone = SMOKE_DEVICES_PER_ZONE if smoke else MEGA_DEVICES_PER_ZONE
    return [
        Cell("megascale", ("anchor",), _anchor_cell, {"seed": seed}),
        Cell("megascale", ("identity",), _identity_cell, {"seed": seed}),
        Cell(
            "megascale",
            ("mega",),
            _mega_cell,
            {
                "zones": zones,
                "devices_per_zone": per_zone,
                "seed": seed,
                "jobs": jobs,
            },
        ),
    ]


def merge(cell_list: list, values: List[Any]) -> Dict[str, Dict[str, Any]]:
    """Reassemble ``data[cell_name] = metrics`` in cell order."""
    return {cell.key[0]: value for cell, value in zip(cell_list, values)}


def run(seed: int = 1, jobs: int = 0, smoke: bool = False) -> Dict[str, Dict[str, Any]]:
    """Run all three cells; ``jobs`` parallelizes the mega run's shards."""
    from .engine import run_cells

    cs = cells(seed=seed, smoke=smoke, jobs=jobs)
    return merge(cs, run_cells(cs, jobs=0))


def report(data: Dict[str, Dict[str, Any]]) -> str:
    """Render the anchor/identity correctness checks and the headline."""
    anchor, identity, mega = data["anchor"], data["identity"], data["mega"]
    rows = []
    for field, fmt in (
        ("completed", "{:d}"),
        ("bytes_up", "{:d}"),
        ("bytes_down", "{:d}"),
        ("energy_j", "{:.6f}"),
    ):
        rows.append(
            [
                field,
                fmt.format(anchor["discrete"][field]),
                fmt.format(anchor["meso"][field]),
                "exact" if anchor["exact"][field] else "MISMATCH",
            ]
        )
    anchor_table = render_table(
        ["conserved total", "discrete", "mesoscale", "match"],
        rows,
        title=(
            f"Anchor cell — {ANCHOR_DEVICES}-device zone, "
            f"fully discrete vs mesoscale"
        ),
    )
    anchor_line = (
        f"anchor: conserved totals "
        f"{'EXACT' if anchor['exact_all'] else 'DIVERGED'}; mean warm response "
        f"delta {anchor['mean_response_delta_s']:.2e}s"
    )
    ident_line = (
        f"identity: 2-zone discrete config with "
        f"{identity['cross_messages']} cross-shard messages is "
        f"{'byte-identical' if identity['identical'] else 'DIVERGENT'} "
        f"across 1-shard and 2-shard packings"
    )
    mega_rows = [
        [
            f"{mega['zones']}",
            f"{mega['devices']}",
            f"{mega['completed']}",
            f"{mega['sim_s']:.0f}",
            f"{mega['wall_s']:.2f}",
            f"{mega['req_per_s'] / 1e3:.0f}k",
            f"{mega['events']}",
            f"{mega['epochs_run']}",
            f"{mega['epochs_skipped']}",
            f"{mega['cross_messages']}",
            f"{mega['preboots']}",
        ]
    ]
    mega_table = render_table(
        [
            "zones",
            "devices",
            "served",
            "sim (s)",
            "wall (s)",
            "req/s",
            "events",
            "epochs",
            "skipped",
            "x-shard",
            "preboots",
        ],
        mega_rows,
        title=(
            f"Megascale — {mega['zones']} zones x "
            f"{mega['devices'] // mega['zones']} devices, "
            f"sync window {BACKHAUL_LATENCY_S:.2f}s"
        ),
    )
    headline = (
        f"{mega['devices']} devices simulated at "
        f"{mega['req_per_s'] / 1e3:.0f}k req/s wall "
        f"({mega['events']} kernel events for {mega['completed']} requests — "
        f"{mega['completed'] / max(mega['events'], 1):.0f} requests per event); "
        f"mean population response {mega['mean_response_s']:.2f}s "
        f"(warm base {mega['base_response_s']:.2f}s, cache hit "
        f"{mega['hit_response_s']:.2f}s), "
        f"{mega['cache_hits']} requests served from the compute cache, "
        f"{mega['roamers']} roamers crossed shards, "
        f"{mega['preboots']} predictive preboots from aggregate arrivals; "
        f"idle-epoch skipping elided {mega['epochs_skipped']} of "
        f"{mega['epochs_run'] + mega['epochs_skipped']} sync rounds"
    )
    return "\n\n".join([anchor_table, anchor_line, ident_line, mega_table, headline])


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
