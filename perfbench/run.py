#!/usr/bin/env python3
"""Benchmark of the Rattrap simulator: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload is simulated again and again from the same seed-generated
inputs until ``--seconds`` is spent.  A ``fleet`` or ``trace_mix`` run
is cut into fixed simulated segments, and the host time reported is the
sum over the segments of the fastest run's time in each; a ``sharded``
run is timed whole, and the median run is reported (see :func:`wall_of`);
set-up time is the median of fresh interpreters (``--probe-setup``).
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics from spans recorded around each layer's entry points
(see spans.py).  Every run's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: fresh interpreters timed from launch to the first simulated event
SETUP_PROBES = 7
#: whole simulated runs per measurement, at the least
MIN_RUNS = 3

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_p50_response_s": "s",
    "sim_p99_response_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.self_host_s": "s",
    "network.transmit_calls": "count",
    "network.transmit_host_s": "s",
    "network.flow_adds": "count",
    "network.peak_flows": "count",
    "serve.requests": "count",
    "serve.host_s": "s",
    "dispatcher.acquires": "count",
    "dispatcher.acquire_host_s": "s",
    "dispatcher.cold_boots": "count",
    "dispatcher.boot_stalls": "count",
    "dispatcher.warm_ratio": "ratio",
    "runtime.boots": "count",
    "runtime.boot_host_s": "s",
    "io.stages": "count",
    "io.stage_host_s": "s",
    "io.dedup_ratio": "ratio",
    "warehouse.lookups": "count",
    "warehouse.hit_ratio": "ratio",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.host_s": "s",
    "cache.evictions": "count",
    "scheduler.ticks": "count",
    "scheduler.tick_host_s": "s",
    "scheduler.preboot_hit_ratio": "ratio",
    "reaper.scans": "count",
    "reaper.host_s": "s",
    "client.host_s": "s",
    "shard.epochs_run": "count",
    "shard.epochs_skipped": "count",
    "shard.sync_wait_s": "s",
    "shard.round_trip_us": "us",
    "shard.cross_messages": "count",
    "population.ticks": "count",
    "population.host_s": "s",
    "obs.overhead_ratio": "ratio",
}


def load_program():
    """Import the simulator from ``src/`` of this checkout, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator sources under {ROOT / 'src'}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def host_facts(W, workload: str, seed: int) -> Dict[str, Any]:
    cpus = len(os.sched_getaffinity(0))
    facts: Dict[str, Any] = {
        "nproc": cpus,
        "python": platform.python_version(),
        "seed": seed,
        "jobs": 1,
    }
    if workload == "sharded":
        facts["jobs"] = W.SHARD_JOBS
        facts["label"] = f"{W.SHARD_JOBS} workers on {cpus} CPUs"
    return facts


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- checks ---------------------------------------------------------------------


def check_outcome(outcome) -> List[str]:
    """Problems with one run's outputs (empty when it is correct)."""
    problems = list(outcome.errors)
    if outcome.unaccounted:
        problems.append(
            f"conservation: submitted {outcome.submitted} != completed "
            f"{outcome.completed} + failed {outcome.failed} + blocked {outcome.blocked}"
        )
    if outcome.failed or outcome.blocked:
        problems.append(f"{outcome.failed} failed, {outcome.blocked} blocked")
    if not outcome.responses:
        problems.append("no discretely served request")
    elif not all(math.isfinite(r) and r > 0 for r in outcome.responses):
        problems.append("non-positive or non-finite response time")
    return problems


class Tally:
    """Operations attempted/failed across runs, and the digests seen."""

    def __init__(self, W):
        self.W = W
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []

    def run(self, model, expected: int) -> Tuple[Any, List[float]]:
        """Run ``model`` once; returns (outcome or None, host seconds of
        each of its simulated segments)."""
        gc.collect()  # the previous run's garbage is not this run's cost
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                # run_sharded falls back to the serial path with this
                # warning; a fallback is not the jobs=2 run being measured
                warnings.filterwarnings(
                    "error", "sharded worker pool unavailable", RuntimeWarning
                )
                outcome = model.run()
        except Exception as exc:  # a failed simulation is a measured failure
            self.attempted += expected
            self.failed += expected
            self.problems.append(f"run raised {exc!r}")
            return None, [time.perf_counter() - t0]
        stamps = [t0, *model.marks, time.perf_counter()]
        problems = check_outcome(outcome)
        digest = self.W.digest_of(outcome)
        if self.digests and digest != self.digests[0]:
            problems.append(f"digest {digest} != first run's {self.digests[0]}")
        self.digests.append(digest)
        self.attempted += outcome.submitted
        if problems:
            self.failed += outcome.submitted
            self.problems.extend(problems)
        return outcome, [b - a for a, b in zip(stamps, stamps[1:])]

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# -- set-up probes --------------------------------------------------------------


def probe_setup(W, workload: str, seed: int) -> float:
    """Build the workload; return the monotonic time of its first event."""
    inputs = W.INPUTS[workload](seed)
    model = W.build(workload, inputs)
    if workload != "sharded":
        return time.monotonic()
    # Shards are built inside their workers: start them, run no sync
    # round, and take the moment the last shard finished building.
    model.run(until=0.0)
    return max(s["built_at"] for s in model.summaries)


def measure_setup(workload: str, seed: int) -> List[float]:
    """Host seconds from interpreter launch to the first simulated event."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--probe-setup",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


# -- end-to-end run -------------------------------------------------------------


def keep_going(
    walls: List[float], started: float, seconds: float, min_runs: int = MIN_RUNS
) -> bool:
    """Another run fits the budget (or too few runs were made yet)."""
    if len(walls) < min_runs:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def fastest_wall(runs: List[List[float]]) -> float:
    """Host seconds of one run at the fastest time seen for each segment.

    Every run of one seed cuts at the same simulated instants, so
    segment j is the same work in every run.  The host's speed swings by
    tens of percent in bursts of a fraction of a second to minutes
    (neighbouring load on the shared cores; time stolen from the VM
    stays near zero, so CPU time swings alike).  The fastest of several
    runs in each segment of a few milliseconds is far steadier than any
    whole-run statistic, and it still adds up every segment's work.
    """
    return math.fsum(min(segment) for segment in zip(*runs))


def wall_of(runs: List[List[float]]) -> float:
    """``wall_s`` of repeated runs, given each run's segment times.

    Runs cut into segments take :func:`fastest_wall`.  A ``sharded`` run
    is one segment: each sync round waits at a barrier for the slower of
    two worker processes, so the fastest rounds of different runs add up
    to a run no repeat came near (1.5 s against whole runs of 1.7-2.3 s),
    and that sum swung with the count of repeats.  Its rounds are a few
    milliseconds of work each, so the median whole run is steady.
    """
    if len(runs[0]) > 1:
        return fastest_wall(runs)
    return statistics.median(run[0] for run in runs)


def measure(W, workload: str, seed: int, seconds: float):
    inputs = W.INPUTS[workload](seed)
    expected = W.requests_in(workload, inputs)
    tally = Tally(W)
    runs: List[List[float]] = []
    walls: List[float] = []
    outcome = None
    started = time.perf_counter()
    while keep_going(walls, started, seconds):
        model = W.build(workload, inputs)
        result, segments = tally.run(model, expected)
        walls.append(math.fsum(segments))
        if result is None:
            break
        outcome = result
        runs.append(segments)
    if len({len(r) for r in runs}) > 1:
        tally.problems.append(f"runs cut into {sorted({len(r) for r in runs})} segments")
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    setup = measure_setup(workload, seed)
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = 0
    if outcome is not None:
        wall = wall_of(runs)
        metrics["wall_s"] = wall
        metrics["sim_req_per_s"] = outcome.completed / wall
        rts = sorted(outcome.responses)
        samples = len(rts)
        metrics["sim_p50_response_s"] = W.percentile(rts, 0.50)
        metrics["sim_p99_response_s"] = W.percentile(rts, 0.99)
    context = {
        "walls_s": walls,
        "segments": len(runs[0]) if runs else 0,
        "setup_samples_s": setup,
        "response_samples": samples,
        "beyond_p99": samples - math.ceil(samples * 0.99),
    }
    return tally, metrics, context


# -- traced run -----------------------------------------------------------------


def _sim_residual(report: Dict[str, Any]) -> float:
    """Host time of one process outside every layer but ``repro.sim``."""
    layers = sum(v["self_s"] for k, v in report["by_name"].items() if not k.startswith("sim."))
    return report["busy_s"] - layers


def _merge(into: Dict[str, Dict[str, float]], add: Dict[str, Dict[str, float]]) -> None:
    for name, agg in add.items():
        acc = into.setdefault(name, {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in agg.items():
            acc[key] += value


def _span_problems(where: str, report: Dict[str, Any]) -> List[str]:
    """Checks that the spans of one process nest, tile, and fit its wall."""
    problems = []
    wall, root = report["wall_s"], report["root_s"]
    if report["misnested"] or report["open_spans"]:
        problems.append(
            f"{where}: {report['misnested']} misnested / {report['open_spans']} open spans"
        )
    if report["tiling_error_s"] > 1e-6 * max(wall, 1.0):
        problems.append(f"{where}: self times miss the root spans by {report['tiling_error_s']}")
    if root > wall * (1 + 1e-9) + 1e-9:
        problems.append(f"{where}: spans cover {root} s of a {wall} s wall")
    if _sim_residual(report) < 0:
        problems.append(f"{where}: layer self times exceed its busy time")
    return problems


def _report(rec, wall: float, busy: float) -> Dict[str, Any]:
    """One process's spans.  ``wall`` is timed apart from the recorder;
    ``busy`` is the part of it the process spent simulating."""
    return {
        "by_name": rec.by_name(),
        "wall_s": wall,
        "busy_s": busy,
        "root_s": rec.root_s,
        "misnested": rec.misnested,
        "open_spans": rec.open_spans,
        "tiling_error_s": rec.tiling_error_s(),
    }


def layer_metrics(
    by_name: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    sim_self_s: float,
) -> Dict[str, float]:
    """Every per-layer metric but ``obs.overhead_ratio`` for one traced run."""
    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def spans(name):
        return by_name.get(name, {}).get("spans", 0)

    def self_s(prefix):
        return sum(v["self_s"] for k, v in by_name.items() if k.startswith(prefix + "."))

    acquires = calls("dispatcher.acquire")
    stages = calls("io.stage")
    epochs = counts.get("epochs_run", 0)
    lookups = counts.get("warehouse_lookups", 0)
    return {
        "sim.events": counts["events"],
        "sim.host_us_per_event": 1e6 * ratio(sim_self_s, counts["events"]),
        "sim.self_host_s": sim_self_s,
        "network.transmit_calls": calls("network.transmit"),
        "network.transmit_host_s": self_s("network"),
        "network.flow_adds": calls("network.flow_add"),
        "network.peak_flows": counts["peak_flows"],
        "serve.requests": calls("serve.serve"),
        "serve.host_s": self_s("serve"),
        "dispatcher.acquires": acquires,
        "dispatcher.acquire_host_s": self_s("dispatcher"),
        "dispatcher.cold_boots": counts["cold_boots"],
        "dispatcher.boot_stalls": counts["boot_stalls"],
        "dispatcher.warm_ratio": ratio(counts["warm_dispatches"], acquires),
        "runtime.boots": calls("runtime.boot"),
        "runtime.boot_host_s": self_s("runtime"),
        "io.stages": stages,
        "io.stage_host_s": self_s("io"),
        "io.dedup_ratio": ratio(counts["io_dedup_hits"], stages),
        "warehouse.lookups": lookups,
        "warehouse.hit_ratio": ratio(lookups - counts.get("warehouse_misses", 0), lookups),
        "cache.lookups": counts.get("cache_lookups", 0),
        "cache.hit_ratio": ratio(counts.get("cache_hits", 0), counts.get("cache_lookups", 0)),
        "cache.host_s": self_s("cache"),
        "cache.evictions": counts.get("cache_evictions", 0),
        "scheduler.ticks": calls("scheduler.tick"),
        "scheduler.tick_host_s": self_s("scheduler"),
        "scheduler.preboot_hit_ratio": ratio(counts["preboot_hits"], counts["preboots"]),
        "reaper.scans": calls("reaper.scan"),
        "reaper.host_s": self_s("reaper"),
        "client.host_s": self_s("client"),
        "shard.epochs_run": epochs,
        "shard.epochs_skipped": counts.get("epochs_skipped", 0),
        "shard.sync_wait_s": counts.get("sync_wait_s", 0.0),
        "shard.round_trip_us": 1e6 * ratio(counts.get("sync_wait_s", 0.0), epochs),
        "shard.cross_messages": counts.get("cross_messages", 0),
        "population.ticks": spans("population.tick"),
        "population.host_s": self_s("population"),
    }


def traced(W, workload: str, seed: int, seconds: float):
    import spans

    inputs = W.INPUTS[workload](seed)
    expected = W.requests_in(workload, inputs)
    tally = Tally(W)
    main_pid = os.getpid()

    def worker_finalize(shard_id: int):
        rec = spans.current()
        if rec.pid == main_pid:
            return None  # serial shards trace into the parent's recorder
        wall = time.perf_counter() - rec.created
        rec.write(str(OUT_DIR / f"{workload}-seed{seed}-shard{shard_id}.npz"))
        # A worker simulates only inside advance_to/inject (its root
        # spans); the rest of its wall is the wait for the next round.
        return _report(rec, wall, rec.root_s)

    plain_runs: List[List[float]] = []
    traced_runs: List[List[float]] = []
    pair_walls: List[float] = []
    per_run: List[Dict[str, float]] = []
    last_rec = None
    started = time.perf_counter()
    while keep_going(pair_walls, started, seconds, min_runs=2):
        model = W.build(workload, inputs)
        outcome, segments = tally.run(model, expected)
        pair_walls.append(math.fsum(segments))
        if outcome is None:
            break
        plain_runs.append(segments)
        rec = spans.Recorder()
        W.SHARD_HOOKS.update(start=spans.reset_in_child, finalize=worker_finalize)
        try:
            model = W.build(workload, inputs)
            with spans.installed(rec):
                outcome, segments = tally.run(model, expected)
        finally:
            W.SHARD_HOOKS.update(start=None, finalize=None)
        wall = math.fsum(segments)
        pair_walls[-1] += wall
        if outcome is None:
            break
        traced_runs.append(segments)
        reports = [("main", _report(rec, wall, wall))]
        if workload == "sharded":
            reports += [
                (f"shard {s['shard']}", s["trace"])
                for s in model.summaries
                if s.get("trace") is not None
            ]
        by_name: Dict[str, Dict[str, float]] = {}
        sim_self = 0.0
        for where, report in reports:
            tally.problems.extend(_span_problems(where, report))
            _merge(by_name, report["by_name"])
            sim_self += _sim_residual(report)
        per_run.append(layer_metrics(by_name, outcome.counts, sim_self))
        last_rec = rec
    if last_rec is not None:
        last_rec.write(str(OUT_DIR / f"{workload}-seed{seed}.npz"))
    metrics: Dict[str, float] = {}
    if per_run:
        metrics = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
        metrics["obs.overhead_ratio"] = (
            wall_of(traced_runs) / wall_of(plain_runs) - 1.0
        )
    context = {
        "walls_s": [math.fsum(r) for r in plain_runs],
        "traced_walls_s": [math.fsum(r) for r in traced_runs],
    }
    return tally, metrics, context


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    W = load_program()
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(W.WORKLOADS)}")
    if args.probe_setup:
        print(repr(probe_setup(W, args.workload, args.seed)))
        return 0

    facts = host_facts(W, args.workload, args.seed)
    run_once = traced if args.trace else measure
    tally, metrics, context = run_once(W, args.workload, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in units if name not in metrics]
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    print(json.dumps({"workload": args.workload, "host": facts, **context}))
    print(f"digest {args.workload} seed={args.seed}: {sorted(set(tally.digests))}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": tally.correct and not missing,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed if tally.attempted else 1,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
