#!/usr/bin/env python
"""Diff a fresh benchmark run against the committed baseline.

Usage::

    python benchmarks/compare.py                    # run suite, compare
    python benchmarks/compare.py --fresh new.json   # compare a saved run
    python benchmarks/compare.py --threshold 0.25   # regression bar

Compares per-experiment wall-clock from ``BENCH_experiments.json``
(written by ``make bench``) against a fresh measurement and exits
non-zero when any experiment regressed by more than the threshold.
The table adds each side's cell-wall p99 and the signals whose value
changed: signals are deterministic, so a change means the model's
output moved, not just its speed.  The verdict says when the sides'
``cpu_count``/``jobs`` make the wall comparison no parallel-speedup
measurement.  Two defenses against flakiness: experiments faster than
the noise floor on either side are skipped (interpreter jitter swamps
a 200 ms measurement), and the fresh suite is measured best-of-N
(``--repeats``, min wall per experiment) so a background process
stealing one run's CPU cannot manufacture a regression.

CI runs this as a non-blocking job: a red result is a prompt to look,
not a merge gate (shared runners are noisy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.engine import (
    BENCH_SCHEMA_VERSION,
    benchmark_payload,
    collect_timings,
)

#: committed baseline, relative to the repository root
DEFAULT_BASELINE = "BENCH_experiments.json"
#: fail on > 25 % per-experiment wall-time regression
DEFAULT_THRESHOLD = 0.25
#: skip experiments faster than this on either side (seconds); sub-250 ms
#: experiments vary run-to-run by more than the threshold from scheduler
#: jitter alone, so a diff there carries no signal
NOISE_FLOOR_S = 0.25
#: measure the fresh suite this many times and keep the per-experiment min
DEFAULT_REPEATS = 2

#: opt-in experiments measured with --smoke alongside the default suite
#: so the sharded kernel's device throughput and the compute cache's
#: hit rate are part of the baseline
SMOKE_EXPERIMENTS = ("scale", "megascale", "cachebench", "partition")


def _by_name(payload: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    schema = payload.get("schema_version")
    if schema != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench schema {schema!r} (want {BENCH_SCHEMA_VERSION}; "
            "regenerate the file with `make bench`)"
        )
    return {e["name"]: e for e in payload["experiments"]}


def compare(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    floor_s: float = NOISE_FLOOR_S,
) -> Tuple[List[dict], List[dict]]:
    """Compare two bench payloads.

    Returns ``(rows, regressions)``: one row per experiment present in
    both payloads (with ``name``, ``base_s``, ``fresh_s``, ``delta``,
    ``base_p99_s``, ``fresh_p99_s`` and ``changed``, the names of the
    signals whose value differs), and the subset whose slowdown exceeds
    ``threshold`` with both measurements above the noise floor.
    """
    base = _by_name(baseline)
    new = _by_name(fresh)
    rows: List[dict] = []
    regressions: List[dict] = []
    for name, b in base.items():
        if name not in new:
            continue
        f = new[name]
        base_s, fresh_s = b["wall_s"], f["wall_s"]
        delta = (fresh_s - base_s) / base_s if base_s > 0 else 0.0
        b_sig, f_sig = b["signals"], f["signals"]
        row = {
            "name": name,
            "base_s": base_s,
            "fresh_s": fresh_s,
            "delta": delta,
            "base_p99_s": b["p99_wall_s"],
            "fresh_p99_s": f["p99_wall_s"],
            "changed": [
                s for s in dict.fromkeys([*b_sig, *f_sig])
                if b_sig.get(s) != f_sig.get(s)
            ],
        }
        rows.append(row)
        if delta > threshold and base_s >= floor_s and fresh_s >= floor_s:
            regressions.append(row)
    return rows, regressions


def host_caveat(baseline: Dict[str, Any], fresh: Dict[str, Any]) -> Optional[str]:
    """Why the wall comparison is no parallel-speedup measurement, or None."""
    hosts = {(p.get("cpu_count"), p.get("jobs")) for p in (baseline, fresh)}
    if len(hosts) > 1:
        return "the sides differ in cpu_count/jobs"
    ((cpus, jobs),) = hosts
    return f"jobs={jobs} exceeds cpu_count={cpus}" if jobs > (cpus or 1) else None


def run_fresh_suite(repeats: int = DEFAULT_REPEATS) -> Dict[str, Any]:
    """Measure the default experiment suite in-process (current schema).

    Each experiment runs ``repeats`` times and keeps the fastest wall
    time: noise from a loaded machine is strictly additive, so the min
    is the best estimate of the code's true cost.  The scale-family
    opt-ins (:data:`SMOKE_EXPERIMENTS`) are measured with their smoke
    configs appended, matching the ``make bench`` baseline.
    """
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    bench_rows = []
    suite_t0 = time.perf_counter()
    for name in list(EXPERIMENTS) + list(SMOKE_EXPERIMENTS):
        smoke = name in SMOKE_EXPERIMENTS
        best_s = None
        best_timings: List[Any] = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            with collect_timings() as timings:
                run_experiment(name, jobs=0, smoke=smoke)
            wall_s = time.perf_counter() - t0
            if best_s is None or wall_s < best_s:
                best_s, best_timings = wall_s, list(timings)
        bench_rows.append({"name": name, "wall_s": best_s, "timings": best_timings})
        print(f"  measured {name}: {best_s:.2f}s", file=sys.stderr)
    return benchmark_payload(bench_rows, 0, time.perf_counter() - suite_t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"committed baseline path (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--fresh",
        help="bench JSON of a fresh run; omitted = run the suite now",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"max tolerated per-experiment slowdown (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=NOISE_FLOOR_S,
        help=f"ignore experiments faster than this, seconds (default {NOISE_FLOOR_S})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help="fresh-suite runs per experiment, keeping the fastest "
        f"(default {DEFAULT_REPEATS})",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"baseline {args.baseline!r} not found", file=sys.stderr)
        return 2
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    if args.fresh:
        with open(args.fresh) as fh:
            fresh = json.load(fh)
    else:
        fresh = run_fresh_suite(repeats=args.repeats)

    rows, regressions = compare(baseline, fresh, args.threshold, args.floor)
    for side, payload in (("base", baseline), ("fresh", fresh)):
        print(f"{side} host: cpu_count={payload.get('cpu_count')} "
              f"jobs={payload.get('jobs')}")
    print(
        f"{'experiment':14s} {'base':>8s} {'fresh':>8s} {'delta':>8s} "
        f"{'b.p99':>8s} {'f.p99':>8s}  changed signals"
    )

    def p99(value) -> str:
        return "-" if value is None else f"{value:.2f}s"

    for row in rows:
        flag = "  <-- REGRESSION" if row in regressions else ""
        print(
            f"{row['name']:14s} {row['base_s']:7.2f}s {row['fresh_s']:7.2f}s "
            f"{100 * row['delta']:+7.1f}% {p99(row['base_p99_s']):>8s} "
            f"{p99(row['fresh_p99_s']):>8s}  {','.join(row['changed']) or '-'}{flag}"
        )
    total_base = sum(r["base_s"] for r in rows)
    total_fresh = sum(r["fresh_s"] for r in rows)
    print(
        f"{'TOTAL':14s} {total_base:7.2f}s {total_fresh:7.2f}s "
        f"{100 * (total_fresh - total_base) / total_base:+7.1f}%"
    )
    caveat = host_caveat(baseline, fresh)
    caveat = f" (not a parallel-speedup measurement: {caveat})" if caveat else ""
    if regressions:
        names = ", ".join(r["name"] for r in regressions)
        print(
            f"\nFAIL: {len(regressions)} experiment(s) regressed more than "
            f"{100 * args.threshold:.0f}%: {names}{caveat}"
        )
        return 1
    print(f"\nOK: no experiment regressed more than {100 * args.threshold:.0f}%{caveat}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
