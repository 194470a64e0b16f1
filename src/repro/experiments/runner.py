"""CLI entry point: regenerate any (or every) paper table/figure.

Usage::

    rattrap-experiments                 # run everything, serially
    rattrap-experiments fig9 table2     # run a subset
    rattrap-experiments --jobs 4 fig9   # fan cells over 4 processes
    rattrap-experiments --bench         # also write BENCH_experiments.json
    rattrap-experiments --profile fig9  # cProfile one experiment
    rattrap-experiments --list

``--jobs N`` parallelizes *within* each experiment over its independent
cells; reports are byte-identical to the serial run (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Tuple

from .engine import benchmark_payload, collect_timings

from . import (
    ablations,
    abuse,
    battery,
    cachebench,
    chaos,
    density,
    fig1_phases,
    fig2_serverload,
    fig3_datacomp,
    fig6_boot,
    fig9_performance,
    fig10_power,
    fig11_trace_cdf,
    megascale,
    partition,
    predictive,
    scale,
    scorecard,
    section3e_redundancy,
    sensitivity,
    table1_overheads,
    table2_migrated,
)

__all__ = [
    "EXPERIMENTS",
    "EXTRA_EXPERIMENTS",
    "main",
    "run_experiment",
    "export_experiment",
    "profile_experiment",
]

BENCH_PATH = "BENCH_experiments.json"

#: name -> (module, description)
EXPERIMENTS: Dict[str, Tuple[object, str]] = {
    "sec3e": (section3e_redundancy, "§III-E OS redundancy profiling"),
    "fig1": (fig1_phases, "Fig. 1 phase details on the VM cloud"),
    "fig2": (fig2_serverload, "Fig. 2 server CPU/I-O timelines"),
    "fig3": (fig3_datacomp, "Fig. 3 migrated-data composition"),
    "table1": (table1_overheads, "Table I runtime-environment overheads"),
    "fig6": (fig6_boot, "Fig. 6 boot-path stage comparison"),
    "fig9": (fig9_performance, "Fig. 9 average offloading performance"),
    "table2": (table2_migrated, "Table II total migrated data"),
    "fig10": (fig10_power, "Fig. 10 energy across network scenarios"),
    "fig11": (fig11_trace_cdf, "Fig. 11 trace-driven speedup CDF"),
    "ablations": (ablations, "extension: per-mechanism ablations"),
    "battery": (battery, "extension: daily battery impact per strategy"),
    "sensitivity": (sensitivity, "extension: calibration-tax sensitivity"),
    "density": (density, "extension: tenants per server until it breaks"),
    "scorecard": (scorecard, "every paper claim graded pass/fail"),
}

#: opt-in experiments, excluded from the default "run everything" suite
#: so the default reports stay byte-identical to a fault-free tree
EXTRA_EXPERIMENTS: Dict[str, Tuple[object, str]] = {
    "chaos": (chaos, "extension: recovery under injected faults"),
    "abuse": (abuse, "extension: hostile-tenant isolation scorecard"),
    "scale": (scale, "extension: 1k-10k device scale-out ramp"),
    "predictive": (predictive, "extension: predictive warm-pool vs reactive"),
    "megascale": (megascale, "extension: 1M devices on the sharded kernel"),
    "cachebench": (cachebench, "extension: compute-result cache off/node/cluster"),
    "partition": (partition, "extension: dynamic offload-vs-local partitioning"),
}


def _registry() -> Dict[str, Tuple[object, str]]:
    """Every runnable experiment, default suite and opt-ins alike."""
    return {**EXPERIMENTS, **EXTRA_EXPERIMENTS}


def run_experiment(name: str, jobs: int = 0, smoke: bool = False) -> str:
    """Run one experiment and return its report text.

    ``jobs`` is forwarded to the experiment's cell engine: ``0``/``1``
    runs serially, ``N`` fans the cells over up to N processes.  The
    report text is identical either way.  ``smoke`` is forwarded only
    to experiments whose ``run`` accepts it (the scale family's
    abbreviated configs); others ignore the flag.
    """
    import inspect

    registry = _registry()
    try:
        module, _ = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(registry)}"
        ) from None
    params = inspect.signature(module.run).parameters
    kwargs = {"jobs": jobs}
    if smoke and "smoke" in params:
        kwargs["smoke"] = True
    return module.report(module.run(**kwargs))


def profile_experiment(name: str, top: int = 20) -> str:
    """cProfile one experiment (serially) and return the top entries.

    Sorted by cumulative time; the report text itself is discarded —
    the point is to see where the simulation spends its time.
    """
    import cProfile
    import io
    import pstats

    if name not in _registry():
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(_registry())}"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(name, jobs=0)
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def _jsonable(obj):
    """Recursively convert experiment data to JSON-serializable form."""
    import dataclasses

    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def export_experiment(name: str, directory: str) -> str:
    """Run one experiment and write its raw data as ``<name>.json``.

    Returns the written path.  The JSON holds the same structures the
    report renders, ready for external plotting.
    """
    import json
    import os

    module, _ = _registry()[name]
    data = module.run()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(data), fh, indent=1)
    return path


def _dump_obs(name: str, directory: str) -> str:
    """Write the experiment's drained observability snapshots as JSON.

    One file per experiment, holding a list of per-environment
    snapshots (an experiment may create many environments — one per
    cell) in creation order.
    """
    import json
    import os

    from .. import obs as obs_mod

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.obs.json")
    with open(path, "w") as fh:
        json.dump(obs_mod.drain(), fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rattrap-experiments",
        description="Reproduce the tables and figures of the Rattrap paper "
        "(IPDPS 2017) on the simulated platform.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"subset to run (default: all). Known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="fan each experiment's cells over N worker processes "
        "(0 = serial, the default; results are identical either way)",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        help="also write each experiment's raw data as JSON into DIR",
    )
    parser.add_argument(
        "--bench",
        nargs="?",
        const=BENCH_PATH,
        metavar="PATH",
        help=f"write per-cell/per-experiment wall-clock to PATH "
        f"(default {BENCH_PATH})",
    )
    parser.add_argument(
        "--profile",
        metavar="EXPERIMENT",
        help="cProfile one experiment and print the top-20 cumulative "
        "entries instead of running the suite",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable request tracing in every experiment environment and "
        "dump the spans per experiment (see --obs-dir)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable the metrics registry in every experiment environment "
        "and dump snapshots per experiment (see --obs-dir)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run abbreviated configs in experiments that support them "
        "(scale family) — the cheap variant CI uses",
    )
    parser.add_argument(
        "--extra",
        action="append",
        default=[],
        metavar="NAME",
        help="append an opt-in experiment to the default suite (may be "
        f"repeated). Known: {', '.join(EXTRA_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--obs-dir",
        metavar="DIR",
        default="obs",
        help="directory for per-experiment observability JSON dumps "
        "(default: obs/; only written with --trace/--metrics)",
    )
    args = parser.parse_args(argv)

    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")

    registry = _registry()
    if args.list:
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:8s} {desc}")
        for name, (_, desc) in EXTRA_EXPERIMENTS.items():
            print(f"{name:8s} {desc}  [opt-in]")
        return 0

    if args.profile:
        if args.profile not in registry:
            print(f"unknown experiment: {args.profile}", file=sys.stderr)
            print(f"known: {', '.join(registry)}", file=sys.stderr)
            return 2
        print(profile_experiment(args.profile))
        return 0

    # Opt-in experiments run only when named explicitly (positionally or
    # via --extra): the default suite (and its bench payload) stays
    # identical to a fault-free tree.
    names = args.experiments or list(EXPERIMENTS)
    names = names + [n for n in args.extra if n not in names]
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"known: {', '.join(registry)}", file=sys.stderr)
        return 2

    obs_enabled = args.trace or args.metrics
    if obs_enabled:
        from .. import obs as obs_mod

        # Parallel cells capture too: pool workers re-enable the same
        # flags, pickle their snapshots back, and the engine absorbs
        # them in cell order — the dumps match the serial run.
        obs_mod.enable_auto(tracing=args.trace, metrics=args.metrics)

    bench_rows = []
    suite_t0 = time.perf_counter()
    try:
        for name in names:
            t0 = time.perf_counter()
            with collect_timings() as timings:
                text = run_experiment(name, jobs=args.jobs, smoke=args.smoke)
            elapsed = time.perf_counter() - t0
            bench_rows.append({"name": name, "wall_s": elapsed, "timings": list(timings)})
            print(f"\n{'#' * 72}\n# {name}: {registry[name][1]}  ({elapsed:.1f}s)\n{'#' * 72}")
            print(text)
            if args.export:
                path = export_experiment(name, args.export)
                print(f"[exported {path}]")
            if obs_enabled:
                print(f"[obs written to {_dump_obs(name, args.obs_dir)}]")
    finally:
        if obs_enabled:
            obs_mod.disable_auto()
    if args.bench:
        import json

        payload = benchmark_payload(
            bench_rows, args.jobs, time.perf_counter() - suite_t0
        )
        with open(args.bench, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"\n[bench written to {args.bench}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
