"""Replay generated LiveLab days through perfbench's ``trace_mix`` model.

For each day (default 0-30) the script sets perfbench's
``TRACE_DAY_SEED``, builds the ``trace_mix`` workload at the given
request seed and runs it once.  It prints one line per day: ``ok`` and
a digest of the run's simulated statistics with the kernel event count
left out, or the exception that aborted the replay.  It exits 1 if any
day failed.  perfbench's files are only imported, never written.

Because ``events`` is left out, the output of two trees can be diffed
to check a change that may move event counts but nothing simulated::

    python tools/trace_day_sweep.py > after.txt
    python tools/trace_day_sweep.py --seed 9001 0 1 2

A full sweep takes about two and a half minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as W  # noqa: E402  (perfbench/workloads.py)


def sweep_day(day: int, seed: int) -> str:
    """``ok <digest>`` for a completed replay of ``day``, else the error."""
    W.TRACE_DAY_SEED = day
    try:
        outcome = W.build("trace_mix", W.trace_mix_inputs(seed)).run()
    except Exception as exc:  # a replay that aborts is what the sweep reports
        return f"{type(exc).__name__} {exc}"
    sim = {k: v for k, v in outcome.sim.items() if k != "events"}
    return f"ok {W.digest_of(dataclasses.replace(outcome, sim=sim))}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="request seed (default 1)")
    parser.add_argument("days", nargs="*", type=int, default=list(range(31)))
    args = parser.parse_args(argv)
    failed = 0
    for day in args.days:
        line = sweep_day(day, args.seed)
        failed += not line.startswith("ok ")
        print(f"day {day:2d}: {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
