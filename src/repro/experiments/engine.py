"""Parallel experiment engine: cells, fan-out, and benchmark artifacts.

Every experiment decomposes into independent *cells* — one
(platform, profile, scenario, seed) combination, each building its own
:class:`~repro.sim.Environment` from its own deterministic seed.  The
engine fans cells out across a ``ProcessPoolExecutor`` and reassembles
results **in cell order**, so parallel output is bit-identical to the
serial run: no cell reads another cell's state, and merging never
depends on completion order.

``jobs`` semantics (mirrored by the ``rattrap-experiments --jobs``
flag):

- ``0`` or ``1`` — serial, in the current process (the default);
- ``N > 1``     — up to N worker processes;
- ``None``      — one worker per CPU.

If a process pool cannot be created (no ``fork``/``spawn`` support,
sandboxed interpreter, unpicklable cell) the engine runs the cells on
the in-process serial path with a :class:`RuntimeWarning` naming the
cause — same results, no parallelism.  A cell's own exception and a
dead worker are never masked: both raise from :func:`run_cells`.

Observability composes with parallelism: when process-wide auto-attach
is on (``--trace``/``--metrics``), each worker re-enables identical
capture around its cell, pickles the resulting snapshots back, and
:func:`run_cells` absorbs them in cell order — so a ``--jobs N`` run
drains byte-identical observability JSON to the serial run.

Per-cell wall-clock is measured inside the worker and surfaced through
:func:`collect_timings`, which :mod:`repro.experiments.runner` uses to
write the ``BENCH_experiments.json`` trajectory artifact.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..analysis import nearest_rank

# The sharded kernel's rule for "no worker pool here" (sandboxed
# interpreter, fork limits, unpicklable payload): only these fall back.
from ..sim.shard import _POOL_UNAVAILABLE

__all__ = [
    "Cell",
    "CellTiming",
    "run_cells",
    "collect_timings",
    "default_jobs",
    "benchmark_payload",
    "BENCH_SCHEMA_VERSION",
    "SIGNALS",
]

#: bump only when the BENCH_experiments.json layout changes shape; a new
#: signal is one :data:`SIGNALS` entry, never a version bump
BENCH_SCHEMA_VERSION = 7


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


#: numeric entries a cell's mapping return value may report, each with
#: the roll-up over the reporting cells that gives the experiment's value
SIGNALS: Dict[str, Callable[[Sequence[float]], float]] = {
    "devices": sum,
    "epochs_run": sum,
    "epochs_skipped": sum,
    "cache_hit_rate": _mean,
    "local_fraction": _mean,
}

@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``fn`` must be a module-level callable (picklable by qualified
    name) taking ``**kwargs`` and returning picklable data.  ``key``
    identifies the cell inside its experiment — e.g.
    ``("ocr", "lan-wifi", "rattrap")`` — and is what ``merge``
    implementations index on.
    """

    experiment: str
    key: Tuple[Any, ...]
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        """Execute the cell in-process."""
        return self.fn(**self.kwargs)


@dataclass
class CellTiming:
    """Wall-clock record for one executed cell.

    ``signals`` holds the :data:`SIGNALS` entries the cell's mapping
    return value reported; a signal the cell does not report is absent.
    """

    experiment: str
    key: Tuple[Any, ...]
    wall_s: float
    signals: Dict[str, float] = field(default_factory=dict)


def _signals_of(value: Any) -> Dict[str, float]:
    """The :data:`SIGNALS` entries a cell's return value reports."""
    if not isinstance(value, Mapping):
        return {}
    return {
        name: value[name]
        for name in SIGNALS
        if isinstance(value.get(name), (int, float))
        and not isinstance(value[name], bool)
    }


class _CellError(Exception):
    """A cell's own exception, carried out of a pool worker."""


# Timings flow to whichever collector is active; `None` means drop them.
_active_timings: Optional[List[CellTiming]] = None


@contextmanager
def collect_timings() -> Iterator[List[CellTiming]]:
    """Collect per-cell timings from every ``run_cells`` in the block."""
    global _active_timings
    previous = _active_timings
    timings: List[CellTiming] = []
    _active_timings = timings
    try:
        yield timings
    finally:
        _active_timings = previous


def default_jobs() -> int:
    """Worker count used for ``jobs=None``: one per CPU."""
    return os.cpu_count() or 1


def _execute_cell(fn: Callable[..., Any], kwargs: Mapping[str, Any]) -> Tuple[Any, float]:
    """Run one cell, timing it where it runs."""
    t0 = time.perf_counter()
    value = fn(**dict(kwargs))
    return value, time.perf_counter() - t0


def _execute_pooled(
    fn: Callable[..., Any],
    kwargs: Mapping[str, Any],
    flags: Optional[Tuple[bool, bool]],
) -> Tuple[Any, float, List[Dict[str, Any]]]:
    """Worker entry point: run one cell and ship its snapshots back.

    With process-wide observability on (``flags``), re-enables the
    parent's auto-attach flags inside the worker and returns the drained
    snapshots as plain dicts (the live Observability objects hold an
    Environment and never pickle).  The cell's own exception travels
    back wrapped in :class:`_CellError`, so the parent re-raises it
    instead of taking it for an unavailable pool.
    """
    from .. import obs as obs_mod

    obs_mod.disable_auto()  # fork may have inherited parent auto state
    if flags is not None:
        obs_mod.enable_auto(tracing=flags[0], metrics=flags[1])
    try:
        value, wall = _execute_cell(fn, kwargs)
        return value, wall, obs_mod.drain()
    except Exception as exc:
        raise _CellError(exc) from exc
    finally:
        obs_mod.disable_auto()


def _run_serial(cells: Sequence[Cell]) -> List[Tuple[Any, float]]:
    return [_execute_cell(cell.fn, cell.kwargs) for cell in cells]


def _run_pool(cells: Sequence[Cell], workers: int) -> List[Tuple[Any, float]]:
    from concurrent.futures import ProcessPoolExecutor

    from .. import obs as obs_mod

    flags = obs_mod.auto_flags()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_execute_pooled, cell.fn, dict(cell.kwargs), flags)
            for cell in cells
        ]
        # Collect in submission order — determinism does not depend on
        # completion order — and resolve every future before absorbing
        # any snapshots, so a failed run absorbs none.
        outcomes = [f.result() for f in futures]
    for _, _, snaps in outcomes:
        obs_mod.absorb(snaps)  # cell submission order == serial order
    return [(value, wall) for value, wall, _ in outcomes]


def run_cells(cells: Sequence[Cell], jobs: Optional[int] = 0) -> List[Any]:
    """Run every cell and return the values **in cell order**.

    ``jobs=0``/``1`` runs serially in-process; ``jobs=N`` fans out over
    up to N worker processes; ``jobs=None`` uses one worker per CPU.
    Parallel runs produce bit-identical results to serial ones because
    each cell is self-contained and deterministically seeded.
    """
    cells = list(cells)
    if not cells:
        return []
    workers = default_jobs() if jobs is None else int(jobs)
    if workers < 0:
        raise ValueError(f"jobs must be >= 0, got {workers}")
    workers = min(workers, len(cells))
    if workers <= 1:
        outcomes = _run_serial(cells)
    else:
        try:
            outcomes = _run_pool(cells, workers)
        except _CellError as err:
            raise err.args[0] from err  # the cell failed, not the pool
        except _POOL_UNAVAILABLE as exc:
            warnings.warn(
                f"experiment worker pool unavailable ({exc!r}); "
                f"running {len(cells)} cell(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            outcomes = _run_serial(cells)
    if _active_timings is not None:
        for cell, (value, wall_s) in zip(cells, outcomes):
            _active_timings.append(
                CellTiming(cell.experiment, cell.key, wall_s, _signals_of(value))
            )
    return [value for value, _ in outcomes]


def benchmark_payload(
    experiments: Sequence[Mapping[str, Any]],
    jobs: Optional[int],
    total_wall_s: float,
) -> Dict[str, Any]:
    """Assemble the ``BENCH_experiments.json`` document.

    ``experiments`` rows carry ``name``, ``wall_s`` and the ``timings``
    a :func:`collect_timings` block gathered.  Each becomes
    ``{"name", "wall_s", "p99_wall_s", "signals", "cells"}``:
    ``p99_wall_s`` is the nearest-rank p99 over the cell wall-clocks
    (``null`` when no cells were timed), each cell is
    ``{"key", "wall_s", "signals"}``, and the experiment's ``signals``
    roll each reported :data:`SIGNALS` entry up over the cells that
    report it.  A signal no cell reports is left out, not ``null``.
    """
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "jobs": default_jobs() if jobs is None else int(jobs),
        "cpu_count": os.cpu_count(),
        "total_wall_s": total_wall_s,
        "experiments": [
            _experiment_row(row) for row in experiments
        ],
    }


def _experiment_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """One per-experiment entry of the benchmark payload."""
    timings = list(row.get("timings", ()))
    signals = {}
    for name, rollup in SIGNALS.items():
        values = [t.signals[name] for t in timings if name in t.signals]
        if values:
            signals[name] = rollup(values)
    return {
        "name": row["name"],
        "wall_s": row["wall_s"],
        "p99_wall_s": (
            nearest_rank([t.wall_s for t in timings], 0.99) if timings else None
        ),
        "signals": signals,
        "cells": [
            {"key": list(t.key), "wall_s": t.wall_s, "signals": t.signals}
            for t in timings
        ],
    }
