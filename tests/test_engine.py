"""Tests for the parallel experiment engine (cells, fan-out, bench)."""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    BENCH_SCHEMA_VERSION,
    Cell,
    benchmark_payload,
    collect_timings,
    default_jobs,
    fig9_performance,
    run_cells,
    table2_migrated,
)
from repro.experiments import engine
from repro.experiments.runner import EXPERIMENTS, main, run_experiment


def _square(x):
    return x * x


def _cells(n=4):
    return [
        Cell(experiment="toy", key=(i,), fn=_square, kwargs={"x": i})
        for i in range(n)
    ]


# ---------------------------------------------------------------- run_cells
def test_run_cells_serial_order():
    assert run_cells(_cells(), jobs=0) == [0, 1, 4, 9]
    assert run_cells(_cells(), jobs=1) == [0, 1, 4, 9]


def test_run_cells_empty():
    assert run_cells([], jobs=4) == []


def test_run_cells_rejects_negative_jobs():
    with pytest.raises(ValueError):
        run_cells(_cells(), jobs=-1)


def test_run_cells_parallel_matches_serial():
    assert run_cells(_cells(8), jobs=4) == run_cells(_cells(8), jobs=0)


def test_run_cells_jobs_none_uses_cpu_count():
    assert default_jobs() >= 1
    assert run_cells(_cells(), jobs=None) == [0, 1, 4, 9]


def test_run_cells_falls_back_to_serial_when_pool_unavailable(monkeypatch):
    def broken_pool(cells, workers):
        raise OSError("no process pool in this sandbox")

    monkeypatch.setattr(engine, "_run_pool", broken_pool)
    with pytest.warns(RuntimeWarning, match="no process pool in this sandbox"):
        assert run_cells(_cells(), jobs=4) == [0, 1, 4, 9]


def _boom(x):
    raise ValueError(f"cell {x} failed")


def test_run_cells_pooled_cell_error_propagates_without_serial_rerun(monkeypatch):
    # ValueError is also a pool-unavailable error; a cell raising one
    # must still surface as itself, not trigger the serial fallback.
    def no_serial(cells):
        pytest.fail("a failing cell was re-run serially")

    monkeypatch.setattr(engine, "_run_serial", no_serial)
    cells = [Cell(experiment="toy", key=(i,), fn=_boom, kwargs={"x": i})
             for i in range(2)]
    with pytest.raises(ValueError, match="cell 0 failed"):
        run_cells(cells, jobs=2)


def _die(x):
    os._exit(1)


def test_run_cells_dead_worker_raises(monkeypatch):
    monkeypatch.setattr(engine, "_run_serial", lambda cells: pytest.fail("masked"))
    cells = [Cell(experiment="toy", key=(i,), fn=_die, kwargs={"x": i})
             for i in range(2)]
    with pytest.raises(BrokenProcessPool):
        run_cells(cells, jobs=2)


def test_collect_timings_records_every_cell():
    with collect_timings() as timings:
        run_cells(_cells(3), jobs=0)
    assert [(t.experiment, t.key) for t in timings] == [
        ("toy", (0,)), ("toy", (1,)), ("toy", (2,)),
    ]
    assert all(t.wall_s >= 0 for t in timings)


def test_timings_dropped_outside_collector():
    with collect_timings() as timings:
        pass
    run_cells(_cells(2), jobs=0)
    assert timings == []


# ---------------------------------------------- experiment-level determinism
@pytest.mark.parametrize("module", [fig9_performance, table2_migrated],
                         ids=["fig9", "table2"])
def test_experiment_parallel_identical_to_serial(module):
    serial = module.run(jobs=0)
    parallel = module.run(jobs=4)
    assert parallel == serial
    assert module.report(parallel) == module.report(serial)


def test_every_experiment_exposes_cells_protocol():
    for name, (module, _) in EXPERIMENTS.items():
        assert callable(getattr(module, "cells")), name
        assert callable(getattr(module, "merge")), name
        cs = module.cells()
        assert cs, name
        assert all(isinstance(c, Cell) for c in cs), name


def test_run_experiment_jobs_flag_identical():
    assert run_experiment("fig6", jobs=2) == run_experiment("fig6", jobs=0)


# ------------------------------------------------------------ bench artifact
def test_benchmark_payload_schema():
    with collect_timings() as timings:
        run_cells(_cells(2), jobs=0)
    payload = benchmark_payload(
        [{"name": "toy", "wall_s": 0.5, "timings": timings}],
        jobs=0,
        total_wall_s=0.5,
    )
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert set(payload) == {
        "schema_version", "jobs", "cpu_count", "total_wall_s", "experiments",
    }
    (row,) = payload["experiments"]
    assert set(row) == {"name", "wall_s", "p99_wall_s", "signals", "cells"}
    # toy cells return bare ints: they report no signal, and an absent
    # signal is left out rather than written as null
    assert row["signals"] == {}
    assert row["cells"] == [
        {"key": [0], "wall_s": timings[0].wall_s, "signals": {}},
        {"key": [1], "wall_s": timings[1].wall_s, "signals": {}},
    ]
    # nearest-rank p99 over 2 cells is the slower one
    assert row["p99_wall_s"] == max(t.wall_s for t in timings)
    empty = benchmark_payload(
        [{"name": "none", "wall_s": 0.1}], jobs=0, total_wall_s=0.1
    )
    assert empty["experiments"][0]["p99_wall_s"] is None


def _fleet_cell(devices):
    return {"devices": devices, "completed": devices}


def _cache_cell(rate):
    return {"devices": 100, "cache_hit_rate": rate}


def _partition_cell(fraction):
    return {"devices": 6, "local_fraction": fraction}


def _sharded_cell(run, skipped):
    return {"devices": 50, "epochs_run": run, "epochs_skipped": skipped}


# Fake cells per signal, with the per-experiment value the schema v3-v6
# field-by-field roll-up produced: sums for counts, unweighted means over
# reporting cells for rates.  A signal added to SIGNALS without a case
# here fails with a KeyError.
_SIGNAL_CASES = {
    "devices": (_fleet_cell, [{"devices": 1000}, {"devices": 2500}],
                [1000, 2500], 3500),
    "cache_hit_rate": (_cache_cell, [{"rate": 0.0}, {"rate": 0.9}],
                       [0.0, 0.9], 0.45),
    "local_fraction": (_partition_cell, [{"fraction": 0.0}, {"fraction": 0.5}],
                       [0.0, 0.5], 0.25),
    "epochs_run": (_sharded_cell, [{"run": 300, "skipped": 900},
                                   {"run": 100, "skipped": 0}],
                   [300, 100], 400),
    "epochs_skipped": (_sharded_cell, [{"run": 300, "skipped": 900},
                                       {"run": 100, "skipped": 0}],
                       [900, 0], 900),
}


@pytest.mark.parametrize("signal", list(engine.SIGNALS))
def test_benchmark_payload_signal_rollup(signal):
    fn, kwargs, per_cell, rolled_up = _SIGNAL_CASES[signal]
    cells = [Cell(experiment="x", key=(i,), fn=fn, kwargs=kw)
             for i, kw in enumerate(kwargs)]
    with collect_timings() as timings:
        run_cells(cells, jobs=0)
    assert [t.signals[signal] for t in timings] == per_cell
    (row,) = benchmark_payload(
        [{"name": "x", "wall_s": 0.5, "timings": timings}],
        jobs=0,
        total_wall_s=0.5,
    )["experiments"]
    assert row["signals"][signal] == pytest.approx(rolled_up)
    assert [c["signals"][signal] for c in row["cells"]] == per_cell


def test_signals_skip_non_numeric_entries():
    assert engine._signals_of({"devices": True, "cache_hit_rate": "high",
                               "local_fraction": 0.5}) == {"local_fraction": 0.5}
    assert engine._signals_of([("devices", 3)]) == {}


def test_runner_bench_writes_stable_schema(tmp_path, capsys):
    bench = tmp_path / "BENCH_experiments.json"
    assert main(["--bench", str(bench), "sec3e"]) == 0
    payload = json.loads(bench.read_text())
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert payload["jobs"] == 0
    assert payload["total_wall_s"] > 0
    (row,) = payload["experiments"]
    assert row["name"] == "sec3e"
    assert row["cells"] and all(
        set(c) == {"key", "wall_s", "signals"} for c in row["cells"]
    )
