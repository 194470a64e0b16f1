"""Tests for the benchmark regression gate (benchmarks/compare.py)."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(_ROOT, "benchmarks", "compare.py")
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _payload(walls, signals=None, cpu_count=2, jobs=0):
    rows = [
        {"name": n, "wall_s": w, "p99_wall_s": w,  # single cell: p99 == wall
         "signals": dict(signals or {}), "cells": []}
        for n, w in walls.items()
    ]
    return {"schema_version": bench_compare.BENCH_SCHEMA_VERSION,
            "jobs": jobs, "cpu_count": cpu_count, "experiments": rows}


def test_compare_flags_regressions_over_threshold():
    rows, regressions = bench_compare.compare(
        _payload({"fig9": 1.0, "fig10": 1.0}),
        _payload({"fig9": 1.30, "fig10": 1.10}),
        threshold=0.25,
        floor_s=0.25,
    )
    assert [r["name"] for r in regressions] == ["fig9"]
    assert len(rows) == 2
    assert regressions[0]["delta"] == pytest.approx(0.30)


def test_compare_noise_floor_skips_tiny_experiments():
    # +400% on a 10 ms experiment is scheduler jitter, not a regression.
    _, regressions = bench_compare.compare(
        _payload({"sec3e": 0.01}),
        _payload({"sec3e": 0.05}),
        threshold=0.25,
        floor_s=0.25,
    )
    assert regressions == []


def test_compare_speedups_never_flag():
    _, regressions = bench_compare.compare(
        _payload({"a": 2.0}), _payload({"a": 1.0})
    )
    assert regressions == []


def test_compare_ignores_experiments_missing_from_fresh():
    rows, regressions = bench_compare.compare(
        _payload({"a": 1.0, "b": 1.0}), _payload({"a": 1.0})
    )
    assert [r["name"] for r in rows] == ["a"]
    assert regressions == []


def test_compare_rejects_unknown_schema():
    # Only the engine's own schema is read: older baselines are
    # regenerated with `make bench`, not translated.
    for bad in ({"schema_version": 99, "experiments": []},
                {"schema_version": 6, "experiments": []},
                {"experiments": []}):
        with pytest.raises(ValueError, match="schema"):
            bench_compare.compare(bad, _payload({}))
        with pytest.raises(ValueError, match="schema"):
            bench_compare.compare(_payload({}), bad)


def test_compare_lists_changed_signals():
    # Signals are deterministic, so any difference is reported by name:
    # a changed value, a signal only one side reports, in first-seen order.
    base = _payload({"megascale": 2.0}, {
        "devices": 3500, "cache_hit_rate": 0.6, "local_fraction": 0.25,
        "epochs_run": 300, "epochs_skipped": 900,
    })
    same = bench_compare.compare(base, base)[0][0]
    assert same["changed"] == []
    assert same["base_p99_s"] == same["fresh_p99_s"] == pytest.approx(2.0)
    fresh = _payload({"megascale": 2.0}, {
        "devices": 3500, "cache_hit_rate": 0.65, "epochs_run": 310,
        "epochs_skipped": 900, "new_signal": 1,
    })
    (row,), regressions = bench_compare.compare(base, fresh)
    assert row["changed"] == [
        "cache_hit_rate", "local_fraction", "epochs_run", "new_signal",
    ]
    assert regressions == []


def test_compare_reads_v1_baseline_against_v2_fresh():
    # A pre-v7 baseline (v1 had neither p99 nor signals) is not translated:
    # compare refuses it and names the command that regenerates it.
    v1 = {"schema_version": 1, "experiments": [{"name": "fig9", "wall_s": 1.0}]}
    with pytest.raises(ValueError, match="make bench"):
        bench_compare.compare(v1, _payload({"fig9": 1.1}))


def test_compare_carries_v2_p99_through():
    rows, _ = bench_compare.compare(
        _payload({"fig9": 1.0}), _payload({"fig9": 1.2})
    )
    assert rows[0]["base_p99_s"] == pytest.approx(1.0)
    assert rows[0]["fresh_p99_s"] == pytest.approx(1.2)
    # p99 is timing, not model output: it never lists as a changed signal.
    assert rows[0]["changed"] == []


def test_compare_carries_v3_device_throughput_through():
    # Device counts ride in the signals map; throughput is recovered as
    # signals.devices / wall_s.  A baseline without the signal against a
    # fresh run reporting it lists it as changed instead of erroring.
    fresh = _payload({"scale": 2.0}, {"devices": 3500})
    (row,), _ = bench_compare.compare(fresh, fresh)
    assert row["changed"] == []
    (exp,) = fresh["experiments"]
    assert exp["signals"]["devices"] / exp["wall_s"] == pytest.approx(1750.0)
    (row,), _ = bench_compare.compare(_payload({"scale": 2.0}), fresh)
    assert row["changed"] == ["devices"]


def test_compare_carries_v4_hit_rate_through():
    (row,), _ = bench_compare.compare(
        _payload({"cachebench": 2.0}, {"cache_hit_rate": 0.6}),
        _payload({"cachebench": 2.0}, {"cache_hit_rate": 0.65}),
    )
    assert row["changed"] == ["cache_hit_rate"]
    (row,), _ = bench_compare.compare(
        _payload({"cachebench": 2.0}),
        _payload({"cachebench": 2.0}, {"cache_hit_rate": 0.65}),
    )
    assert row["changed"] == ["cache_hit_rate"]


def test_compare_carries_v5_local_fraction_through():
    (row,), _ = bench_compare.compare(
        _payload({"partition": 2.0}, {"local_fraction": 0.25}),
        _payload({"partition": 2.0}, {"local_fraction": 0.30}),
    )
    assert row["changed"] == ["local_fraction"]
    (row,), _ = bench_compare.compare(
        _payload({"partition": 2.0}, {"local_fraction": 0.25}),
        _payload({"partition": 2.0}, {"local_fraction": 0.25}),
    )
    assert row["changed"] == []


def test_compare_carries_v6_epoch_counters_through():
    base = _payload({"megascale": 2.0},
                    {"epochs_run": 300, "epochs_skipped": 900})
    (row,), _ = bench_compare.compare(base, _payload(
        {"megascale": 2.0}, {"epochs_run": 310, "epochs_skipped": 890}))
    assert row["changed"] == ["epochs_run", "epochs_skipped"]
    (row,), _ = bench_compare.compare(_payload({"megascale": 2.0}), base)
    assert row["changed"] == ["epochs_run", "epochs_skipped"]


def test_committed_baseline_is_readable():
    # A schema change without a regenerated baseline fails here.
    with open(os.path.join(_ROOT, bench_compare.DEFAULT_BASELINE)) as fh:
        baseline = json.load(fh)
    experiments = bench_compare._by_name(baseline)
    assert set(bench_compare.SMOKE_EXPERIMENTS) <= set(experiments)
    assert all(isinstance(e["signals"], dict) for e in experiments.values())


def test_cli_compares_saved_runs(tmp_path, capsys):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_payload({"a": 1.0})))
    fresh.write_text(json.dumps(_payload({"a": 2.0})))
    rc = bench_compare.main(["--baseline", str(base), "--fresh", str(fresh)])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().out

    fresh.write_text(json.dumps(_payload({"a": 1.1})))
    rc = bench_compare.main(["--baseline", str(base), "--fresh", str(fresh)])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_cli_missing_baseline_is_an_error(tmp_path):
    rc = bench_compare.main(["--baseline", str(tmp_path / "nope.json"),
                             "--fresh", str(tmp_path / "nope.json")])
    assert rc == 2


@pytest.mark.parametrize("base_host, fresh_host, caveat", [
    ((2, 0), (2, 0), None),
    ((1, 0), (2, 0), "differ"),
    ((2, 0), (2, 2), "differ"),
    ((1, 4), (1, 4), "jobs=4 exceeds cpu_count=1"),
])
def test_cli_prints_host_facts_and_parallel_caveat(
    tmp_path, capsys, base_host, fresh_host, caveat
):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_payload({"a": 1.0}, None, *base_host)))
    fresh.write_text(json.dumps(_payload({"a": 1.0}, None, *fresh_host)))
    assert bench_compare.main(["--baseline", str(base), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert f"base host: cpu_count={base_host[0]} jobs={base_host[1]}" in out
    assert f"fresh host: cpu_count={fresh_host[0]} jobs={fresh_host[1]}" in out
    (verdict,) = [line for line in out.splitlines() if line.startswith("OK")]
    if caveat is None:
        assert "parallel-speedup" not in verdict
    else:
        assert "not a parallel-speedup measurement" in verdict
        assert caveat in verdict
