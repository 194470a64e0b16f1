"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def test_sharded_parallel_matches_serial():
    """jobs=2 (one worker process per shard) prints the serial digest."""
    inputs = W.sharded_inputs(3)
    serial = W.build("sharded", inputs, jobs=1).run()
    parallel = W.build("sharded", inputs, jobs=2).run()
    assert run.check_outcome(serial) == []
    assert W.digest_of(parallel) == W.digest_of(serial)


def test_fleet_digest_repeats(monkeypatch):
    monkeypatch.setattr(W, "FLEET_DEVICES", 400)
    inputs = W.fleet_inputs(5)
    first = W.build("fleet", inputs).run()
    again = W.build("fleet", inputs).run()
    assert run.check_outcome(first) == []
    assert first.completed == 400
    assert W.digest_of(first) == W.digest_of(again)
    assert W.digest_of(first) != W.digest_of(W.build("fleet", W.fleet_inputs(6)).run())


def test_segments_change_nothing(monkeypatch):
    """Cutting the event loop into timed segments keeps every event."""
    monkeypatch.setattr(W, "TRACE_REQUESTS", 400)
    inputs = W.trace_mix_inputs(2)
    cut = W.build("trace_mix", inputs)
    plain = W.build("trace_mix", inputs)
    del plain.env.run  # the kernel's own run, in one piece
    assert W.digest_of(cut.run()) == W.digest_of(plain.run())
    assert len(cut.marks) > 100 and plain.marks == []


def test_fleet_segments_are_the_same_work_every_run(monkeypatch):
    monkeypatch.setattr(W, "FLEET_DEVICES", 300)
    inputs = W.fleet_inputs(4)
    first, again = W.build("fleet", inputs), W.build("fleet", inputs)
    first.run(), again.run()
    assert len(first.marks) == len(again.marks) > 10


def test_fastest_wall_takes_the_fastest_run_per_segment():
    assert run.fastest_wall([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0
    assert run.wall_of([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0


def test_uncut_runs_take_the_median_run():
    assert run.wall_of([[2.0], [9.0], [1.5]]) == 2.0


def test_serial_fallback_counts_as_failed():
    """A jobs=2 run that silently ran serially is not measured as jobs=2."""
    outcome = W.Outcome(submitted=5, completed=5, blocked=0, failed=0, responses=[1.0], sim={})

    class FellBack:
        marks: list = []

        def run(self):
            warnings.warn(
                "sharded worker pool unavailable (OSError()); running 2 shard(s) serially",
                RuntimeWarning,
            )
            return outcome

    tally = run.Tally(W)
    assert tally.run(FellBack(), 5)[0] is None
    assert (tally.attempted, tally.failed, tally.correct) == (5, 5, False)


def test_trace_mix_request_count_is_fixed():
    for seed in (1, 2):
        assert len(W.trace_mix_inputs(seed)["rows"]) == W.TRACE_REQUESTS


def test_conservation_check_flags_lost_requests():
    outcome = W.Outcome(
        submitted=5, completed=3, blocked=1, failed=0, responses=[1.0, 2.0, 3.0], sim={}
    )
    assert any("conservation" in p for p in run.check_outcome(outcome))


def test_traced_run_tiles_wall_time(monkeypatch, tmp_path):
    monkeypatch.setattr(W, "FLEET_DEVICES", 300)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    tally, metrics, context = run.traced(W, "fleet", 1, 0.0)
    assert tally.correct, tally.problems
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["serve.requests"] == 300
    assert metrics["sim.self_host_s"] >= 0
    assert len(set(tally.digests)) == 1  # tracing does not change the model
    assert (tmp_path / "fleet-seed1.npz").is_file()


def test_generator_wrapper_forwards_like_yield_from():
    def inner():
        try:
            got = yield 1
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    rec = spans.Recorder()
    spans._current[0] = rec
    gen = spans._resumes(inner(), "test.inner", -1)
    assert next(gen) == 1
    assert gen.send(21) == 42
    assert gen.throw(KeyError("x")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert rec.by_name()["test.inner"]["spans"] == 4
    assert rec.open_spans == 0 and rec.misnested == 0
    assert rec.tiling_error_s() < 1e-9


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# Known program defects, reproduced on other generated days than the
# benchmark's (README.md, "Known defects").  Strict: once the platform
# is fixed these pass, fail as XPASS, and the markers must go.


@pytest.mark.xfail(strict=True, raises=RuntimeError, reason="reaper stops a dispatched runtime")
def test_trace_mix_day_25_completes(monkeypatch):
    monkeypatch.setattr(W, "TRACE_DAY_SEED", 25)
    W.build("trace_mix", W.trace_mix_inputs(1)).run()


@pytest.mark.xfail(strict=True, raises=KeyError, reason="cluster cache hit on a node without the code")
def test_trace_mix_day_13_completes(monkeypatch):
    monkeypatch.setattr(W, "TRACE_DAY_SEED", 13)
    W.build("trace_mix", W.trace_mix_inputs(1)).run()
