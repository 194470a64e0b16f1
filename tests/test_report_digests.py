"""Pinned digests of the reports the control plane and the trace replay drive.

``predictive`` replays the warm-pool A/B (predictor ticks, pre-boots,
drains, reaper protection) and ``chaos`` the fault-injected cluster
(crashes, outages, idle reaping under failover).  Those two pins were
taken before the Container DB grew its indices and the predictor its
quiet ticks.  ``fig11`` (the trace-driven speedup CDF) and ``battery``
(per-user energy over a trace day) are the other digestible reports
that :func:`~repro.traces.replay_trace` drives; their pins were taken
before the open-loop client became one process.  These reports print
no host time, so any change to their bytes is a change in the model;
every pin holds across ``PYTHONHASHSEED`` values.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONTROL_PLANE = {
    "predictive": "33d82cb2f84ecc2a1ebbfcaa19a7d6639550d4c4612a35994f246e5383523415",
    "chaos": "8457997c33c074be89ef3643661d49603b1c914b1f5eabd188fb3c705687bd11",
}
TRACE_REPLAY = {
    "fig11": "eb0be3e25ff8c4ef7bcdc83c7374fc3dcf6dadb0bb647712d5dbe3763d6471db",
    "battery": "a4b827dfc5b8268f83233d4fe52fd8673d378fd883ffba3b1e2ac9196ed16afc",
}


def _check_pins(pinned, capsys):
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py"
    )
    report_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digests)
    assert report_digests.main(list(pinned)) == 0
    printed = capsys.readouterr().out
    assert printed == "".join(f"{digest}  {name}\n" for name, digest in pinned.items())


def test_predictive_and_chaos_reports_match_their_pins(capsys):
    _check_pins(CONTROL_PLANE, capsys)


def test_trace_replay_reports_match_their_pins(capsys):
    _check_pins(TRACE_REPLAY, capsys)
