"""Pinned digests of the reports the control plane drives.

``predictive`` replays the warm-pool A/B (predictor ticks, pre-boots,
drains, reaper protection) and ``chaos`` the fault-injected cluster
(crashes, outages, idle reaping under failover).  Both reports print no
host time, so any change to their bytes is a change in the model.  The
pins were taken before the Container DB grew its indices and the
predictor its quiet ticks; they hold across ``PYTHONHASHSEED`` values.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "predictive": "33d82cb2f84ecc2a1ebbfcaa19a7d6639550d4c4612a35994f246e5383523415",
    "chaos": "8457997c33c074be89ef3643661d49603b1c914b1f5eabd188fb3c705687bd11",
}


def test_predictive_and_chaos_reports_match_their_pins(capsys):
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py"
    )
    report_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digests)
    assert report_digests.main(list(PINNED)) == 0
    printed = capsys.readouterr().out
    assert printed == "".join(f"{digest}  {name}\n" for name, digest in PINNED.items())
