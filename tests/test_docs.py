"""Docs that quote the code must agree with it."""

import re
from pathlib import Path

from repro.experiments.engine import BENCH_SCHEMA_VERSION

PERFORMANCE_MD = Path(__file__).resolve().parents[1] / "docs" / "PERFORMANCE.md"


def test_performance_doc_bench_schema_matches_engine():
    text = PERFORMANCE_MD.read_text(encoding="utf-8")
    examples = re.findall(r'"schema_version":\s*(\d+)', text)
    quoted = re.findall(r"BENCH_SCHEMA_VERSION = (\d+)", text)
    assert examples, "docs/PERFORMANCE.md has no schema_version example"
    assert quoted, "docs/PERFORMANCE.md does not name BENCH_SCHEMA_VERSION"
    for version in examples + quoted:
        assert int(version) == BENCH_SCHEMA_VERSION, (
            f"docs/PERFORMANCE.md documents bench schema v{version}, "
            f"the engine writes v{BENCH_SCHEMA_VERSION}"
        )
