"""Docs that quote the code must agree with it."""

import importlib.util
import re
from pathlib import Path

from repro.experiments.engine import BENCH_SCHEMA_VERSION

ROOT = Path(__file__).resolve().parents[1]
PERFORMANCE_MD = ROOT / "docs" / "PERFORMANCE.md"
OBSERVABILITY_MD = ROOT / "docs" / "OBSERVABILITY.md"
SRC = ROOT / "src" / "repro"
MAKEFILE = ROOT / "Makefile"


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


def _registered_metric_names():
    """``(prefix, templated)`` for each string or f-string literal first
    argument of a ``.counter(``/``.gauge(``/``.histogram(`` call: the
    name up to its first ``{``, and whether it had one."""
    call = re.compile(r"""\.(?:counter|gauge|histogram)\(\s*f?(["'])(.*?)\1""")
    names = set()
    for path in SRC.rglob("*.py"):
        for _, name in call.findall(path.read_text(encoding="utf-8")):
            prefix, brace, _ = name.partition("{")
            names.add((prefix, bool(brace)))
    return names


def test_metric_catalogue_lists_every_registered_instrument():
    text = OBSERVABILITY_MD.read_text(encoding="utf-8")
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    catalogue = {
        name
        for line in section.splitlines() if line.startswith("| `")
        for name in re.findall(r"`([^`]+)`", line.split("|")[1])
    }
    names = _registered_metric_names()
    assert len(names) > 50, "the instrument scan found too few call sites"
    # A literal name must be listed as is; an f-string's fixed prefix
    # (`faults.` of `faults.{kind}`) must start some listed name.
    missing = sorted(
        prefix for prefix, templated in names
        if prefix not in catalogue
        and not (templated and any(e.startswith(prefix) for e in catalogue))
    )
    assert not missing, f"docs/OBSERVABILITY.md catalogue lacks {missing}"
    # And back: a listed name must be registered as is, or start with
    # an f-string's fixed prefix (`link.bytes_up` of `link.bytes_{d}`).
    literal = {prefix for prefix, templated in names if not templated}
    prefixes = [prefix for prefix, templated in names if templated]
    assert all(prefixes), "an f-string name with no fixed prefix matches anything"
    stale = sorted(
        entry for entry in catalogue
        if entry not in literal and not any(entry.startswith(p) for p in prefixes)
    )
    assert not stale, f"docs/OBSERVABILITY.md lists unregistered {stale}"


def _extras(command):
    return tuple(re.findall(r"--extra\s+(\w+)", command))


def test_bench_extras_match_makefile_compare_and_doc():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "benchmarks" / "compare.py"
    )
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    recipe = MAKEFILE.read_text(encoding="utf-8").split("\nbench:\n", 1)[1]
    recipe = recipe.split("\n\n", 1)[0]
    assert _extras(recipe) == compare.SMOKE_EXPERIMENTS
    section = PERFORMANCE_MD.read_text(encoding="utf-8").split(
        "## `BENCH_experiments.json`", 1)[1].split("\n## ", 1)[0]
    quoted = [q for q in re.findall(r"`([^`]*)`", section) if "--extra" in q]
    assert quoted, "docs/PERFORMANCE.md does not quote the make bench extras"
    for command in quoted:
        assert _extras(command) == compare.SMOKE_EXPERIMENTS, command
