"""Determinism regression: observability output is engine-invariant.

The parallel experiment engine promises bit-identical results whether
cells run serially or fan out over worker processes.  Observability
data must keep that promise too: a fixed seed yields byte-identical
trace-span sequences and metric snapshots for ``jobs=1`` vs ``jobs=N``
runs of the same cells, and across repeated runs in one process.
"""

import json
import os

import pytest

import repro.obs as obs_mod
from repro.experiments.common import run_workload_experiment
from repro.experiments.engine import Cell, run_cells
from repro.network import make_link
from repro.obs import Observability
from repro.offload import run_inflow_experiment
from repro.platform import RattrapPlatform
from repro.sim import Environment
from repro.workloads import CHESS_GAME, VIRUS_SCAN, generate_inflow, get_profile

PROFILES = {"chess": CHESS_GAME, "scan": VIRUS_SCAN}

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _obs_cell(profile_name: str, seed: int) -> dict:
    """One self-contained observed workload; returns the obs snapshot."""
    env = Environment()
    obs = Observability(env, tracing=True, metrics=True)
    plat = RattrapPlatform(env, optimized=True)
    plans = generate_inflow(
        PROFILES[profile_name], devices=3, requests_per_device=3, seed=seed
    )
    run_inflow_experiment(env, plat, plans, make_link("lan-wifi"))
    return obs.snapshot()


def _cells():
    return [
        Cell(
            experiment="obs-determinism",
            key=(name, seed),
            fn=_obs_cell,
            kwargs={"profile_name": name, "seed": seed},
        )
        for name in sorted(PROFILES)
        for seed in (1, 2)
    ]


def test_serial_and_parallel_snapshots_are_byte_identical():
    serial = run_cells(_cells(), jobs=1)
    parallel = run_cells(_cells(), jobs=3)
    assert len(serial) == len(parallel) == 4
    for s_snap, p_snap in zip(serial, parallel):
        assert json.dumps(s_snap, sort_keys=True) == json.dumps(
            p_snap, sort_keys=True
        )


def test_repeated_runs_are_byte_identical():
    first = json.dumps(_obs_cell("chess", seed=7), sort_keys=True)
    second = json.dumps(_obs_cell("chess", seed=7), sort_keys=True)
    assert first == second


def test_merged_worker_snapshots_match_serial_drain():
    """--trace/--metrics with --jobs N drains the same snapshots as serial.

    This drives the real auto-attach path: enable_auto, run the cells
    through the engine, drain.  Serially the environments are created
    in-process; in parallel the pool workers snapshot and pickle them
    back, and the engine absorbs in cell order.
    """
    obs_mod.enable_auto(tracing=True, metrics=True)
    try:
        run_cells(_cells(), jobs=1)
        serial = obs_mod.drain()
        run_cells(_cells(), jobs=3)
        parallel = obs_mod.drain()
    finally:
        obs_mod.disable_auto()
    assert len(serial) == len(parallel) == 4
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def _no_cache_rattrap_rows(profile, devices, requests_per_device, seed):
    """Optimized Rattrap with the code cache detached (the shape of the
    ``no-cache`` ablation), traced on the standard inflow."""
    env = Environment()
    Observability(env, tracing=True, metrics=False)
    plat = RattrapPlatform(env, optimized=True)
    plat.warehouse = None
    plans = generate_inflow(
        profile, devices=devices, requests_per_device=requests_per_device, seed=seed
    )
    run_inflow_experiment(env, plat, plans, make_link("lan-wifi"))
    return env.obs.tracer.as_rows()


@pytest.mark.parametrize(
    "platform,workload",
    [
        pytest.param("vm", "ocr", id="vm"),
        pytest.param("rattrap-wo", "ocr", id="rattrap-wo"),
        pytest.param("rattrap", "ocr", id="rattrap"),
        # VirusScan adds payload staging, dedup hits and execution I/O.
        pytest.param("vm", "scan", id="vm-scan"),
        pytest.param("rattrap-wo", "scan", id="rattrap-wo-scan"),
        pytest.param("rattrap", "scan", id="rattrap-scan"),
        pytest.param("rattrap-nocache", "scan", id="rattrap-nocache-scan"),
    ],
)
def test_golden_trace_sequence_is_pinned(platform, workload):
    """The full span sequence for one seed is a regression artifact.

    Any change to request ordering, phase boundaries, or dispatcher
    wake-up order shows up here as a diff against the checked-in trace.
    """
    profile = get_profile("virusscan" if workload == "scan" else workload)
    if platform == "rattrap-nocache":
        rows = _no_cache_rattrap_rows(profile, devices=2, requests_per_device=3, seed=1)
    else:
        exp = run_workload_experiment(
            platform, profile, devices=2, requests_per_device=3,
            seed=1, with_tracing=True,
        )
        rows = exp.env.obs.tracer.as_rows()
    path = os.path.join(DATA_DIR, f"trace_{platform}_{workload}_seed1.json")
    with open(path) as fh:
        golden = json.load(fh)
    assert rows == golden


def test_snapshot_contains_spans_and_metrics():
    snap = _obs_cell("chess", seed=1)
    assert snap["sim_now"] > 0
    assert snap["spans"], "tracing produced no spans"
    kinds = {row[0] for row in snap["spans"]}
    assert {"connect", "prepare", "upload", "execute", "collect"} <= kinds
    assert snap["metrics"]["counters"]["platform.requests"] == 9.0
    # The whole snapshot survives a JSON round-trip unchanged.
    assert json.loads(json.dumps(snap)) == snap
