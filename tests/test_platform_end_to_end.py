"""End-to-end platform tests: the full offloading lifecycle on all three
platforms, checking the paper's headline behaviours."""

import pytest

from repro.network import make_link
from repro.offload import Phase, replay_inflow, run_inflow_experiment
from repro.platform import RattrapPlatform, VMCloudPlatform
from repro.platform.access import RequestAccessController
from repro.offload.request import OffloadRequest
from repro.sim import Environment
from repro.workloads import CHESS_GAME, LINPACK, OCR, VIRUS_SCAN, generate_inflow

KB = 1024


def run_platform(platform_name, profile, devices=5, per_device=20, scenario="lan-wifi",
                 seed=1, env_out=None):
    env = Environment()
    if platform_name == "vm":
        plat = VMCloudPlatform(env)
    else:
        plat = RattrapPlatform(env, optimized=(platform_name == "rattrap"))
    plans = generate_inflow(profile, devices=devices, requests_per_device=per_device,
                            seed=seed)
    results = run_inflow_experiment(env, plat, plans, make_link(scenario))
    if env_out is not None:
        env_out.append((env, plat))
    return results


def mean_phase(results, phase):
    return sum(r.phase(phase) for r in results) / len(results)


# ------------------------------------------------------------ single request
def test_single_request_lifecycle_vm():
    env = Environment()
    plat = VMCloudPlatform(env)
    req = OffloadRequest(request_id=0, device_id="d0", app_id="chess",
                         profile=CHESS_GAME)
    result = env.run(until=plat.submit(req, make_link("lan-wifi")))
    assert result.executed_on == "cid-1"
    assert not result.blocked
    assert result.phase(Phase.PREPARATION) == pytest.approx(28.72, rel=0.02)
    assert result.phase(Phase.CONNECTION) > 0
    assert result.phase(Phase.TRANSFER) > 0
    assert result.phase(Phase.EXECUTION) > 0
    assert result.response_time == pytest.approx(result.timeline.total)
    # Cold VM start makes the first ChessGame request an offloading failure.
    assert result.offloading_failure


def test_single_request_lifecycle_rattrap():
    env = Environment()
    plat = RattrapPlatform(env, optimized=True)
    req = OffloadRequest(request_id=0, device_id="d0", app_id="chess",
                         profile=CHESS_GAME)
    result = env.run(until=plat.submit(req, make_link("lan-wifi")))
    assert result.phase(Phase.PREPARATION) == pytest.approx(
        1.75 + plat.access.analysis_time_s, rel=0.05
    )
    # Rattrap's fast boot keeps even the cold request profitable.
    assert not result.offloading_failure


def test_second_request_is_warm():
    env = Environment()
    plat = RattrapPlatform(env, optimized=True)
    link = make_link("lan-wifi")
    r1 = env.run(until=plat.submit(
        OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    r2 = env.run(until=plat.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link))
    assert r2.phase(Phase.PREPARATION) < 0.05
    assert r2.code_cache_hit
    assert not r1.code_cache_hit
    # Warm execution skips the code load.
    assert r2.phase(Phase.EXECUTION) < r1.phase(Phase.EXECUTION)


# -------------------------------------------------------------- fleet runs
@pytest.fixture(scope="module")
def chess_runs():
    return {
        name: run_platform(name, CHESS_GAME)
        for name in ("vm", "wo", "rattrap")
    }


def test_platforms_serve_all_requests(chess_runs):
    for results in chess_runs.values():
        assert len(results) == 100
        assert all(not r.blocked for r in results)


def test_runtime_prep_ordering_and_ratios(chess_runs):
    prep = {k: mean_phase(v, Phase.PREPARATION) for k, v in chess_runs.items()}
    assert prep["vm"] > prep["wo"] > prep["rattrap"]
    # Fig. 9: ~4.1-4.7x for W/O, ~16x for Rattrap.
    assert prep["vm"] / prep["wo"] == pytest.approx(4.4, abs=0.4)
    assert prep["vm"] / prep["rattrap"] == pytest.approx(16.0, abs=1.0)


def test_transfer_improves_with_code_cache(chess_runs):
    xfer = {k: mean_phase(v, Phase.TRANSFER) for k, v in chess_runs.items()}
    assert xfer["rattrap"] < xfer["wo"]
    assert xfer["rattrap"] < xfer["vm"]
    # W/O gets no transfer improvement (no cache).
    assert xfer["wo"] == pytest.approx(xfer["vm"], rel=0.25)


def test_migrated_bytes_match_table2(chess_runs):
    up = {k: sum(r.bytes_up for r in v) / KB for k, v in chess_runs.items()}
    down = {k: sum(r.bytes_down for r in v) / KB for k, v in chess_runs.items()}
    assert up["vm"] == pytest.approx(13301, rel=0.01)
    assert up["wo"] == pytest.approx(13301, rel=0.01)
    assert up["rattrap"] == pytest.approx(4788, rel=0.01)
    for k in down:
        assert down[k] == pytest.approx(34, rel=0.05)


def test_code_uploaded_once_with_cache(chess_runs):
    code_uploads = sum(1 for r in chess_runs["rattrap"] if not r.code_cache_hit)
    assert code_uploads == 1
    # VM: one per device (5 isolated VMs).
    vm_cold = sum(1 for r in chess_runs["vm"] if not r.code_cache_hit)
    assert vm_cold == 5


def test_first_request_failures_only_on_slow_platforms(chess_runs):
    vm_fails = [r for r in chess_runs["vm"] if r.offloading_failure]
    assert len(vm_fails) == 5
    assert all(r.request.seq_on_device == 0 for r in vm_fails)
    assert sum(r.offloading_failure for r in chess_runs["rattrap"]) == 0


def test_virusscan_execution_gains_most_from_rattrap():
    exe = {}
    for name in ("vm", "wo", "rattrap"):
        virus = run_platform(name, VIRUS_SCAN)
        exe[name] = mean_phase(virus, Phase.EXECUTION)
    # Fig. 9: container I/O advantage, amplified by in-memory fs.
    wo_speedup = exe["vm"] / exe["wo"]
    rt_speedup = exe["vm"] / exe["rattrap"]
    assert 1.05 < wo_speedup < 1.25
    assert 1.25 < rt_speedup < 1.55
    assert rt_speedup > wo_speedup


def test_linpack_execution_gains_least():
    exe = {}
    for name in ("vm", "rattrap"):
        linpack = run_platform(name, LINPACK)
        exe[name] = mean_phase(linpack, Phase.EXECUTION)
    assert 1.0 < exe["vm"] / exe["rattrap"] < 1.10


def test_rattrap_burns_offload_data_after_reading():
    env_out = []
    run_platform("rattrap", OCR, env_out=env_out)
    env, plat = env_out[0]
    io = plat.shared_layer.offload_io
    assert io.total_staged > 0
    assert io.total_burned == io.total_staged
    assert io.resident_bytes == 0
    assert env.now > 0


def test_rattrap_server_memory_footprint_lower():
    env_out = []
    run_platform("rattrap", CHESS_GAME, env_out=env_out)
    _, rt = env_out[0]
    run_platform("vm", CHESS_GAME, env_out=env_out)
    _, vm = env_out[1]
    # 5 x 96 MB vs 5 x 512 MB: >= 75 % memory saved (Table I).
    rt_mem = rt.db.total_memory_mb()
    vm_mem = vm.db.total_memory_mb()
    assert rt_mem == 5 * 96.0
    assert vm_mem == 5 * 512.0
    assert 1 - rt_mem / vm_mem >= 0.75


def test_rattrap_disk_footprint_much_lower():
    env_out = []
    run_platform("rattrap", CHESS_GAME, env_out=env_out)
    _, rt = env_out[0]
    # Per-container private disk is 7.1 MB.
    per_container = rt.db.total_disk_bytes() / len(rt.db)
    assert per_container == pytest.approx(7.1 * 1024 * KB, abs=KB)


def test_warehouse_state_after_run():
    env_out = []
    run_platform("rattrap", CHESS_GAME, env_out=env_out)
    _, plat = env_out[0]
    assert plat.warehouse.has_code("chess")
    # All five containers registered as holding the code.
    assert len(plat.warehouse.containers_for("chess")) == 5
    assert plat.warehouse.hit_rate > 0.9


def test_access_controller_blocks_bad_app_end_to_end():
    env = Environment()
    ac = RequestAccessController(violation_threshold=1)
    plat = RattrapPlatform(env, optimized=True, access_controller=ac)
    link = make_link("lan-wifi")
    r1 = env.run(until=plat.submit(
        OffloadRequest(0, "d0", "malware", CHESS_GAME), link))
    assert not r1.blocked
    # A forbidden workflow out of the container trips the threshold.
    ac.filter_operation("malware", "warehouse.poison")
    r2 = env.run(until=plat.submit(
        OffloadRequest(1, "d0", "malware", CHESS_GAME, seq_on_device=1), link))
    assert r2.blocked
    assert r2.response_time < 1.0  # rejected right after connection


def test_rattrap_shutdown_unloads_driver():
    env_out = []
    run_platform("rattrap", LINPACK, devices=2, per_device=2, env_out=env_out)
    env, plat = env_out[0]
    removed = plat.shutdown()
    assert "binder_linux" in removed
    assert not plat.server.android_ready()
    assert plat.server.memory.reserved_mb == 0


def test_same_inflow_identical_across_platforms():
    # The "same inflow of requests" discipline: request ids and think
    # gaps must be identical for every platform under one seed.
    a = generate_inflow(OCR, seed=42)
    b = generate_inflow(OCR, seed=42)
    assert [(p.time_s, p.gap_s, p.request.request_id) for p in a] == [
        (p.time_s, p.gap_s, p.request.request_id) for p in b
    ]


def test_keepalive_skips_handshake_on_followups():
    from repro.platform import RattrapPlatform
    from repro.sim import Environment

    env = Environment()
    plat = RattrapPlatform(env)
    plat.keepalive_s = 60.0
    link = make_link("wan-wifi")  # 60 ms latency makes the handshake visible
    r1 = env.run(until=plat.submit(
        OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    r2 = env.run(until=plat.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link))
    # First request pays ~3 one-way latencies + guest net; the follow-up
    # only the guest net overhead.
    assert r1.phase(Phase.CONNECTION) > 0.15
    assert r2.phase(Phase.CONNECTION) < 0.05


def test_keepalive_expires_after_window():
    from repro.platform import RattrapPlatform
    from repro.sim import Environment

    env = Environment()
    plat = RattrapPlatform(env)
    plat.keepalive_s = 10.0
    link = make_link("wan-wifi")
    env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    env.run(until=env.now + 60.0)  # socket idles out
    r = env.run(until=plat.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link))
    assert r.phase(Phase.CONNECTION) > 0.15


def test_keepalive_per_device_isolation():
    from repro.platform import RattrapPlatform
    from repro.sim import Environment

    env = Environment()
    plat = RattrapPlatform(env)
    plat.keepalive_s = 60.0
    link = make_link("wan-wifi")
    env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    # A different device still pays the full handshake.
    r = env.run(until=plat.submit(
        OffloadRequest(1, "d1", "chess", CHESS_GAME), link))
    assert r.phase(Phase.CONNECTION) > 0.15


def test_stress_thousand_requests_settle_cleanly():
    """Scalability smoke: a 1000-request open-loop Poisson storm leaves
    no dangling state."""
    from repro.platform import RattrapPlatform
    from repro.sim import Environment
    from repro.workloads import LINPACK, poisson_inflow

    env = Environment()
    plat = RattrapPlatform(env)
    plans = poisson_inflow(LINPACK, rate_per_s=2.0, horizon_s=500.0,
                           devices=10, seed=3)
    link = make_link("lan-wifi")
    results = env.run(until=env.process(
        replay_inflow(env, plat, ((p.request, link) for p in plans))))
    assert len(results) == len(plans)
    assert plat.scheduler.active_requests == 0
    assert plat.shared_layer.offload_io.resident_bytes == 0
    assert plat.server.cpu.active_jobs == 0
    assert len(plat.db) == 10  # one container per device
    assert all(not r.blocked for r in results)
