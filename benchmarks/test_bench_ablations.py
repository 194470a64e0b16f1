"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one Rattrap mechanism and quantifies its
contribution, beyond what the paper's W/O bundle shows:

- code cache on/off (holding everything else optimized);
- sharing offloading I/O (tmpfs) vs exclusive-on-HDD;
- dispatcher policy: per-device vs app-affinity;
- pre-started VM pool vs on-demand boot (the §III-B implication 1
  alternative the paper rejects for its resource cost).
"""

import pytest

from repro.analysis import phase_means
from repro.network import make_link
from repro.offload import run_inflow_experiment
from repro.platform import RattrapPlatform, VMCloudPlatform
from repro.runtime import AndroidVM, VM_MEMORY_MB, CAC_MEMORY_MB
from repro.sim import Environment
from repro.workloads import CHESS_GAME, VIRUS_SCAN, generate_inflow

KB = 1024


def _run(platform_factory, profile, seed=1):
    env = Environment()
    platform = platform_factory(env)
    plans = generate_inflow(profile, devices=5, requests_per_device=20, seed=seed)
    results = run_inflow_experiment(env, platform, plans, make_link("lan-wifi"))
    return platform, results


@pytest.mark.paper_artifact("ablation")
def test_bench_ablation_code_cache(benchmark):
    """Disable only the warehouse: uploads revert to per-container."""

    def run_pair():
        full, full_res = _run(lambda e: RattrapPlatform(e, optimized=True), CHESS_GAME)

        def no_cache(env):
            p = RattrapPlatform(env, optimized=True)
            p.warehouse = None  # ablate the code cache alone
            return p

        ablated, ablated_res = _run(no_cache, CHESS_GAME)
        return full_res, ablated_res

    full_res, ablated_res = benchmark(run_pair)
    up_full = sum(r.bytes_up for r in full_res) / KB
    up_ablated = sum(r.bytes_up for r in ablated_res) / KB
    # Cache saves 4 of 5 code copies for ChessGame: ~64 % of upload.
    assert up_full == pytest.approx(4790, rel=0.02)
    assert up_ablated == pytest.approx(13310, rel=0.02)
    xfer_full = phase_means(full_res).transfer
    xfer_ablated = phase_means(ablated_res).transfer
    assert xfer_full < xfer_ablated


@pytest.mark.paper_artifact("ablation")
def test_bench_ablation_shared_offload_io(benchmark):
    """Optimized containers but exclusive HDD offloading I/O."""

    def run_pair():
        full, full_res = _run(lambda e: RattrapPlatform(e, optimized=True), VIRUS_SCAN)

        def exclusive_io(env):
            p = RattrapPlatform(env, optimized=True)
            # Route offloading I/O back to the HDD by patching the hook.
            original_make = p.make_runtime

            def make(cid, request):
                runtime = original_make(cid, request)
                runtime.offload_io_device = lambda: p.server.disk
                return runtime

            p.make_runtime = make
            p.dispatcher.runtime_factory = make
            return p

        ablated, ablated_res = _run(exclusive_io, VIRUS_SCAN)
        return full_res, ablated_res

    full_res, ablated_res = benchmark(run_pair)
    exec_full = phase_means(full_res).execution
    exec_ablated = phase_means(ablated_res).execution
    # The in-memory layer is worth >10 % of VirusScan's execution time.
    assert exec_ablated / exec_full > 1.10


@pytest.mark.paper_artifact("ablation")
def test_bench_ablation_dispatch_policy(benchmark):
    """App-affinity dispatch consolidates onto warm containers."""

    def run_pair():
        per_device, res_a = _run(
            lambda e: RattrapPlatform(e, optimized=True, dispatch_policy="per-device"),
            CHESS_GAME,
        )
        affinity, res_b = _run(
            lambda e: RattrapPlatform(e, optimized=True, dispatch_policy="app-affinity"),
            CHESS_GAME,
        )
        return per_device, affinity

    per_device, affinity = benchmark(run_pair)
    # Affinity boots far fewer containers (warm-container routing).
    assert affinity.dispatcher.cold_boots < per_device.dispatcher.cold_boots
    assert affinity.dispatcher.cold_boots <= 2
    # ...and therefore reserves less server memory.
    assert affinity.db.total_memory_mb() < per_device.db.total_memory_mb()


@pytest.mark.paper_artifact("ablation")
def test_bench_ablation_prestarted_vm_pool(benchmark):
    """Pre-booting VMs removes cold starts but wastes server memory
    (§III-B implication 1: 'it will inevitably reduce the server
    resource utilization')."""

    def run_prestarted():
        env = Environment()
        platform = VMCloudPlatform(env)
        # Pre-boot one VM per device before any request arrives.
        for d in range(5):
            cid = platform.db.new_cid()
            vm = AndroidVM(platform.server, cid)
            platform.db.register(vm, owner_device=f"device-{d}", now=env.now)
            env.process(vm.boot())
        env.run(until=40.0)
        plans = generate_inflow(CHESS_GAME, devices=5, requests_per_device=20, seed=1)
        results = run_inflow_experiment(env, platform, plans, make_link("lan-wifi"))
        return platform, results

    platform, results = benchmark(run_prestarted)
    prep = phase_means(results).preparation
    assert prep < 0.1  # no cold starts...
    # ...but the pool holds 5 x 512 MB whether or not requests arrive,
    # >5x the optimized-container fleet.
    assert platform.db.total_memory_mb() == 5 * VM_MEMORY_MB
    assert platform.db.total_memory_mb() > 5 * CAC_MEMORY_MB * 5


@pytest.mark.paper_artifact("ablation")
def test_bench_ablation_process_level_scheduling(benchmark):
    """Monitor & Scheduler priorities: process-level CPU weights cut the
    interactive workload's latency on a saturated server, something a
    VM-level scheduler cannot express (§IV-A)."""
    from repro.offload import Phase
    from repro.workloads import ALL_WORKLOADS, generate_mixed_inflow

    def run_pair():
        def run(weights):
            env = Environment()
            platform = RattrapPlatform(env)
            platform.priority_weights = weights
            # Shrink the server to force CPU contention.
            platform.server.cpu.cores = 2
            platform.server.cpu.utilization.capacity = 2
            plans = generate_mixed_inflow(
                ALL_WORKLOADS, devices=8, requests_per_device=6,
                think_time_s=2.0, seed=4,
            )
            results = run_inflow_experiment(
                env, platform, plans, make_link("lan-wifi")
            )
            chess = [r for r in results if r.request.app_id == "chess"]
            return sum(r.phase(Phase.EXECUTION) for r in chess) / len(chess)

        return run({}), run({"chess": 8.0})

    fair_exec, prioritized_exec = benchmark(run_pair)
    # Prioritizing the interactive app shortens its execution phase.
    assert prioritized_exec < fair_exec * 0.95
