"""Tests for dispatcher allocation policies and idle reclamation."""

import pytest

from repro.network import make_link
from repro.offload import OffloadRequest, run_inflow_experiment
from repro.platform import RattrapPlatform
from repro.platform.dispatcher import Dispatcher
from repro.runtime.base import RuntimeState
from repro.sim import Environment
from repro.workloads import CHESS_GAME, generate_inflow


def test_dispatcher_validation():
    env = Environment()
    plat = RattrapPlatform(env)
    with pytest.raises(ValueError):
        Dispatcher(env, plat.db, plat.scheduler, plat.make_runtime, policy="random")


def test_per_device_policy_one_runtime_per_device():
    env = Environment()
    plat = RattrapPlatform(env, dispatch_policy="per-device")
    plans = generate_inflow(CHESS_GAME, devices=4, requests_per_device=3, seed=0)
    run_inflow_experiment(env, plat, plans, make_link("lan-wifi"))
    assert plat.dispatcher.cold_boots == 4
    assert len(plat.db) == 4
    owners = {r.owner_device for r in plat.db.all_records()}
    assert owners == {f"device-{i}" for i in range(4)}


def test_app_affinity_policy_consolidates():
    env = Environment()
    plat = RattrapPlatform(env, dispatch_policy="app-affinity")
    plans = generate_inflow(CHESS_GAME, devices=4, requests_per_device=3, seed=0)
    results = run_inflow_experiment(env, plat, plans, make_link("lan-wifi"))
    assert len(results) == 12
    # One app -> at most a couple of containers for every device; the
    # remaining requests are warm dispatches or boot-waiters.
    assert plat.dispatcher.cold_boots <= 2
    assert plat.dispatcher.warm_dispatches >= 8
    assert len(plat.db) <= 2


def test_app_affinity_waiters_share_cold_boot():
    # Two devices arrive while the single app container is still booting:
    # both requests resolve against the same boot.
    env = Environment()
    plat = RattrapPlatform(env, dispatch_policy="app-affinity")
    link = make_link("lan-wifi")
    p1 = plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link)
    p2 = plat.submit(OffloadRequest(1, "d1", "chess", CHESS_GAME), link)
    r1 = env.run(until=p1)
    r2 = env.run(until=p2)
    assert r1.executed_on == r2.executed_on
    assert plat.dispatcher.cold_boots == 1


def test_idle_reaper_stops_and_recreates_runtimes():
    env = Environment()
    plat = RattrapPlatform(env)
    link = make_link("lan-wifi")
    r1 = env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    first_cid = r1.executed_on
    # Idle long past the timeout, reap manually.
    env.run(until=env.now + 300.0)
    reaped = plat.reap_idle_runtimes(idle_timeout_s=120.0)
    assert reaped == [first_cid]
    assert plat.db.get(first_cid).runtime.state is RuntimeState.STOPPED
    # The next request triggers a fresh cold boot.
    r2 = env.run(until=plat.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link))
    assert r2.executed_on != first_cid
    assert plat.dispatcher.cold_boots == 2


def test_idle_reaper_spares_recently_used_and_busy():
    env = Environment()
    plat = RattrapPlatform(env)
    link = make_link("lan-wifi")
    env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    # Used moments ago: not reaped.
    assert plat.reap_idle_runtimes(idle_timeout_s=120.0) == []
    with pytest.raises(ValueError):
        plat.reap_idle_runtimes(idle_timeout_s=0)


def test_start_idle_reaper_background_process():
    env = Environment()
    plat = RattrapPlatform(env)
    link = make_link("lan-wifi")
    plat.start_idle_reaper(idle_timeout_s=60.0, check_interval_s=5.0)
    r1 = env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    env.run(until=env.now + 120.0)
    assert plat.db.get(r1.executed_on).runtime.state is RuntimeState.STOPPED
    with pytest.raises(ValueError):
        plat.start_idle_reaper(check_interval_s=0)


def test_reaper_releases_server_memory():
    env = Environment()
    plat = RattrapPlatform(env)
    link = make_link("lan-wifi")
    env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    reserved_before = plat.server.memory.reserved_mb
    env.run(until=env.now + 200.0)
    plat.reap_idle_runtimes(idle_timeout_s=100.0)
    assert plat.server.memory.reserved_mb < reserved_before
