"""Tests for messages, request timelines, power model, device, decisions."""

import pytest

from repro.network import make_link
from repro.offload import (
    KB,
    MobileDevice,
    Message,
    MessageKind,
    OffloadDecider,
    OffloadRequest,
    PartitionConfig,
    Phase,
    PhaseTimeline,
    PowerModel,
    RequestResult,
    result_message,
    upload_messages,
)
from repro.platform import RattrapPlatform, VMCloudPlatform
from repro.sim import Environment
from repro.workloads import CHESS_GAME, LINPACK, OCR, VIRUS_SCAN


# ---------------------------------------------------------------- messages
def test_message_validation():
    with pytest.raises(ValueError):
        Message(kind="control", size_bytes=-1)


def test_upload_messages_with_code():
    msgs = upload_messages(OCR, include_code=True)
    kinds = [m.kind for m in msgs]
    assert kinds == ["mobile_code", "file_param", "control"]
    total_kb = sum(m.size_bytes for m in msgs) / KB
    assert total_kb == pytest.approx(1400 + 280 + 2, abs=0.01)


def test_upload_messages_cached_code():
    msgs = upload_messages(OCR, include_code=False)
    assert [m.kind for m in msgs] == ["file_param", "control"]


def test_upload_messages_no_files_for_pure_compute():
    # Linpack/Chess transfer no files: file_param carries params only.
    msgs = upload_messages(LINPACK, include_code=False)
    fp = next(m for m in msgs if m.kind == "file_param")
    assert fp.size_bytes == int(0.25 * KB)


def test_result_message_kind_and_size():
    msg = result_message(VIRUS_SCAN)
    assert msg.kind == MessageKind.RESULT.value
    assert msg.size_bytes == int(17.4 * KB)


# --------------------------------------------------------------- timelines
def test_phase_timeline_accumulates():
    tl = PhaseTimeline()
    tl.add(Phase.CONNECTION, 0.1)
    tl.add(Phase.TRANSFER, 0.5)
    tl.add(Phase.TRANSFER, 0.25)
    assert tl.get(Phase.TRANSFER) == pytest.approx(0.75)
    assert tl.total == pytest.approx(0.85)
    assert set(tl.as_dict()) == {p.value for p in Phase}


def test_phase_timeline_rejects_negative():
    with pytest.raises(ValueError):
        PhaseTimeline().add(Phase.EXECUTION, -0.1)


def test_request_validation():
    with pytest.raises(ValueError):
        OffloadRequest(request_id=-1, device_id="d", app_id="a", profile=OCR)


def _result(profile, response_s, bytes_up=1000, bytes_down=100, phases=None):
    tl = PhaseTimeline()
    for phase, dur in (phases or {(Phase.EXECUTION): response_s}).items():
        tl.add(phase, dur)
    req = OffloadRequest(request_id=0, device_id="d0", app_id=profile.name, profile=profile)
    return RequestResult(
        request=req,
        timeline=tl,
        started_at=0.0,
        finished_at=response_s,
        bytes_up=bytes_up,
        bytes_down=bytes_down,
    )


def test_speedup_and_failure_semantics():
    fast = _result(CHESS_GAME, response_s=1.0)  # local 4.0 -> speedup 4
    assert fast.speedup == pytest.approx(4.0)
    assert not fast.offloading_failure
    slow = _result(CHESS_GAME, response_s=8.0)
    assert slow.speedup == pytest.approx(0.5)
    assert slow.offloading_failure


# ------------------------------------------------------------------- power
def test_power_model_validation():
    with pytest.raises(ValueError):
        PowerModel(cpu_active_watts=0)
    with pytest.raises(KeyError):
        PowerModel().radio("5g")


def test_local_energy_is_cpu_time_times_power():
    pm = PowerModel(cpu_active_watts=0.9)
    assert pm.local_energy(LINPACK).total_j == pytest.approx(12.0 * 0.9)


def test_offload_energy_components():
    pm = PowerModel(idle_watts=0.25)
    phases = {
        Phase.CONNECTION: 0.1,
        Phase.PREPARATION: 1.0,
        Phase.TRANSFER: 2.0,
        Phase.EXECUTION: 3.0,
    }
    res = _result(OCR, response_s=6.1, bytes_up=3000, bytes_down=1000, phases=phases)
    e = pm.offload_energy(res, "lan-wifi")
    radio = pm.radio("lan-wifi")
    # Upload gets 3/4 of transfer time, download 1/4.
    assert e.tx_j == pytest.approx(1.5 * radio.tx_watts)
    assert e.rx_j == pytest.approx(0.5 * radio.rx_watts)
    assert e.idle_j == pytest.approx(4.1 * 0.25)
    assert e.tail_j == pytest.approx(radio.tail_seconds * radio.tail_watts)
    assert e.total_j == pytest.approx(e.tx_j + e.rx_j + e.idle_j + e.tail_j)


def test_offload_energy_zero_bytes_no_radio_activity():
    pm = PowerModel()
    res = _result(LINPACK, response_s=1.0, bytes_up=0, bytes_down=0,
                  phases={Phase.TRANSFER: 0.5, Phase.EXECUTION: 0.5})
    e = pm.offload_energy(res, "4g")
    assert e.tx_j == 0.0 and e.rx_j == 0.0


def test_3g_tail_energy_dominates_wifi():
    pm = PowerModel()
    res = _result(CHESS_GAME, response_s=1.0)
    assert (
        pm.offload_energy(res, "3g").tail_j
        > pm.offload_energy(res, "lan-wifi").tail_j * 3
    )


def test_normalized_energy_below_one_for_good_offload():
    pm = PowerModel()
    phases = {Phase.EXECUTION: 0.9, Phase.TRANSFER: 0.05}
    res = _result(LINPACK, response_s=1.0, phases=phases)
    assert pm.normalized_offload_energy(res, "lan-wifi") < 1.0


# ------------------------------------------------------------------ device
def test_device_battery_accounting():
    env = Environment()
    dev = MobileDevice("d0", make_link("lan-wifi"), battery_joules=100.0)
    energy = env.run(until=env.process(dev.execute_locally(env, CHESS_GAME)))
    assert env.now == pytest.approx(4.0)
    assert dev.energy_used_j == pytest.approx(energy.total_j)
    assert dev.local_executions == 1
    assert 0 < dev.battery_remaining_fraction < 1


def test_device_offload_accounting():
    dev = MobileDevice("d0", make_link("3g"))
    res = _result(CHESS_GAME, response_s=1.0)
    e = dev.account_offload(res)
    assert dev.offloaded_requests == 1
    assert dev.energy_used_j == pytest.approx(e.total_j)


def test_device_validation():
    with pytest.raises(ValueError):
        MobileDevice("d", make_link("lan-wifi"), battery_joules=0)


# --------------------------------------------------------------- decisions
#: the hybrid client's model: every one-time cost charged to this request
HYBRID = PartitionConfig(amortize_requests=1)


def _warm(platform, device, profile):
    """Serve one request so the device's runtime is warm and the code
    is stored."""
    env = platform.env
    env.run(until=platform.submit(_request(profile, device), device.link))


def _request(profile, device):
    return OffloadRequest(0, device.device_id, profile.name, profile)


def test_decision_engine_estimate_components():
    # A warm runtime with the code in place: the estimate is the
    # recurring cost only, and compute-bound Linpack pays on WiFi.
    platform = RattrapPlatform(Environment())
    device = MobileDevice("d0", make_link("lan-wifi"))
    _warm(platform, device, LINPACK)
    decider = OffloadDecider(HYBRID)
    request = _request(LINPACK, device)
    local = decider.estimate_local(request, device)
    est = decider.estimate_offload(request, device, platform)
    assert local.latency_s == pytest.approx(LINPACK.local_time_s)
    assert local.energy_j == pytest.approx(
        LINPACK.local_time_s * device.power.cpu_active_watts
    )
    # the cloud compute is part of the estimate, and not the only part
    assert est.latency_s > LINPACK.cloud_cpu_s + LINPACK.framework_overhead_s
    assert local.latency_s / est.latency_s > 1.0


def test_decision_cold_start_can_flip_decision():
    # Chess local = 4 s; a cold VM's 28.72 s boot makes offloading a loser.
    device = MobileDevice("d0", make_link("lan-wifi"))
    decider = OffloadDecider(HYBRID)
    vm = VMCloudPlatform(Environment())
    assert decider.decide(_request(CHESS_GAME, device), device, vm).choice == "local"
    # Rattrap's 1.75 s boot keeps it profitable, even with the code
    # still to upload and load.
    rattrap = RattrapPlatform(Environment())
    assert not rattrap.code_cached(_request(CHESS_GAME, device))
    decision = decider.decide(_request(CHESS_GAME, device), device, rattrap)
    assert decision.choice == "offload"
    # Once the VM is warm the same request offloads there too.
    _warm(vm, device, CHESS_GAME)
    assert decider.decide(_request(CHESS_GAME, device), device, vm).choice == "offload"


def test_decision_3g_discourages_file_heavy_offload():
    # VirusScan ships ~900 KB per request; on 3G's 0.38 Mbps uplink the
    # transfer alone exceeds the 13.2 s local time, even to a warm runtime.
    decider = OffloadDecider(HYBRID)
    for scenario, choice in (("3g", "local"), ("lan-wifi", "offload")):
        platform = RattrapPlatform(Environment())
        device = MobileDevice("d0", make_link(scenario))
        _warm(platform, device, VIRUS_SCAN)
        decision = decider.decide(_request(VIRUS_SCAN, device), device, platform)
        assert decision.choice == choice, scenario
