"""Tests for the fault-injection subsystem (repro.faults) and the
degraded-mode routing / host-forwarding failover it drives."""

import pytest

from repro.config import SystemConfig
from repro.errors import FaultError
from repro.faults import FaultSchedule, LinkDown, LinkWatchdog
from repro.nmp.system import NMPSystem
from repro.sim.time import ns
from repro.workloads.microbench import UniformRandom


def _run(mechanism="dimm_link", faults=None, ops=20, seed=11):
    config = SystemConfig.named("8D-4C")
    system = NMPSystem(config, idc=mechanism, faults=faults)
    workload = UniformRandom(
        ops_per_thread=ops,
        remote_fraction=0.6,
        write_fraction=0.3,
        nbytes=512,
        seed=seed,
    )
    return system.run(workload.thread_factories(32, 8))


# -- watchdog ----------------------------------------------------------------------


def test_watchdog_declares_dead_after_consecutive_timeouts():
    watchdog = LinkWatchdog(threshold=3)
    declared = []
    watchdog.on_dead = declared.append
    assert not watchdog.report_timeout((0, 1))
    assert not watchdog.report_timeout((0, 1))
    assert watchdog.report_timeout((0, 1))
    assert declared == [(0, 1)]
    assert watchdog.is_dead((0, 1))
    # further timeouts on a dead link don't re-declare
    assert not watchdog.report_timeout((0, 1))


def test_watchdog_success_resets_consecutive_count():
    watchdog = LinkWatchdog(threshold=2)
    watchdog.report_timeout((0, 1))
    watchdog.report_success((0, 1))
    assert watchdog.timeouts((0, 1)) == 0
    assert not watchdog.report_timeout((0, 1))
    assert not watchdog.is_dead((0, 1))


def test_watchdog_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        LinkWatchdog(threshold=0)


# -- schedule validation -----------------------------------------------------------


def test_schedule_sorts_faults_by_time():
    schedule = FaultSchedule(
        [
            LinkDown(time_ps=ns(500), dimm_a=1, dimm_b=2),
            LinkDown(time_ps=ns(100), dimm_a=0, dimm_b=1),
        ]
    )
    assert [f.time_ps for f in schedule] == [ns(100), ns(500)]
    assert len(schedule) == 2 and bool(schedule)


def test_schedule_rejects_negative_time_and_self_links():
    with pytest.raises(FaultError):
        FaultSchedule([LinkDown(time_ps=-1, dimm_a=0, dimm_b=1)])
    with pytest.raises(FaultError):
        FaultSchedule([LinkDown(time_ps=0, dimm_a=2, dimm_b=2)])


def test_cross_group_link_rejected_at_install():
    # 8D-4C groups are [0..3] and [4..7]: no bridge link crosses 3<->4
    faults = FaultSchedule([LinkDown(time_ps=0, dimm_a=3, dimm_b=4)])
    with pytest.raises(FaultError):
        NMPSystem(SystemConfig.named("8D-4C"), idc="dimm_link", faults=faults)


def test_non_adjacent_link_rejected_at_install():
    # half_ring wires 0-1-2-3; DIMMs 0 and 2 share no link
    faults = FaultSchedule([LinkDown(time_ps=0, dimm_a=0, dimm_b=2)])
    with pytest.raises(FaultError):
        NMPSystem(SystemConfig.named("8D-4C"), idc="dimm_link", faults=faults)


def test_install_is_noop_on_bridgeless_mechanisms():
    faults = FaultSchedule([LinkDown(time_ps=0, dimm_a=0, dimm_b=1)])
    system = NMPSystem(SystemConfig.named("8D-4C"), idc="mcn", faults=faults)
    assert system.faults is None


# -- degraded-mode runs ------------------------------------------------------------


def test_mid_run_link_failure_completes_via_host_forwarding():
    faults = FaultSchedule([LinkDown(time_ps=ns(300), dimm_a=0, dimm_b=1)])
    result = _run(faults=faults)
    clean = _run()
    # the run finishes, detects the dead link, and escalates to the host
    assert result.counter("fault.links_down") == 1
    assert result.counter("dl.ack_timeouts") > 0
    assert result.counter("dl.links_marked_down") == 1
    assert result.counter("dl.rerouted_to_host") > 0
    assert result.counter("dl.rerouted_bytes") > 0
    assert 0.0 < result.counter("dl.link_availability_min") < 1.0
    assert clean.counter("dl.link_availability_min") == 1.0
    assert result.time_ps > clean.time_ps  # detection + failover cost time


def test_total_bridge_loss_still_completes():
    # every link of both groups dies: all intra traffic must fail over
    faults = FaultSchedule(
        [
            LinkDown(time_ps=ns(300), dimm_a=a, dimm_b=a + 1)
            for a in (0, 1, 2, 4, 5, 6)
        ]
    )
    result = _run(faults=faults)
    assert result.counter("fault.links_down") == 6
    assert result.counter("dl.rerouted_to_host") > 0
    assert result.time_ps > 0


def _both_links_of_dimm1():
    # DIMM 1 sits mid-chain (0-1-2-3): both its links die
    return FaultSchedule(
        [
            LinkDown(time_ps=ns(300), dimm_a=0, dimm_b=1),
            LinkDown(time_ps=ns(300), dimm_a=1, dimm_b=2),
        ]
    )


def test_degraded_runs_stay_deterministic():
    first = _run(faults=_both_links_of_dimm1())
    second = _run(faults=_both_links_of_dimm1())
    assert first.time_ps == second.time_ps
    assert first.counter("dl.rerouted_to_host") == second.counter(
        "dl.rerouted_to_host"
    )


def test_resilience_sweep_shape():
    from repro.experiments.resilience import run

    rows = run(size="tiny", fractions=(0.0, 1.0), mechanisms=("mcn", "dimm_link"))
    mcn = [r["idc_gbps"] for r in rows if r["mechanism"] == "mcn"]
    dl = [r["idc_gbps"] for r in rows if r["mechanism"] == "dimm_link"]
    assert mcn[0] == pytest.approx(mcn[1])  # no bridge: faults don't apply
    assert dl[1] < dl[0]  # injected failures cost bandwidth...
    assert dl[1] > 0  # ...but host failover keeps it nonzero


# -- spec-driven link-down schedules -------------------------------------------------


def test_tiny_fraction_still_kills_at_least_one_link_per_group():
    """round(fraction * edges) == 0 must not silently skip injection."""
    from repro.experiments.runner import link_down_schedule

    config = SystemConfig.named("8D-4C")  # 3 bridge links per group
    schedule = link_down_schedule(config, 0.05)  # round(0.15) == 0
    assert len(schedule.faults) == len(config.groups)  # one kill per group
    assert all(isinstance(fault, LinkDown) for fault in schedule.faults)


def test_zero_fraction_installs_no_faults():
    from repro.experiments.runner import link_down_schedule

    config = SystemConfig.named("8D-4C")
    assert len(link_down_schedule(config, 0.0).faults) == 0


def test_full_fraction_kills_every_link():
    from repro.experiments.runner import link_down_schedule

    config = SystemConfig.named("8D-4C")
    assert len(link_down_schedule(config, 1.0).faults) == 6


def test_tiny_fraction_sweep_point_actually_degrades():
    """The resilience sweep's smallest nonzero point measures a real
    degraded run, not a silent replay of the fault-free one."""
    from repro.experiments.runner import RunSpec, execute_spec

    base = dict(
        config="8D-4C", workload="uniform_random", size="tiny", seed=11
    )
    clean = execute_spec(RunSpec(**base, fault_fraction=0.0))
    faulted = execute_spec(RunSpec(**base, fault_fraction=0.05))
    assert clean.counter("fault.links_down") == 0
    assert faulted.counter("fault.links_down") >= 1
