"""Tests for hierarchical/centralized synchronization (repro.core.sync)."""

import pytest

from repro.config import SystemConfig
from repro.core.sync import SYNC_MODES, SyncManager
from repro.errors import ConfigError, SimulationError
from repro.nmp.system import NMPSystem


def _manager(mode="hierarchical", config_name="8D-4C", mech="dimm_link"):
    system = NMPSystem(SystemConfig.named(config_name), idc=mech)
    manager = SyncManager(system.sim, system.config, system.idc, system.stats, mode)
    return system, manager


def test_invalid_mode_rejected():
    system = NMPSystem(SystemConfig.named("4D-2C"))
    with pytest.raises(ConfigError):
        SyncManager(system.sim, system.config, system.idc, system.stats, "quantum")
    assert set(SYNC_MODES) == {"central", "hierarchical"}


def test_barrier_requires_participants():
    system, manager = _manager()
    with pytest.raises(ConfigError):
        manager.set_participants([])


def test_unknown_participant_rejected():
    system, manager = _manager()
    manager.set_participants([0, 0])
    with pytest.raises(SimulationError):
        manager.barrier(5)


@pytest.mark.parametrize("mode", SYNC_MODES)
def test_barrier_releases_only_when_all_arrive(mode):
    system, manager = _manager(mode)
    manager.set_participants([0, 1, 4])
    released = []
    for thread in range(3):
        manager.barrier(thread).add_callback(
            lambda ev, t=thread: released.append((t, system.sim.now))
        )
    system.sim.run()
    assert sorted(t for t, _ in released) == [0, 1, 2]
    assert system.stats.get("sync.barriers") == 1


@pytest.mark.parametrize("mode", SYNC_MODES)
def test_barrier_generations_are_independent(mode):
    system, manager = _manager(mode)
    manager.set_participants([0, 1])
    order = []

    def released(arrival):
        thread_id, generation = arrival
        order.append((generation, thread_id))
        if generation < 2:
            manager.barrier(thread_id).then(released, (thread_id, generation + 1))

    for thread_id in (0, 1):
        manager.barrier(thread_id).then(released, (thread_id, 0))
    system.sim.run()
    assert [g for g, _t in order] == [0, 0, 1, 1, 2, 2]
    assert system.stats.get("sync.barriers") == 3


def test_hierarchical_sends_fewer_messages_than_central():
    counts = {}
    for mode in SYNC_MODES:
        system, manager = _manager(mode, "16D-8C")
        homes = [d for d in range(16) for _ in range(4)]
        manager.set_participants(homes)
        for thread in range(len(homes)):
            manager.barrier(thread)
        system.sim.run()
        counts[mode] = system.stats.get("sync.messages")
    assert counts["hierarchical"] < counts["central"]


def test_hierarchical_single_inter_group_round_trip():
    system, manager = _manager("hierarchical", "16D-8C")
    homes = [d for d in range(16) for _ in range(4)]
    manager.set_participants(homes)
    for thread in range(len(homes)):
        manager.barrier(thread)
    system.sim.run()
    # one arrival + one release crossing between the two groups
    assert system.stats.get("sync.inter_group_messages") == 2


def test_hierarchical_faster_than_central_on_mcn():
    times = {}
    for mode in SYNC_MODES:
        system, manager = _manager(mode, "16D-8C", mech="mcn")
        homes = [d for d in range(16) for _ in range(4)]
        manager.set_participants(homes)
        for thread in range(len(homes)):
            manager.barrier(thread)
        system.sim.run()
        times[mode] = system.sim.now
    assert times["hierarchical"] < times["central"]


def test_single_dimm_barrier_is_local_only():
    # all threads on the group-master DIMM of 4D-2C (DIMM 2): no messages
    system, manager = _manager("hierarchical", "4D-2C")
    manager.set_participants([2, 2, 2])
    for thread in range(3):
        manager.barrier(thread)
    system.sim.run()
    assert system.stats.get("sync.messages", 0) == 0
    assert system.sim.now < 1_000_000  # sub-microsecond, purely on-DIMM
