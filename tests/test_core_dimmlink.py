"""Tests for the DIMM-Link core package (bridge, distance function,
serdes, controller, and the DIMMLinkIDC mechanism)."""

import pytest

from repro.config import SystemConfig
from repro.core.bridge import DLBridge
from repro.core.controller import DLController
from repro.core.routing import distance
from repro.core.serdes import GRS, table2, tech
from repro.errors import ConfigError, RoutingError
from repro.nmp.system import NMPSystem
from repro.sim import Simulator, StatRegistry


# -- serdes (Table II) --------------------------------------------------------

def test_grs_matches_paper_numbers():
    assert GRS.signal_rate_gbps_per_pin == 25.0
    assert GRS.reach_mm == 80.0
    assert GRS.energy_pj_per_bit == 1.17


def test_pins_for_bandwidth_round_trip():
    pins = GRS.pins_for_bandwidth(25.0)
    assert GRS.link_bandwidth_gbps(pins) >= 25.0
    assert GRS.link_bandwidth_gbps(pins - 1) < 25.0


def test_table2_has_three_techs():
    assert set(table2()) == {"sma_cable", "ribbon_cable", "grs"}
    with pytest.raises(ConfigError):
        tech("optical")


# -- the Algorithm 1 distance function -----------------------------------------

def test_distance_function_properties():
    config = SystemConfig.named("16D-8C")
    assert distance(config, 3, 3) == 0.0
    assert distance(config, 0, 1) == 1.0
    assert distance(config, 0, 7) == 7.0
    assert distance(config, 0, 8) > distance(config, 0, 7)
    # symmetric
    assert distance(config, 2, 5) == distance(config, 5, 2)


# -- bridge ---------------------------------------------------------------------

def test_bridge_group_membership():
    sim, stats = Simulator(), StatRegistry()
    bridge = DLBridge(sim, SystemConfig.named("16D-8C"), stats)
    assert bridge.same_group(0, 7)
    assert not bridge.same_group(7, 8)
    assert bridge.locate(9) == (1, 1)
    assert bridge.hops(8, 11) == 3


def test_bridge_rejects_cross_group_hops():
    sim, stats = Simulator(), StatRegistry()
    bridge = DLBridge(sim, SystemConfig.named("16D-8C"), stats)
    with pytest.raises(RoutingError):
        bridge.hops(0, 8)


def test_bridge_send_delivers():
    sim, stats = Simulator(), StatRegistry()
    bridge = DLBridge(sim, SystemConfig.named("4D-2C"), stats)
    done = []
    bridge.send(0, 3, 160).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert len(done) == 1
    assert stats.get("dl.hops") == 3


# -- controller ---------------------------------------------------------------

def test_controller_counts_packets_and_wire_bytes():
    stats = StatRegistry()
    controller = DLController(0, stats)
    wire = controller.packetize(600)  # 3 packets
    assert stats.get("dlc.tx_packets") == 3
    assert wire == stats.get("dlc.tx_wire_bytes")
    controller.receive(600)
    assert stats.get("dlc.rx_packets") == 3


# -- DIMMLinkIDC mechanism ------------------------------------------------------

def _system(name="4D-2C", **kwargs):
    return NMPSystem(SystemConfig.named(name), idc="dimm_link", **kwargs)


def test_intra_group_read_completes_and_counts():
    system = _system()
    done = []
    system.idc.remote_read(0, 2, 0, 256).add_callback(
        lambda ev: done.append(system.sim.now)
    )
    system.sim.run()
    assert len(done) == 1
    assert system.stats.get("idc.intra_group_bytes") == 256
    assert system.stats.get("idc.forwarded_bytes") == 0


def test_inter_group_read_is_forwarded():
    system = _system("8D-4C")
    done = []
    system.idc.remote_read(0, 5, 0, 256).add_callback(
        lambda ev: done.append(system.sim.now)
    )
    system.sim.run()
    assert len(done) == 1
    assert system.stats.get("idc.forwarded_bytes") == 256
    assert system.stats.get("fwd.ops") == 2  # request + response


def test_intra_group_latency_below_inter_group():
    intra = _system("8D-4C")
    intra.idc.remote_read(0, 1, 0, 64)
    intra_time = _finish(intra)
    inter = _system("8D-4C")
    inter.idc.remote_read(0, 4, 0, 64)
    inter_time = _finish(inter)
    assert intra_time < inter_time


def _finish(system):
    system.sim.run()
    return system.sim.now


def test_remote_write_reaches_destination_dram():
    system = _system()
    system.idc.remote_write(1, 3, 0, 512)
    system.sim.run()
    assert system.stats.get("dimm3.idc.remote_served_bytes") == 512
    assert system.stats.get("dimm3.dram.write_bytes") == 512


def test_broadcast_reaches_every_other_dimm():
    system = _system("8D-4C")
    done = []
    system.idc.broadcast(0, 0, 256).add_callback(lambda ev: done.append(True))
    system.sim.run()
    assert done == [True]
    for dimm in range(1, 8):
        assert system.stats.get(f"dimm{dimm}.dram.write_bytes") == 256
    assert system.stats.get("dimm0.dram.write_bytes") == 0


def test_message_intra_vs_inter_group_paths():
    system = _system("8D-4C")
    system.idc.message(0, 3, 8)
    system.sim.run()
    assert system.stats.get("fwd.ops") == 0
    system.idc.message(0, 4, 8)
    system.sim.run()
    assert system.stats.get("fwd.ops") == 1


def test_expected_message_skips_polling():
    slow = _system("8D-4C")
    slow.idc.message(0, 4, 8, expected=False)
    t_normal = _finish(slow)
    fast = _system("8D-4C")
    fast.idc.message(0, 4, 8, expected=True)
    t_expected = _finish(fast)
    assert t_expected < t_normal


def test_bulk_transfer_uses_stream_path():
    system = _system()
    system.idc.remote_read(0, 1, 0, 64 * 1024)
    system.sim.run()
    # streamed in one shot: link busy equals wire bytes at 25 B/ns
    assert system.stats.get("dl.packets") >= 2
    assert system.stats.get("idc.intra_group_bytes") == 64 * 1024
