"""Tests for bandwidth and slot resources (repro.sim.resource)."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthResource, Simulator, SlotResource
from repro.sim.time import ns


def test_transfer_duration_matches_bandwidth():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=10.0)  # 10 GB/s
    done = []
    bus.transfer(1000).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert done == [ns(100)]


def test_transfers_serialise():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    times = []
    bus.transfer(100).add_callback(lambda ev: times.append(sim.now))
    bus.transfer(100).add_callback(lambda ev: times.append(sim.now))
    sim.run()
    assert times == [ns(100), ns(200)]
    assert bus.busy_ps == ns(200)
    assert bus.bytes_moved == 200


def test_latency_added_after_occupancy():
    sim = Simulator()
    link = BandwidthResource(sim, bytes_per_ns=1.0, latency_ps=ns(5))
    times = []
    link.transfer(10).add_callback(lambda ev: times.append(sim.now))
    link.transfer(10).add_callback(lambda ev: times.append(sim.now))
    sim.run()
    # latency overlaps with the next transfer's occupancy
    assert times == [ns(15), ns(25)]
    assert link.busy_ps == ns(20)


def test_occupancy_fraction():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    bus.transfer(50)
    sim.run()
    sim.schedule(ns(50), lambda _: None)
    sim.run()
    assert bus.occupancy() == pytest.approx(0.5)


def test_zero_byte_transfer_completes():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    fired = []
    bus.transfer(0).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [0]


def test_negative_transfer_rejected():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    with pytest.raises(SimulationError):
        bus.transfer(-1)


def test_occupy_blocks_transfers():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    times = []
    bus.occupy(ns(30)).add_callback(lambda ev: times.append(("occ", sim.now)))
    bus.transfer(10).add_callback(lambda ev: times.append(("xfer", sim.now)))
    sim.run()
    assert times == [("occ", ns(30)), ("xfer", ns(40))]


def test_slot_resource_blocks_and_wakes_fifo():
    sim = Simulator()
    slots = SlotResource(sim, 1)
    order = []

    def granted(tag):
        order.append((tag, sim.now))
        sim.schedule(100, lambda _arg: slots.release())

    for tag in "abc":
        slots.acquire().then(granted, tag)
    sim.run()
    assert order == [("a", 0), ("b", 100), ("c", 200)]
    assert slots.peak_in_use == 1


def test_slot_release_without_acquire_raises():
    sim = Simulator()
    slots = SlotResource(sim, 2)
    with pytest.raises(SimulationError):
        slots.release()


def test_slot_capacity_enforced():
    sim = Simulator()
    slots = SlotResource(sim, 2)
    granted = []
    slots.acquire().add_callback(lambda ev: granted.append(1))
    slots.acquire().add_callback(lambda ev: granted.append(2))
    slots.acquire().add_callback(lambda ev: granted.append(3))
    sim.run()
    assert granted == [1, 2]
    slots.release()
    sim.run()
    assert granted == [1, 2, 3]
