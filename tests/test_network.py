"""Tests for the event-level packet network (repro.interconnect.network)."""

import pytest

from repro.errors import LinkFailure, RoutingError
from repro.interconnect.network import MAX_BACKOFF_PS, RETRY_PENALTY_PS, PacketNetwork
from repro.interconnect.topology import Topology
from repro.sim import Simulator, StatRegistry
from repro.sim.time import ns
from tests.genproc import Process


def _run_sender(sim, gen):
    """Run the sender generator (tests/genproc.py) to its end."""
    sender = Process(sim, gen, name="sender")
    sim.run()
    assert sender.finished


def _network(name="half_ring", n=4, gbps=25.0, hop=ns(10), wire=ns(2)):
    sim = Simulator()
    stats = StatRegistry()
    network = PacketNetwork(
        sim, Topology(name, n), bandwidth_gbps=gbps,
        hop_latency_ps=hop, wire_latency_ps=wire, stats=stats,
    )
    return sim, stats, network


def test_send_latency_scales_with_hops():
    sim, _, network = _network()
    times = {}
    for dst in (1, 3):
        done = []
        network.send(0, dst, 160).add_callback(lambda ev, d=dst: done.append(sim.now))
        sim.run()
        times[dst] = done[0]
    # 3 hops strictly slower than 1 hop
    assert times[3] > times[1]


def test_send_single_hop_time_breakdown():
    sim, _, network = _network()
    done = []
    network.send(0, 1, 250).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    # occupancy 10ns (250B at 25 B/ns) + hop 10ns + wire latency 2ns
    assert done[0] == ns(10) + ns(10) + ns(2)


def test_send_to_self_completes_immediately():
    sim, _, network = _network()
    done = []
    network.send(2, 2, 64).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert done == [0]


def test_concurrent_sends_on_disjoint_links_overlap():
    sim, _, network = _network(n=4)
    done = []
    network.send(0, 1, 2500).add_callback(lambda ev: done.append(("a", sim.now)))
    network.send(2, 3, 2500).add_callback(lambda ev: done.append(("b", sim.now)))
    sim.run()
    assert done[0][1] == done[1][1]  # fully parallel


def test_sends_on_same_link_serialise():
    sim, _, network = _network(n=2)
    done = []
    network.send(0, 1, 2500).add_callback(lambda ev: done.append(sim.now))
    network.send(0, 1, 2500).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert done[1] - done[0] == ns(100)  # second waits for link occupancy


def test_opposite_directions_are_full_duplex():
    sim, _, network = _network(n=2)
    done = []
    network.send(0, 1, 2500).add_callback(lambda ev: done.append(sim.now))
    network.send(1, 0, 2500).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert done[0] == done[1]


def test_broadcast_reaches_all_and_fires_once():
    sim, stats, network = _network(n=4)
    done = []
    network.broadcast(0, 160).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert len(done) == 1
    assert stats.get("dl.hops") == 3  # chain flood: 3 tree edges
    assert stats.get("dl.broadcasts") == 1


def test_broadcast_from_middle_is_faster_than_from_end():
    times = {}
    for root in (0, 1):
        sim, _, network = _network(n=4)
        done = []
        network.broadcast(root, 1600).add_callback(lambda ev: done.append(sim.now))
        sim.run()
        times[root] = done[0]
    assert times[1] < times[0]


def test_stream_occupies_all_path_links_concurrently():
    sim, _, network = _network(n=4)
    done = []
    network.stream(0, 3, 25000).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    # pipelined: ~1000ns of occupancy (not 3x), plus 3 hops + wire latency
    assert done[0] < ns(1100) + 3 * ns(10) + ns(10)
    for edge in [(0, 1), (1, 2), (2, 3)]:
        assert network.link(*edge).busy_ps == ns(1000)


def test_missing_link_rejected():
    _, _, network = _network(n=4)
    with pytest.raises(RoutingError):
        network.link(0, 2)


def test_hop_bytes_accounting():
    sim, stats, network = _network(n=4)
    network.send(0, 3, 100)
    sim.run()
    assert stats.get("dl.hop_bytes") == 300  # 100 bytes x 3 hops
    assert network.total_busy_ps() == 3 * ns(4)


def test_clean_link_never_retransmits():
    sim, stats, network = _network()
    for _ in range(50):
        network.send(0, 3, 64)
    sim.run()
    assert stats.get("dl.retransmissions") == 0


# -- degraded operation ------------------------------------------------------------


def test_dead_link_detected_by_watchdog_then_rerouted():
    sim, stats, network = _network(name="ring", n=4)
    network.fail_link(0, 1)
    delivered = []

    def sender():
        for _ in range(5):
            try:
                yield network.send(0, 1, 64)
                delivered.append(sim.now)
            except LinkFailure:
                pass

    _run_sender(sim, sender())
    # the watchdog needed consecutive ACK silences to declare the link
    # dead, then routing swung the long way around the ring
    assert stats.get("dl.ack_timeouts") > 0
    assert stats.get("dl.links_marked_down") == 1
    assert network.topology.hops(0, 1) == 3
    assert delivered  # later packets still arrive (over the live route)


def test_partitioned_chain_fails_the_send_event():
    sim, stats, network = _network(name="half_ring", n=4)
    network.fail_link(1, 2)
    outcomes = []

    def sender():
        for _ in range(6):
            try:
                yield network.send(0, 3, 64)
                outcomes.append("ok")
            except LinkFailure:
                outcomes.append("failed")

    _run_sender(sim, sender())
    # a chain has no alternative route: every send eventually fails, the
    # early ones by retry exhaustion, later ones instantly (marked down)
    assert set(outcomes) == {"failed"}
    assert stats.get("dl.send_failures") == 6
    assert stats.get("dl.unroutable") > 0


def test_availability_accounts_open_outages():
    sim, _stats, network = _network()
    sim._now = ns(300)  # advance the clock directly (no queued events)
    network.fail_link(2, 3)
    sim._now = ns(400)
    availability = network.availability()
    assert availability[(2, 3)] == pytest.approx(0.75)  # open outage counted
    assert availability[(1, 2)] == 1.0
    assert network.finalize_stats() == pytest.approx(0.75)


def test_stream_retries_over_restored_route():
    sim, stats, network = _network(name="ring", n=4)
    network.fail_link(0, 1)
    results = []

    def sender():
        try:
            value = yield network.stream(0, 1, 8192)
            results.append(value)
        except LinkFailure:
            results.append("failed")

    _run_sender(sim, sender())
    # the stream's retry loop reports timeouts until the watchdog flips
    # the link, then the recomputed path delivers the train
    assert results == [8192]
    assert stats.get("dl.links_marked_down") == 1


def test_broadcast_fails_over_partition():
    sim, stats, network = _network(name="half_ring", n=4)
    network.fail_link(1, 2)
    # mark it down in routing too (watchdog verdict), so the flood tree
    # is computed over the partitioned graph
    network.watchdog.report_timeout((1, 2))
    network.watchdog.report_timeout((1, 2))
    network.watchdog.report_timeout((1, 2))
    outcome = []

    def sender():
        try:
            yield network.broadcast(0, 256)
            outcome.append("ok")
        except LinkFailure:
            outcome.append("failed")

    _run_sender(sim, sender())
    assert outcome == ["failed"]


def test_backoff_matches_unbounded_formula_and_stays_capped():
    _sim, _stats, network = _network()
    penalty = RETRY_PENALTY_PS
    cap = MAX_BACKOFF_PS
    # the clamped-shift implementation must equal the original
    # min(penalty * 2**(attempt-1), cap) for every attempt, including
    # counts large enough that 2**(attempt-1) would be a huge int
    for attempt in list(range(1, 20)) + [64, 1_000, 100_000]:
        expected = min(penalty * 2 ** min(attempt - 1, 64), cap)
        assert network._backoff_ps(attempt) == expected
    # saturation: attempts past the cap all back off by exactly the cap
    assert network._backoff_ps(10) == cap
    assert network._backoff_ps(100_000) == cap
    # the first attempt is the bare penalty
    assert network._backoff_ps(1) == penalty
