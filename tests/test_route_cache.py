"""Route-table/cache invalidation coverage.

The topology memoizes paths, broadcast trees, and distance tables; every
link-state change must invalidate all of them.  These tests compare the
cached answers against a *cold* topology — a freshly constructed one
with the same links down, which cannot have stale state — through a
series of link failures, including watchdog-driven mid-run rerouting.
"""

import pytest

from repro.errors import LinkFailure
from repro.interconnect.network import PacketNetwork
from repro.interconnect.topology import Topology
from repro.sim import Simulator, StatRegistry


def cold_topology(name, n, down_edges):
    """A fresh topology with ``down_edges`` down: no cache can be stale."""
    topo = Topology(name, n)
    for a, b in down_edges:
        topo.set_link_down(a, b)
    return topo


def assert_matches_cold(topo, down_edges):
    """Every pair's path/hops/tree must equal the cold computation."""
    cold = cold_topology(topo.name, topo.n, down_edges)
    for a in range(topo.n):
        for b in range(topo.n):
            if a == b:
                continue
            assert topo.reachable(a, b) == cold.reachable(a, b), (a, b)
            if topo.reachable(a, b):
                assert topo.path(a, b) == cold.path(a, b), (a, b)
                assert topo.hops(a, b) == cold.hops(a, b), (a, b)
        assert topo.broadcast_tree(a, require_all=False) == cold.broadcast_tree(
            a, require_all=False
        )


@pytest.mark.parametrize("name,n", [("mesh", 16), ("ring", 8), ("half_ring", 6)])
def test_cached_routes_match_cold_through_downs(name, n):
    topo = Topology(name, n)
    # warm every cache
    assert_matches_cold(topo, [])
    down = set()
    for a, b in (topo.edges[0], topo.edges[len(topo.edges) // 2], topo.edges[-1]):
        topo.set_link_down(a, b)
        down.add((a, b))
        assert_matches_cold(topo, sorted(down))


def test_returned_path_and_tree_are_private_copies():
    topo = Topology("mesh", 16)
    path = topo.path(0, 15)
    expected = list(path)
    path.append(999)
    path[0] = -7
    assert topo.path(0, 15) == expected

    tree = topo.broadcast_tree(0)
    expected_tree = list(tree)
    tree.clear()
    assert topo.broadcast_tree(0) == expected_tree


def test_hops_uses_distance_table_and_errors_on_partition():
    topo = Topology("half_ring", 4)  # chain 0-1-2-3
    assert topo.hops(0, 3) == 3
    topo.set_link_down(1, 2)
    assert topo.hops(0, 1) == 1
    from repro.errors import RoutingError

    with pytest.raises(RoutingError):
        topo.hops(0, 3)


def _network(sim, topo):
    return PacketNetwork(
        sim,
        topo,
        bandwidth_gbps=25.0,
        hop_latency_ps=10_000,
        wire_latency_ps=5_000,
        stats=StatRegistry(),
        name="t",
    )


def test_watchdog_link_down_mid_run_reroutes_like_cold():
    """A mid-run LinkDown: once the watchdog flips the routing tables,
    cached routes must equal a cold topology with that link down."""
    sim = Simulator()
    topo = Topology("ring", 6)
    net = _network(sim, topo)
    log = {"failures": 0, "delivered": 0}

    def driver():
        # warm the route caches while everything is up
        yield net.stream(0, 3, 4096)
        assert topo.path(0, 3) == [0, 1, 2, 3]
        net.fail_link(1, 2)  # physical failure only: routes still stale
        # senders hammer the dead link until the watchdog marks it down
        for _ in range(4):
            try:
                yield net.send(1, 2, 256)
                log["delivered"] += 1
            except LinkFailure:
                log["failures"] += 1
        assert topo.link_up(1, 2) is False

    sim.process(driver(), name="driver")
    sim.run()
    assert log["failures"] + log["delivered"] >= 1
    assert topo.route_recomputes == 1
    assert_matches_cold(topo, [(1, 2)])
    # traffic now takes the long way around, matching the cold route
    assert topo.path(1, 2) == [1, 0, 5, 4, 3, 2]


def test_stream_reroutes_after_watchdog_flip():
    """stream() resolves its path per attempt: a path cached before the
    failure must not leak into the post-flip attempt."""
    sim = Simulator()
    topo = Topology("ring", 6)
    net = _network(sim, topo)
    outcome = {}

    def driver():
        yield net.stream(0, 2, 2048)  # warms path(0,2) = [0, 1, 2]
        net.fail_link(0, 1)
        for _ in range(3):
            try:
                yield net.send(0, 1, 64)
            except LinkFailure:
                pass
        assert not topo.link_up(0, 1)
        yield net.stream(0, 2, 2048)  # must take [0, 5, 4, 3, 2]
        outcome["path"] = topo.path(0, 2)

    sim.process(driver(), name="driver")
    sim.run()
    assert outcome["path"] == [0, 5, 4, 3, 2]
    assert_matches_cold(topo, [(0, 1)])
