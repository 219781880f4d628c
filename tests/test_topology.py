"""Tests for DL-group topologies and routing (repro.interconnect.topology)."""

import networkx as nx
import pytest

from repro.errors import ConfigError, RoutingError
from repro.interconnect.topology import TOPOLOGY_NAMES, Topology, build_edges


def _nx_graph(topology: Topology) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.n))
    graph.add_edges_from(topology.edges)
    return graph


def test_half_ring_is_a_chain():
    topo = Topology("half_ring", 8)
    assert topo.edges == [(i, i + 1) for i in range(7)]
    assert topo.diameter() == 7


def test_ring_closes_the_chain():
    topo = Topology("ring", 8)
    assert (0, 7) in [tuple(sorted(e)) for e in topo.edges]
    assert topo.diameter() == 4


def test_mesh_dimensions_most_square():
    topo = Topology("mesh", 8)  # 2x4
    graph = _nx_graph(topo)
    assert graph.number_of_edges() == 2 * 4 * 2 - 2 - 4  # grid edge count


def test_torus_diameter_smaller_than_mesh():
    mesh = Topology("mesh", 16)
    torus = Topology("torus", 16)
    assert torus.diameter() < mesh.diameter()


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 16])
def test_paths_match_networkx_shortest_lengths(name, n):
    topo = Topology(name, n)
    graph = _nx_graph(topo)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            assert topo.hops(src, dst) == lengths[src][dst]


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_path_is_valid_walk(name):
    topo = Topology(name, 8)
    edge_set = {tuple(sorted(e)) for e in topo.edges}
    for src in range(8):
        for dst in range(8):
            if src == dst:
                continue
            path = topo.path(src, dst)
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert tuple(sorted((a, b))) in edge_set


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_broadcast_tree_reaches_all_nodes_once(name):
    topo = Topology(name, 8)
    tree = topo.broadcast_tree(root=3)
    children = [child for _parent, child in tree]
    assert sorted(children + [3]) == list(range(8))
    # parents appear before their children (valid propagation order)
    seen = {3}
    for parent, child in tree:
        assert parent in seen
        seen.add(child)


def test_average_distance_orders_topologies():
    distances = {
        name: Topology(name, 8).average_distance()
        for name in ("half_ring", "ring", "torus")
    }
    assert distances["torus"] <= distances["ring"] <= distances["half_ring"]


def test_unknown_topology_rejected():
    with pytest.raises(ConfigError):
        build_edges("hypercube", 8)


def test_out_of_range_node_rejected():
    topo = Topology("ring", 4)
    with pytest.raises(RoutingError):
        topo.next_hop(0, 5)
    with pytest.raises(RoutingError):
        topo.next_hop(0, 0)


def test_single_node_topology():
    topo = Topology("half_ring", 1)
    assert topo.edges == []
    assert topo.diameter() == 0
    assert topo.broadcast_tree(0) == []


# -- degenerate sizes (documented fallbacks) ---------------------------------------


def test_ring_with_two_nodes_degrades_to_chain():
    # a 2-node "ring" would need a redundant parallel link; build_edges
    # documents the fallback to a chain
    assert build_edges("ring", 2) == [(0, 1)]
    assert build_edges("ring", 1) == []
    assert Topology("ring", 2).diameter() == 1


def test_ring_three_nodes_is_a_real_cycle():
    assert len(build_edges("ring", 3)) == 3


def test_torus_two_wide_dimensions_drop_wrap_edges():
    # 2x2 torus: both dims are 2-wide, so all wraps would duplicate mesh
    # edges — the torus must equal the mesh exactly
    assert build_edges("torus", 4) == build_edges("mesh", 4)
    # 2x4 torus: the 2-wide row dim drops its wrap; the 4-wide column dim
    # keeps it, adding exactly the two row-closing edges
    extra = set(build_edges("torus", 8)) - set(build_edges("mesh", 8))
    assert extra == {(0, 3), (4, 7)}


def test_ring_wrap_edge_is_canonical():
    topo = Topology("ring", 8)
    assert all(a < b for a, b in topo.edges)
    assert topo.edge_key(7, 0) == (0, 7)


# -- dynamic link state ------------------------------------------------------------


def test_set_link_state_recomputes_routes():
    topo = Topology("ring", 4)
    assert topo.hops(0, 3) == 1
    assert topo.set_link_down(3, 0) is True  # endpoint order-insensitive
    assert topo.hops(0, 3) == 3  # rerouted the long way around
    assert topo.set_link_down(0, 3) is False  # no change, no recompute
    assert topo.route_recomputes == 1


def test_link_state_on_nonexistent_edge_rejected():
    topo = Topology("half_ring", 4)
    with pytest.raises(RoutingError):
        topo.set_link_down(0, 2)
    with pytest.raises(RoutingError):
        topo.link_up(0, 2)


def test_partition_reachability_component_and_broadcast():
    topo = Topology("half_ring", 4)
    topo.set_link_down(1, 2)
    assert not topo.reachable(0, 3)
    assert topo.reachable(0, 1)
    assert topo.component(0) == {0, 1}
    assert topo.component(3) == {2, 3}
    with pytest.raises(RoutingError):
        topo.next_hop(0, 3)
    with pytest.raises(RoutingError):
        topo.broadcast_tree(0)
    partial = topo.broadcast_tree(0, require_all=False)
    assert [child for _parent, child in partial] == [1]


def test_live_edges_shrink():
    topo = Topology("ring", 4)
    assert len(topo.live_edges) == 4
    topo.set_link_down(1, 2)
    assert len(topo.live_edges) == 3
    assert not topo.link_up(1, 2)
