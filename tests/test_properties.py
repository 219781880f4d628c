"""Property-based tests (hypothesis) for core data structures and invariants."""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import geomean
from repro.dram.address import AddressMap, decode_global, encode_global
from repro.interconnect.topology import Topology
from repro.mapping.mcmf import MinCostMaxFlow
from repro.mapping.placement import placement_cost, solve_placement
from repro.protocol.crc import crc32
from repro.protocol.packet import (
    MAX_PAYLOAD,
    Command,
    Packet,
    segment_payload,
    wire_bytes_for_transfer,
)
from repro.sim.time import ns, transfer_ps


# -- protocol -------------------------------------------------------------------

@given(st.binary(max_size=512))
def test_crc_matches_zlib(data):
    assert crc32(data) == zlib.crc32(data)


@given(
    src=st.integers(0, 31),
    dst=st.integers(0, 31),
    cmd=st.sampled_from(list(Command)),
    addr=st.integers(0, (1 << 37) - 1),
    tag=st.integers(0, 255),
    payload=st.binary(max_size=MAX_PAYLOAD),
)
def test_packet_codec_round_trip(src, dst, cmd, addr, tag, payload):
    packet = Packet(src=src, dst=dst, cmd=cmd, addr=addr, tag=tag, payload=payload)
    decoded = Packet.decode(packet.encode())
    assert (decoded.src, decoded.dst, decoded.cmd) == (src, dst, cmd)
    assert (decoded.addr, decoded.tag, decoded.payload) == (addr, tag, payload)


@given(st.integers(0, 1 << 20))
def test_segmentation_conserves_bytes(nbytes):
    sizes = segment_payload(nbytes)
    assert sum(sizes) == nbytes or (nbytes == 0 and sizes == [0])
    assert all(0 <= s <= MAX_PAYLOAD for s in sizes)


@given(st.integers(1, 1 << 20))
def test_wire_bytes_bounded_overhead(nbytes):
    wire = wire_bytes_for_transfer(nbytes)
    assert wire >= nbytes
    # overhead is at most one header flit per 8 payload bytes + packet tails
    assert wire <= 3 * nbytes + 64


# -- addresses ----------------------------------------------------------------------

@given(st.integers(0, 31), st.integers(0, (1 << 37) - 1))
def test_global_address_bijection(dimm, offset):
    assert decode_global(encode_global(dimm, offset)) == (dimm, offset)


@given(
    ranks=st.integers(1, 4),
    lines=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=50, unique=True),
)
def test_address_map_is_injective_on_lines(ranks, lines):
    amap = AddressMap(ranks=ranks, banks_per_rank=16, row_bytes=8192)
    locations = [amap.decode(line * 64) for line in lines]
    assert len(set(locations)) == len(locations)


# -- time ----------------------------------------------------------------------------

@given(st.integers(0, 1 << 30), st.floats(0.5, 100.0))
def test_transfer_time_monotone_in_size(nbytes, gbps):
    assert transfer_ps(nbytes + 64, gbps) >= transfer_ps(nbytes, gbps)


@given(st.integers(1, 1 << 24))
def test_transfer_time_inverse_in_bandwidth(nbytes):
    assert transfer_ps(nbytes, 50.0) <= transfer_ps(nbytes, 25.0)


# -- topology ---------------------------------------------------------------------

@given(
    name=st.sampled_from(["half_ring", "ring", "mesh", "torus"]),
    n=st.integers(2, 12),
    seed=st.integers(0, 1000),
)
@settings(max_examples=50)
def test_routing_triangle_inequality(name, n, seed):
    topo = Topology(name, n)
    rng_nodes = [(seed * 7 + i) % n for i in range(3)]
    a, b, c = rng_nodes
    if len({a, b, c}) == 3:
        assert topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c)


@given(name=st.sampled_from(["half_ring", "ring", "mesh", "torus"]), n=st.integers(1, 12))
@settings(max_examples=40)
def test_hops_symmetric(name, n):
    topo = Topology(name, n)
    for a in range(n):
        for b in range(a + 1, n):
            assert topo.hops(a, b) == topo.hops(b, a)


# -- mapping -----------------------------------------------------------------------

@given(
    costs=st.lists(
        st.lists(st.integers(0, 50), min_size=2, max_size=2),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=50)
def test_mcmf_placement_beats_or_ties_any_greedy(costs):
    import numpy as np

    matrix = np.asarray(costs, dtype=float)
    threads = matrix.shape[0]
    per_dimm = (threads + 1) // 2
    placement = solve_placement(matrix, threads_per_dimm=per_dimm)
    # greedy row-argmin, repaired to capacity, can never beat the optimum
    counts = {0: 0, 1: 0}
    greedy = []
    for t in range(threads):
        pick = int(matrix[t].argmin())
        if counts[pick] >= per_dimm:
            pick = 1 - pick
        counts[pick] += 1
        greedy.append(pick)
    assert placement_cost(placement, matrix) <= placement_cost(greedy, matrix)


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20))
def test_geomean_bounded_by_min_max(values):
    result = geomean(values)
    assert min(values) * 0.999 <= result <= max(values) * 1.001


# -- flow conservation in MCMF -------------------------------------------------------

@given(seed=st.integers(0, 200))
@settings(max_examples=30)
def test_mcmf_flow_conservation(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    nodes = 6
    net = MinCostMaxFlow(nodes)
    edges = []
    for _ in range(10):
        u, v = rng.integers(0, nodes, size=2)
        if u != v:
            edges.append(
                (u, v, net.add_edge(int(u), int(v), int(rng.integers(1, 5)),
                                    float(rng.integers(0, 9))))
            )
    flow, cost = net.solve(0, nodes - 1)
    assert flow >= 0
    assert cost >= 0
    # conservation: inflow == outflow at interior nodes
    balance = [0] * nodes
    for u, v, edge_id in edges:
        f = net.flow_on(edge_id)
        balance[u] -= f
        balance[v] += f
    assert balance[0] == -flow
    assert balance[nodes - 1] == flow
    for node in range(1, nodes - 1):
        assert balance[node] == 0
