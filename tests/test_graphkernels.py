"""Tests for the graph-kernel machinery (layout, BFS levels, gathers)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.graphkernels import (
    STATE_BYTES,
    GraphKernel,
    data_dimm,
    natural_homes,
)
from repro.workloads.bfs import BFS
from repro.workloads.graph import rmat


class _Kernel(GraphKernel):
    name = "probe"

    def thread_ops(self, shape, thread_id):  # pragma: no cover
        raise NotImplementedError


def test_bfs_levels_match_networkx():
    kernel = _Kernel(scale=8, edge_factor=4, seed=5)
    levels = kernel.bfs_levels(source=0)
    graph = nx.Graph()
    graph.add_nodes_from(range(kernel.graph.num_vertices))
    for v in range(kernel.graph.num_vertices):
        for u in kernel.graph.neighbors(v):
            graph.add_edge(v, int(u))
    reference = nx.single_source_shortest_path_length(graph, 0)
    for vertex in range(kernel.graph.num_vertices):
        expected = reference.get(vertex, -1)
        assert levels[vertex] == expected


def test_layout_edge_totals_conserved():
    kernel = _Kernel(scale=9, seed=2, byte_scale=1)
    layout = kernel._layout(16, 4)
    assert layout["edges_to_dimm"].sum() == kernel.graph.num_edges
    assert layout["block_edges"].sum() == kernel.graph.num_edges
    assert layout["block_vertices"].sum() == kernel.graph.num_vertices


def test_layout_cached_per_shape():
    kernel = _Kernel(scale=8)
    first = kernel._layout(8, 4)
    assert kernel._layout(8, 4) is first
    assert kernel._layout(16, 4) is not first


def test_byte_scale_scales_layout():
    plain = _Kernel(scale=8, seed=3, byte_scale=1)._layout(8, 4)
    scaled = _Kernel(scale=8, seed=3, byte_scale=5)._layout(8, 4)
    assert scaled["block_edges"].sum() == 5 * plain["block_edges"].sum()


def test_more_threads_than_vertices_rejected():
    kernel = _Kernel(scale=3)  # 8 vertices
    with pytest.raises(WorkloadError):
        kernel._layout(16, 4)


def test_invalid_byte_scale_rejected():
    with pytest.raises(WorkloadError):
        _Kernel(scale=8, byte_scale=0)


def test_data_dimm_block_major():
    assert [data_dimm(b, 8, 4) for b in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert natural_homes(8, 4) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_spread_bytes_applies_dedup_and_scale():
    row = np.array([100, 0, 50])
    spread = GraphKernel.spread_bytes(row, scale=0.5, dedup=0.5)
    assert spread == {0: 100 * 8 // 4, 2: 50 * 8 // 4}
    assert 1 not in spread


def _reference_spread_bytes(edges_per_dimm, scale, dedup):
    """The per-element comprehension ``spread_bytes`` replaced."""
    factor = STATE_BYTES * scale * dedup
    return {
        d: int(count * factor)
        for d, count in enumerate(edges_per_dimm)
        if int(count * factor) > 0
    }


# counts up to 2**53 times factors up to 32 still fit int64, where both
# paths agree; real edge counts are far smaller
@given(
    row=st.lists(st.integers(0, 1 << 53), min_size=1, max_size=32).map(
        lambda counts: np.array(counts, dtype=np.int64)
    ),
    scale=st.floats(0.0, 2.0),
    dedup=st.floats(0.0, 2.0),
)
def test_spread_bytes_matches_the_reference_comprehension(row, scale, dedup):
    spread = GraphKernel.spread_bytes(row, scale=scale, dedup=dedup)
    reference = _reference_spread_bytes(row, scale, dedup)
    assert list(spread.items()) == list(reference.items())
    assert all(type(value) is int for value in spread.values())


def test_explicit_graph_skips_generation():
    graph = rmat(7, 4, seed=1)
    kernel = _Kernel(graph=graph)
    # the provided graph is partition-refined in place of generation
    assert kernel.graph.num_edges == graph.num_edges


def test_bfs_workload_levels_drive_barrier_count():
    workload = BFS(scale=8, seed=5)
    streams = [list(f()) for f in workload.thread_factories(8, 4)]
    from repro.workloads.ops import Barrier

    barriers = sum(isinstance(op, Barrier) for op in streams[0])
    assert barriers == int(workload._levels.max())
