"""The per-process memo of generated graph inputs.

Graph kernels that generate their own graph take it from
``shared_rmat`` / ``shared_streamed_rmat``: every kernel with the same
``(scale, edge_factor, seed)`` holds one read-only object, and a
streamed graph's crossing matrices are memoized per ``(bounds, parts)``.
The pinned section runs tiny specs with the memo cold and then warm, in
reverse order, and checks their result digests against the ones
recorded before the memo existed.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.runner import RunSpec, clear_run_memo, execute_spec
from repro.workloads.graph import (
    GRAPH_MEMO_SIZE,
    StreamedRMAT,
    _stream_crossings,
    grouped_edge_balanced_bounds,
    shared_rmat,
    shared_streamed_rmat,
)
from repro.workloads.graphkernels import GraphKernel


class _Kernel(GraphKernel):
    name = "probe"

    def thread_factories(self, num_threads, num_dimms):  # pragma: no cover
        raise NotImplementedError


def _clear_memo():
    shared_rmat.cache_clear()
    shared_streamed_rmat.cache_clear()
    _stream_crossings.cache_clear()


@pytest.fixture
def cold_memo():
    _clear_memo()
    yield
    _clear_memo()


def test_equal_parameters_share_one_graph(cold_memo):
    first = _Kernel(scale=8, edge_factor=4, seed=5)
    second = _Kernel(scale=8, edge_factor=4, seed=5, byte_scale=3)
    assert first.graph is second.graph is shared_rmat(8, 4, 5)
    streamed = [
        _Kernel(scale=9, edge_factor=4, seed=5, streaming=True) for _ in range(2)
    ]
    assert streamed[0]._graph_stats() is streamed[1]._graph_stats()
    assert shared_streamed_rmat.cache_info().misses == 1


def test_another_seed_or_an_explicit_graph_is_not_shared(cold_memo):
    kernel = _Kernel(scale=8, edge_factor=4, seed=5)
    assert _Kernel(scale=8, edge_factor=4, seed=6).graph is not kernel.graph
    explicit = [_Kernel(graph=kernel.graph) for _ in range(2)]
    assert explicit[0].graph is not explicit[1].graph
    assert explicit[0].graph is not kernel.graph
    assert explicit[0].graph.indices.flags.writeable
    stream = _Kernel(scale=9, seed=5, streaming=True)._graph_stats()
    assert _Kernel(scale=9, seed=6, streaming=True)._graph_stats() is not stream


def test_every_shared_array_is_read_only(cold_memo):
    graph = shared_rmat(8, 4, 5)
    stream = shared_streamed_rmat(9, 4, 5)
    matrix = stream.cross_partition(grouped_edge_balanced_bounds(stream, 8), 8)
    arrays = [graph.indptr, graph.indices, stream.degrees, stream.indptr, matrix]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array += 0


def test_memoized_crossings_match_a_fresh_stream(cold_memo):
    stream = shared_streamed_rmat(9, 4, 5)
    for parts in (4, 8):
        bounds = grouped_edge_balanced_bounds(stream, parts)
        memoized = stream.cross_partition(bounds, parts)
        assert stream.cross_partition(bounds.copy(), parts) is memoized
        _stream_crossings.cache_clear()
        fresh = StreamedRMAT(9, 4, 5).cross_partition(bounds, parts)
        assert fresh is not memoized
        assert np.array_equal(memoized, fresh)


def test_eviction_rebuilds_an_equal_graph(cold_memo):
    graph = shared_rmat(7, 4, 0)
    stream = shared_streamed_rmat(7, 4, 0)
    for seed in range(1, GRAPH_MEMO_SIZE + 1):
        shared_rmat(7, 4, seed)
        shared_streamed_rmat(7, 4, seed)
    rebuilt = shared_rmat(7, 4, 0)
    assert rebuilt is not graph
    assert np.array_equal(rebuilt.indptr, graph.indptr)
    assert np.array_equal(rebuilt.indices, graph.indices)
    rebuilt_stream = shared_streamed_rmat(7, 4, 0)
    assert rebuilt_stream is not stream
    assert np.array_equal(rebuilt_stream.degrees, stream.degrees)


# -- pinned exactness ------------------------------------------------------------


def _tiny(config, workload, **fields):
    return RunSpec(config=config, workload=workload, size="tiny", **fields)


#: label -> (tiny spec, sha256 of its result JSON), recorded while every
#: kernel still generated its own graph.
PINNED = {
    "pagerank_stream-static": (
        _tiny("8D-4C", "pagerank_stream", mechanism="dimm_link"),
        "456d76fb7554fd277a473040c6373a7170f0ea1f4501461d8eb8f69f55be5c0a",
    ),
    "pagerank_stream-next_touch": (
        _tiny(
            "8D-4C", "pagerank_stream", mechanism="mcn", data_placement="next_touch"
        ),
        "222d1a001deb6c9d7618eb8e341980b26a6338c9171d706b5b36460076c7fca2",
    ),
    "bfs": (
        _tiny("8D-4C", "bfs", mechanism="dimm_link"),
        "34304334cdeb109d58f6e7acd999672818a9ae1447a16c54e7d1cff3919dffd7",
    ),
    "sssp": (
        _tiny("8D-4C", "sssp", mechanism="dimm_link"),
        "e291134fca59be7e793532166e3b4d21d4bfd7f735744bf65d15e2fd34e14713",
    ),
    "pagerank_bc": (
        _tiny("12D-4C", "pagerank_bc", mechanism="dimm_link"),
        "485f41179fe1f4c163bfbc4473b0768d5d6e11cc18927dcff61566531f4a51fa",
    ),
}


def _digests(labels):
    digests = {}
    for label in labels:
        result = execute_spec(PINNED[label][0])
        text = json.dumps(result.to_json_dict(), sort_keys=True)
        digests[label] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_results_equal_their_pins_with_the_memo_cold_and_warm(cold_memo, simulations):
    memos = (shared_rmat, shared_streamed_rmat, _stream_crossings)
    want = {label: digest for label, (_spec, digest) in PINNED.items()}
    assert _digests(PINNED) == want
    assert len(simulations) == len(PINNED)
    cold = [memo.cache_info() for memo in memos]
    clear_run_memo()  # the warm pass must simulate, not replay the cold one
    assert _digests(reversed(list(PINNED))) == want
    assert len(simulations) == 2 * len(PINNED)
    # the warm pass took every graph and crossing matrix from the memo
    warm = [memo.cache_info() for memo in memos]
    assert [info.misses for info in warm] == [info.misses for info in cold]
    assert all(w.hits > c.hits for w, c in zip(warm, cold))
