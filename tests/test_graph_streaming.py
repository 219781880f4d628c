"""Tests for the streaming R-MAT generator and streamed graph workloads."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.experiments.runner import RunSpec, execute_spec
from repro.workloads.graph import (
    RMAT_MAX_SCALE,
    RMAT_STREAM_MAX_SCALE,
    StreamedRMAT,
    from_edges,
    rmat,
    rmat_stream,
)


def collect(stream):
    batches = list(stream)
    src = np.concatenate([s for s, _ in batches])
    dst = np.concatenate([d for _, d in batches])
    return src, dst


# -- stream == in-RAM generator ------------------------------------------------------


def test_single_batch_stream_equals_in_ram_rmat():
    scale, edge_factor = 8, 8
    n = 1 << scale
    graph = rmat(scale, edge_factor=edge_factor, seed=11)
    # one batch covers the whole edge budget -> identical RNG consumption,
    # so building a CSR from the stream reproduces the in-RAM graph
    src, dst = collect(
        rmat_stream(scale, edge_factor=edge_factor, seed=11, batch_edges=n * edge_factor)
    )
    streamed = from_edges(n, src, dst)
    assert np.array_equal(streamed.indptr, graph.indptr)
    assert np.array_equal(streamed.indices, graph.indices)


def test_multi_batch_stream_is_deterministic():
    first = collect(rmat_stream(8, edge_factor=4, seed=3, batch_edges=256))
    second = collect(rmat_stream(8, edge_factor=4, seed=3, batch_edges=256))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_stream_batches_are_bounded_and_loop_free():
    for src, dst in rmat_stream(8, edge_factor=4, seed=3, batch_edges=256):
        assert len(src) <= 2 * 256  # undirected doubles a batch
        assert not np.any(src == dst)


def test_streamed_passes_hold_one_batch_at_a_time(monkeypatch):
    """Neither the stream nor its two consumers (the degree pass and the
    crossing pass) keep a batch alive while the next one is drawn, so
    peak memory is one batch's arrays, not two."""
    import weakref

    import repro.workloads.graph as graph_module

    yielded = []
    draw, stream = graph_module._rmat_quadrants, graph_module.rmat_stream

    def checked_draw(*args):
        assert all(ref() is None for ref in yielded), "previous batch alive"
        return draw(*args)

    def tracked_stream(*args):
        for batch in stream(*args):
            yielded.extend(weakref.ref(array) for array in batch)
            yield batch
            del batch

    monkeypatch.setattr(graph_module, "_rmat_quadrants", checked_draw)
    monkeypatch.setattr(graph_module, "rmat_stream", tracked_stream)
    graph = StreamedRMAT(8, edge_factor=4, seed=5, batch_edges=100)
    graph.cross_partition(np.array([0, 64, 128, 192, 256]))
    assert len(yielded) > 8  # several batches went through both passes


# -- scale caps ----------------------------------------------------------------------


def test_in_ram_cap_points_at_the_streaming_path():
    with pytest.raises(WorkloadError, match="in-RAM generator"):
        rmat(RMAT_MAX_SCALE + 1)


def test_stream_accepts_scales_beyond_the_in_ram_cap():
    stream = rmat_stream(RMAT_MAX_SCALE + 2, edge_factor=1, batch_edges=1024)
    src, dst = next(iter(stream))  # lazy: only one batch is materialized
    assert len(src) > 0
    assert src.max() < 1 << (RMAT_MAX_SCALE + 2)


def test_stream_rejects_its_own_cap_and_bad_batches():
    with pytest.raises(WorkloadError):
        next(iter(rmat_stream(RMAT_STREAM_MAX_SCALE + 1)))
    with pytest.raises(WorkloadError):
        next(iter(rmat_stream(8, batch_edges=0)))


# -- StreamedRMAT: million-vertex statistics in O(V) memory --------------------------


def test_streamed_rmat_reaches_a_million_vertices():
    stats = StreamedRMAT(scale=20, edge_factor=2)
    assert stats.num_vertices == 1 << 20 >= 1_000_000
    assert stats.num_edges > 0
    assert len(stats.indptr) == stats.num_vertices + 1
    assert stats.indptr[0] == 0
    assert stats.indptr[-1] == stats.num_edges
    assert np.all(np.diff(stats.indptr) >= 0)


def test_streamed_rmat_degrees_match_the_stream():
    stats = StreamedRMAT(scale=8, edge_factor=4, seed=3, batch_edges=256)
    src, _dst = collect(rmat_stream(8, edge_factor=4, seed=3, batch_edges=256))
    assert np.array_equal(
        stats.degrees, np.bincount(src, minlength=stats.num_vertices)
    )


def test_streamed_cross_partition_matches_direct_count():
    stats = StreamedRMAT(scale=8, edge_factor=4, seed=3, batch_edges=256)
    src, dst = collect(rmat_stream(8, edge_factor=4, seed=3, batch_edges=256))
    bounds = np.asarray([0, 64, 128, 192, 256])
    matrix = stats.cross_partition(bounds, parts=4)
    expected = np.zeros((4, 4), dtype=np.int64)
    np.add.at(
        expected,
        (
            np.clip(np.searchsorted(bounds, src, side="right") - 1, 0, 3),
            np.clip(np.searchsorted(bounds, dst, side="right") - 1, 0, 3),
        ),
        1,
    )
    assert np.array_equal(matrix, expected)
    assert matrix.sum() == len(src)


# -- the streamed workload runs end to end -------------------------------------------


def test_pagerank_stream_spec_executes():
    result = execute_spec(
        RunSpec(config="4D-2C", workload="pagerank_stream", size="tiny")
    )
    assert result.workload == "pagerank_stream"
    assert result.time_us > 0
