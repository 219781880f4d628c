"""Tests for all Table IV workloads: structure invariants of op streams."""

import hashlib
import itertools

import pytest

from repro.errors import WorkloadError
from repro.experiments.common import build_workload
from repro.workloads import (
    BFS,
    SSSP,
    SSSPBC,
    BlockedFloydWarshall,
    BulkTransfer,
    DLRMEmbedding,
    HotPage,
    Hotspot,
    KMeans,
    NeedlemanWunsch,
    PageRank,
    PageRankBC,
    SpMV,
    SpMVBC,
    SyncInterval,
    TSPow,
    UniformRandom,
)
from repro.workloads.ops import Barrier, Broadcast, Compute, Flush, Read, Stamp, Write


def _paged(workload):
    workload.paged = True
    return workload


ALL_WORKLOADS = [
    BFS(scale=8),
    SSSP(scale=8, rounds=2),
    SSSPBC(scale=8, rounds=2),
    PageRank(scale=8, iterations=2),
    PageRankBC(scale=8, iterations=2),
    SpMV(scale=8, iterations=1),
    SpMVBC(scale=8, iterations=1),
    Hotspot(rows=64, cols=64, iterations=2),
    KMeans(points=2048, iterations=2),
    NeedlemanWunsch(sequence_length=512, block=128),
    TSPow(samples_per_thread=1024, chunks=4),
    SyncInterval(interval_instructions=100, barriers=3),
    UniformRandom(ops_per_thread=20),
    HotPage(rounds=2, private_pages=4),
    DLRMEmbedding(
        tables=4, rows=128, dim=8, pooling=4, batches_per_thread=2, batch_size=8
    ),
    BlockedFloydWarshall(n=48, block=12),
    _paged(PageRank(scale=8, iterations=2)),
]

VALID_OPS = (Compute, Read, Write, Broadcast, Barrier, Flush, Stamp)

#: sha256 over the reprs of each workload's op streams at 16 threads x 4
#: DIMMs (``bulk_transfer``: one thread): the registry's tiny presets,
#: paged (``+paged``) and unpaged, plus the two microbenchmarks outside it.
OP_STREAM_PINS = {
    "apsp": "c8771345b7feb42f6375d42bb80b5c27af89e6785cd9f4d10a396d7a84e7dfc5",
    "bfs": "08e26408af9f03764a156a261fcdef9b3c7e3921a4bb1a2fd7b4f5c44402b9d9",
    "bfs+paged": "b39258150a5415a6f20e30751547fa2160e18d5f3c202f38e3e71c5b9bce156b",
    "bulk_transfer": "fd24e76856f7cd8a68a63bee259be17410569b3fcd026602973433bd597b1dbf",
    "dlrm": "7a51819e328b16438b4d20d651912df19ef2a9f69e600bac66d7c63e54e4e18b",
    "hotpage": "39482d29eea2f7cd621c49b7f8af366692ceaa5befa95b1e610f3743f6b76db7",
    "hotspot": "025a0c7e4a9b1bbd2525c21512ca5bddc0964299412f2abf2120e7278e33a935",
    "hotspot+paged": "7a3320c215495e1986bd39772445d82ebb1ccb3d59f054b65385b0a9c18f5644",
    "kmeans": "3145a830b2c4ebfdd819da12fa2fb53319e3f8d7982e4a411df6a02043fecc32",
    "nw": "67f3c160d00830d659d51853c9a982986d41af588d5bd9630273def103b1b4c4",
    "pagerank": "4db690c4572d8e3a103e8ca2370c3964b8afcad659e7c6daea6c8b2f4a9c8a56",
    "pagerank+paged": "a68254cf40b7df921434e77d2156498eacd6ab4834ebf9c92278620b15566b7d",
    "pagerank_bc": "a02400b57b6617eb8f08380b8ad843647ee24d11847975dbafeeeffa97fac915",
    "pagerank_bc+paged": "6cfc90082d48739a7704bc86b55aafd6d702f4cce59d704fa83283abc3b4af71",
    "pagerank_stream": "f018d80527bed8476b82dc4ed0768b9d0ed4377d2d57b655281f0ffb4cf3c790",
    "pagerank_stream+paged": "5ba6ca41145235db9d588fa3ae7389326587a73bd81ee6951ea720564e85d156",
    "spmv": "c06ab9e6f94afea3af474b0c2f659ae9fd8e575e7191f3f490ede408044f5e7f",
    "spmv+paged": "5b6b53dfcdf338b870a723fc848702e89a89590321cb413847c972387e20a04e",
    "spmv_bc": "143a2935d33890d0348e07f53fa1e2c8e9e1af9f6c78bd77c7b2993d726ea79b",
    "spmv_bc+paged": "eea071c42ad4efa20b546be026bb5b3c0ab80453336f6515e62d5a4c6d48c706",
    "sssp": "63e145545ff000ee855a09f631b66ad8b6221359ab87824eb74e2a7ab9eddffd",
    "sssp+paged": "01dbdcc6f6eafd556d74b7354d3e9b10f8682940ca0082407ee0378ff2f09eb3",
    "sssp_bc": "03d8c607b40c72907969277b9985031dfaca098153327eb3f903b8da4c20266d",
    "sssp_bc+paged": "3a3109e1cdacfaac610e0de0a831adeb4d801939d9cb9552fd415d5834529aa9",
    "sync_interval": "9cb94a50d2492ad6f67ca357ed5484beddd583ce40d53bb3ceb1189f3f7f8ba5",
    "ts_pow": "44ba0c331c40e666c4f9a8ec23f22f0a8477c9a4f028c4fe6874cacd038df82e",
    "uniform_random": "91eca7c72e1dcfb99fd944f5fa1152ef0d525b3ad7440b292a2813cf9ad3fc1d",
}


def _workload_id(workload):
    """The workload's name, marked ``+paged`` when paging is on for this
    instance only."""
    if workload.paged and not type(workload).paged:
        return workload.name + "+paged"
    return workload.name


def _materialise(workload, threads=16, dimms=4):
    return [list(f()) for f in workload.thread_factories(threads, dimms)]


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=_workload_id)
def test_ops_are_well_formed(workload):
    streams = _materialise(workload)
    assert len(streams) == 16
    for stream in streams:
        assert stream, f"{workload.name}: empty thread"
        for op in stream:
            assert isinstance(op, VALID_OPS)
            if isinstance(op, (Read, Write)):
                assert 0 <= op.dimm < 4
                assert op.nbytes > 0
                assert op.offset >= 0
            if isinstance(op, Compute):
                assert op.cycles >= 0
            if isinstance(op, Broadcast):
                assert op.nbytes > 0


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=_workload_id)
def test_barrier_counts_equal_across_threads(workload):
    """Barriers are global: every thread must hit the same number or the
    kernel deadlocks."""
    streams = _materialise(workload)
    counts = {sum(isinstance(op, Barrier) for op in stream) for stream in streams}
    assert len(counts) == 1


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=_workload_id)
def test_factories_are_reinvocable_and_deterministic(workload):
    factories = workload.thread_factories(16, 4)
    first = [list(factory()) for factory in factories]
    # every call of a factory starts a fresh stream ...
    assert [list(factory()) for factory in factories] == first
    assert _materialise(workload) == first
    # ... that shares nothing with another live stream of the same factory
    for factory, stream in zip(factories, first):
        lockstep = list(itertools.zip_longest(factory(), factory()))
        assert lockstep == [(op, op) for op in stream]


@pytest.mark.parametrize("case", sorted(OP_STREAM_PINS))
def test_op_streams_equal_their_pins(case):
    name, _, paged = case.partition("+")
    threads = 16
    if name == "bulk_transfer":
        workload, threads = BulkTransfer(total_bytes=1 << 16, chunk_bytes=1024), 1
    elif name == "sync_interval":
        workload = SyncInterval()
    else:
        workload = build_workload(name, "tiny", paged=bool(paged))
    streams = _materialise(workload, threads=threads)
    assert hashlib.sha256(repr(streams).encode()).hexdigest() == OP_STREAM_PINS[case]


@pytest.mark.parametrize(
    "call",
    [
        lambda: Hotspot(rows=4).thread_factories(8, 4),
        lambda: PageRank(scale=3).thread_factories(16, 4),
    ],
    ids=["hotspot_more_threads_than_rows", "pagerank_more_threads_than_vertices"],
)
def test_unservable_shapes_fail_at_the_call(call):
    """A shape the workload cannot serve raises from ``thread_factories``
    itself, before any stream is started."""
    with pytest.raises(WorkloadError):
        call()


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=_workload_id)
def test_total_bytes_positive(workload):
    streams = _materialise(workload)
    total = sum(
        op.nbytes
        for stream in streams
        for op in stream
        if isinstance(op, (Read, Write, Broadcast))
    )
    assert total > 0


def test_graph_kernels_emit_local_and_remote_traffic():
    workload = PageRank(scale=9, iterations=1)
    streams = _materialise(workload, threads=16, dimms=4)
    local = remote = 0
    # thread 0's home is dimm 0 (block-major layout)
    for op in streams[0]:
        if isinstance(op, (Read, Write)):
            if op.dimm == 0:
                local += op.nbytes
            else:
                remote += op.nbytes
    assert local > remote > 0


def test_byte_scale_multiplies_traffic():
    small = PageRank(scale=8, iterations=1, byte_scale=1)
    big = PageRank(scale=8, iterations=1, byte_scale=4)

    def total(workload):
        return sum(
            op.nbytes
            for stream in _materialise(workload)
            for op in stream
            if isinstance(op, (Read, Write))
        )

    ratio = total(big) / total(small)
    assert 3.5 < ratio < 4.5


def test_hotspot_halo_targets_adjacent_strips():
    workload = Hotspot(rows=64, cols=64, iterations=1)
    streams = _materialise(workload, threads=16, dimms=4)
    # middle thread reads only from its own and adjacent strips' DIMMs
    targets = {op.dimm for op in streams[8] if isinstance(op, Read)}
    assert targets <= {1, 2, 3}


def test_nw_wavefront_limits_parallelism():
    workload = NeedlemanWunsch(sequence_length=512, block=128)  # 4x4 blocks
    streams = _materialise(workload, threads=4, dimms=4)
    barriers = sum(isinstance(op, Barrier) for op in streams[0])
    assert barriers == 2 * 4 - 1  # one per anti-diagonal


def test_kmeans_reduces_to_single_dimm_and_broadcasts():
    workload = KMeans(points=2048, iterations=1)
    streams = _materialise(workload, threads=8, dimms=4)
    # only thread 0 broadcasts the reduced centroids
    broadcasters = [
        i for i, s in enumerate(streams) if any(isinstance(op, Broadcast) for op in s)
    ]
    assert broadcasters == [0]


def test_bulk_transfer_validation():
    with pytest.raises(WorkloadError):
        BulkTransfer(total_bytes=0, chunk_bytes=64)
    with pytest.raises(WorkloadError):
        BulkTransfer(total_bytes=64, chunk_bytes=64).thread_factories(2, 4)
    with pytest.raises(WorkloadError):
        BulkTransfer(64, 64, src_dimm=0, dst_dimm=9).thread_factories(1, 4)


def test_uniform_random_remote_fraction_zero_is_all_local():
    workload = UniformRandom(ops_per_thread=50, remote_fraction=0.0, seed=1)
    streams = _materialise(workload)
    for thread_id, stream in enumerate(streams):
        home = min(thread_id // 4, 3)
        for op in stream:
            if isinstance(op, (Read, Write)):
                assert op.dimm == home


def test_nw_rejects_unaligned_block():
    with pytest.raises(WorkloadError):
        NeedlemanWunsch(sequence_length=1000, block=128)
