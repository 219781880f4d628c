"""Sparse matrix-vector multiplication (broadcast-dominant, Fig. 12).

``y = A x`` with the sparse matrix row-blocked across threads (the graph's
adjacency serves as A).  The broadcast formulation follows ABC-DIMM: each
iteration the x-vector's blocks are broadcast to every DIMM, after which
the multiply is fully local.  The P2P formulation gathers x entries from
their owners instead.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import EDGE_BYTES, STATE_BYTES, GraphKernel
from repro.workloads.ops import Barrier, Broadcast, Compute

CYCLES_PER_NONZERO = 2
CYCLES_PER_ROW = 8


class SpMV(GraphKernel):
    """Gather-based SpMV iterations."""

    name = "spmv"

    def __init__(self, iterations: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        self.iterations = iterations

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        rows, nonzeros, edges_to_dimm, home = self.block(layout, thread_id)
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for _iteration in range(self.iterations):
            if pager is not None:
                pager.rewind()
            yield from batched_reads(
                {home: nonzeros * EDGE_BYTES}, cursor, chunk=4096, pager=pager
            )
            yield from batched_reads(
                self.spread_bytes(edges_to_dimm), cursor, pager=pager
            )
            yield Compute(CYCLES_PER_NONZERO * nonzeros + CYCLES_PER_ROW * rows)
            yield from batched_writes({home: rows * STATE_BYTES}, cursor, pager=pager)
            yield Barrier()


class SpMVBC(GraphKernel):
    """Broadcast-formulated SpMV (Fig. 12)."""

    name = "spmv_bc"

    def __init__(self, iterations: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        self.iterations = iterations

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        rows, nonzeros, _edges_to_dimm, home = self.block(layout, thread_id)
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for _iteration in range(self.iterations):
            if pager is not None:
                pager.rewind()
            # publish this block of x to every DIMM
            yield Broadcast(
                offset=cursor.take(rows * STATE_BYTES), nbytes=rows * STATE_BYTES
            )
            yield Barrier()
            yield from batched_reads(
                {home: nonzeros * (EDGE_BYTES + STATE_BYTES)},
                cursor,
                chunk=4096,
                pager=pager,
            )
            yield Compute(CYCLES_PER_NONZERO * nonzeros + CYCLES_PER_ROW * rows)
            yield from batched_writes({home: rows * STATE_BYTES}, cursor, pager=pager)
            yield Barrier()
