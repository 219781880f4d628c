"""PageRank (pull-based iterations, Table IV) and its broadcast variant.

Per iteration every thread streams its block's CSR slice locally, gathers
the ranks of its neighbors from their owning DIMMs, writes its block's new
ranks locally, and synchronises.  ``PageRankBC`` is the ABC-DIMM-style
broadcast formulation used in Fig. 12: instead of fine-grained gathers,
each thread broadcasts its rank block to all DIMMs once per iteration and
then computes entirely locally.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import EDGE_BYTES, STATE_BYTES, GraphKernel
from repro.workloads.ops import Barrier, Broadcast, Compute

#: core cycles per edge relaxed / per vertex updated.
CYCLES_PER_EDGE = 2
CYCLES_PER_VERTEX = 6


class PageRank(GraphKernel):
    """Pull-based PageRank iterations."""

    name = "pagerank"

    def __init__(self, iterations: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.iterations = iterations

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        vertices, edges, edges_to_dimm, home = self.block(layout, thread_id)
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for _iteration in range(self.iterations):
            if pager is not None:
                pager.rewind()
            yield Compute(CYCLES_PER_EDGE * edges + CYCLES_PER_VERTEX * vertices)
            # stream the CSR slice from the home DIMM
            yield from batched_reads(
                {home: edges * EDGE_BYTES}, cursor, chunk=4096, pager=pager
            )
            # gather neighbor ranks from their owners
            yield from batched_reads(
                self.spread_bytes(edges_to_dimm), cursor, pager=pager
            )
            # write the block's new ranks
            yield from batched_writes(
                {home: vertices * STATE_BYTES}, cursor, pager=pager
            )
            yield Barrier()


class PageRankBC(GraphKernel):
    """Broadcast-formulated PageRank (Fig. 12)."""

    name = "pagerank_bc"

    def __init__(self, iterations: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.iterations = iterations

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        vertices, edges, _edges_to_dimm, home = self.block(layout, thread_id)
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for _iteration in range(self.iterations):
            if pager is not None:
                pager.rewind()
            # publish this block's ranks to every DIMM
            yield Broadcast(
                offset=cursor.take(vertices * STATE_BYTES),
                nbytes=vertices * STATE_BYTES,
            )
            yield Barrier()
            # all neighbor ranks are now local: stream and relax
            yield from batched_reads(
                {home: edges * (EDGE_BYTES + STATE_BYTES)},
                cursor,
                chunk=4096,
                pager=pager,
            )
            yield Compute(CYCLES_PER_EDGE * edges + CYCLES_PER_VERTEX * vertices)
            yield from batched_writes(
                {home: vertices * STATE_BYTES}, cursor, pager=pager
            )
            yield Barrier()
