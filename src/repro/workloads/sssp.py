"""Single-Source Shortest Path (Bellman-Ford rounds, Table IV).

Push-style relaxation: per round each thread streams its block's edges
locally, reads neighbor distances from their owners, and pushes improved
distances back as remote writes.  The improving fraction decays
geometrically over rounds, so traffic front-loads like real SSSP.
``SSSPBC`` broadcasts each block's distance updates instead (Fig. 12).
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import EDGE_BYTES, STATE_BYTES, GraphKernel
from repro.workloads.ops import Barrier, Broadcast, Compute

CYCLES_PER_EDGE = 2
CYCLES_PER_VERTEX = 6
#: fraction of relaxations that improve a distance in round 0, decaying.
IMPROVE_BASE = 0.5
IMPROVE_DECAY = 0.65


class SSSP(GraphKernel):
    """Bellman-Ford-style SSSP."""

    name = "sssp"

    def __init__(self, rounds: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rounds = rounds

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        vertices, edges, edges_to_dimm, home = self.block(layout, thread_id)
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for round_index in range(self.rounds):
            if pager is not None:
                pager.rewind()
            improve = IMPROVE_BASE * (IMPROVE_DECAY ** round_index)
            yield Compute(CYCLES_PER_EDGE * edges + CYCLES_PER_VERTEX * vertices)
            yield from batched_reads(
                {home: edges * EDGE_BYTES}, cursor, chunk=4096, pager=pager
            )
            # read current neighbor distances
            yield from batched_reads(
                self.spread_bytes(edges_to_dimm), cursor, pager=pager
            )
            # push improved distances to the owners
            yield from batched_writes(
                self.spread_bytes(edges_to_dimm, scale=improve), cursor, pager=pager
            )
            yield Barrier()


class SSSPBC(GraphKernel):
    """Broadcast-formulated SSSP (Fig. 12)."""

    name = "sssp_bc"

    def __init__(self, rounds: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rounds = rounds

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        vertices, edges, _edges_to_dimm, home = self.block(layout, thread_id)
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for round_index in range(self.rounds):
            if pager is not None:
                pager.rewind()
            improve = IMPROVE_BASE * (IMPROVE_DECAY ** round_index)
            updated = max(64, int(vertices * STATE_BYTES * improve))
            yield Broadcast(offset=cursor.take(updated), nbytes=updated)
            yield Barrier()
            yield from batched_reads(
                {home: edges * EDGE_BYTES}, cursor, chunk=4096, pager=pager
            )
            yield Compute(CYCLES_PER_EDGE * edges + CYCLES_PER_VERTEX * vertices)
            yield Barrier()
