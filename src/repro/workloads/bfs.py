"""Breadth-First Search (level-synchronous, Table IV).

Per level, each thread scans the frontier vertices of its block: the CSR
slice streams from the block's home DIMM, neighbor level-checks gather
from the neighbors' owning DIMMs (scaled by the level's frontier share),
and newly discovered vertices are written locally.  A global barrier ends
every level.  BFS's shrinking/growing frontiers and irregular gathers are
why it is broadcast-unfriendly (Sec. II-B) and IDC-latency-sensitive.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import EDGE_BYTES, STATE_BYTES, GraphKernel
from repro.workloads.ops import Barrier, Compute

#: core cycles per edge scanned / per frontier vertex processed.
CYCLES_PER_EDGE = 2
CYCLES_PER_VERTEX = 8


class BFS(GraphKernel):
    """Level-synchronous breadth-first search."""

    name = "bfs"

    def __init__(self, source: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.source = source
        self._levels = self.bfs_levels(source)

    def shape(self, num_threads: int, num_dimms: int) -> dict:
        """The block layout plus the per-(level, block) frontier sizes."""
        layout = super().shape(num_threads, num_dimms)
        bounds = layout["bounds"]
        levels = self._levels
        max_level = int(levels.max())
        frontier = np.zeros((max_level + 1, num_threads), dtype=np.int64)
        for block in range(num_threads):
            block_levels = levels[bounds[block] : bounds[block + 1]]
            reached = block_levels[block_levels >= 0]
            if len(reached):
                frontier[:, block] = np.bincount(reached, minlength=max_level + 1)
        frontier *= self.byte_scale  # same distribution, full-size volumes
        return {**layout, "frontier": frontier}

    def thread_ops(self, layout: dict, thread_id: int) -> Iterator:
        vertices, edges, edges_to_dimm, home = self.block(layout, thread_id)
        frontier = layout["frontier"][:, thread_id]
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for level in range(len(frontier) - 1):
            if pager is not None:
                pager.rewind()
            active = int(frontier[level])
            share = active / vertices if vertices else 0.0
            edges_scanned = int(edges * share)
            yield Compute(CYCLES_PER_EDGE * edges_scanned + CYCLES_PER_VERTEX * active)
            if edges_scanned:
                # stream this level's CSR slice from the home DIMM
                yield from batched_reads(
                    {home: edges_scanned * EDGE_BYTES}, cursor, chunk=4096, pager=pager
                )
                # gather neighbor levels from their owners
                yield from batched_reads(
                    self.spread_bytes(edges_to_dimm, scale=share), cursor, pager=pager
                )
            discovered = int(frontier[level + 1])
            if discovered:
                yield from batched_writes(
                    {home: discovered * STATE_BYTES}, cursor, pager=pager
                )
            yield Barrier()
