"""Needleman-Wunsch sequence alignment (wavefront, Table IV).

The DP matrix is tiled into ``grid x grid`` blocks; block-rows are
round-robin assigned to threads.  Blocks on the same anti-diagonal run in
parallel: a thread computing block (i, j) streams the block locally and
reads the boundary row of block (i-1, j) from the thread above.  The
wavefront ramp-up/down limits parallelism, which is why NW peaks at small
DIMM counts in Fig. 10.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import data_dimm
from repro.workloads.ops import Barrier, Compute

CELL_BYTES = 4
CYCLES_PER_CELL = 3


class NeedlemanWunsch(Workload):
    """Blocked wavefront dynamic programming."""

    name = "nw"

    def __init__(self, sequence_length: int = 4096, block: int = 128) -> None:
        if sequence_length <= 0 or block <= 0:
            raise WorkloadError("nw sizes must be positive")
        if sequence_length % block:
            raise WorkloadError("sequence_length must be a multiple of block")
        self.sequence_length = sequence_length
        self.block = block

    @property
    def grid(self) -> int:
        """Blocks per matrix dimension."""
        return self.sequence_length // self.block

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        grid = self.grid
        boundary_bytes = self.block * CELL_BYTES
        block_cells = self.block * self.block
        home = data_dimm(thread_id, num_threads, num_dimms)
        cursor = OffsetCursor(thread_id)
        for diagonal in range(2 * grid - 1):
            # this thread's block-rows i with block (i, diagonal - i) active
            for i in range(max(0, diagonal - grid + 1), min(grid, diagonal + 1)):
                if i % num_threads != thread_id:
                    continue
                if i > 0:
                    upper = data_dimm((i - 1) % num_threads, num_threads, num_dimms)
                    yield from batched_reads({upper: boundary_bytes}, cursor)
                # stream the block's cells + left boundary
                yield from batched_reads(
                    {home: block_cells * CELL_BYTES}, cursor, chunk=8192
                )
                yield Compute(CYCLES_PER_CELL * block_cells)
                yield from batched_writes(
                    {home: block_cells * CELL_BYTES}, cursor, chunk=8192
                )
            yield Barrier()
