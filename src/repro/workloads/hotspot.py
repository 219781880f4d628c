"""Hotspot (2D thermal stencil, Table IV).

The grid is row-strip-partitioned across threads; each iteration a thread
streams its strip (temperature + power) from its home DIMM, exchanges halo
rows with the threads owning the strips above and below, computes the
stencil, writes the strip back, and synchronises.  Halo partners are
adjacent blocks, so the traffic is nearest-neighbor — the pattern
DIMM-Link's chain topology serves best.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import data_dimm
from repro.workloads.ops import Barrier, Compute

CELL_BYTES = 8
CYCLES_PER_CELL = 4


class Hotspot(Workload):
    """Iterative 5-point stencil over an ``rows x cols`` grid."""

    name = "hotspot"

    def __init__(self, rows: int = 512, cols: int = 512, iterations: int = 6) -> None:
        if rows <= 0 or cols <= 0 or iterations <= 0:
            raise WorkloadError("hotspot dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.iterations = iterations

    def shape(self, num_threads: int, num_dimms: int) -> Tuple[int, int]:
        if num_threads > self.rows:
            raise WorkloadError("more threads than grid rows")
        return super().shape(num_threads, num_dimms)

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        row_bytes = self.cols * CELL_BYTES
        cells = self.rows // num_threads * self.cols
        home = data_dimm(thread_id, num_threads, num_dimms)
        # halo rows from the strips above and below
        halo = {}
        for neighbor in (thread_id - 1, thread_id + 1):
            if 0 <= neighbor < num_threads:
                dimm = data_dimm(neighbor, num_threads, num_dimms)
                halo[dimm] = halo.get(dimm, 0) + row_bytes
        cursor = OffsetCursor(thread_id)
        pager = self.pager_for(thread_id)
        for _iteration in range(self.iterations):
            if pager is not None:
                pager.rewind()
            if halo:
                yield from batched_reads(halo, cursor, chunk=4096, pager=pager)
            # stream temperature + power of the strip
            yield from batched_reads(
                {home: 2 * cells * CELL_BYTES}, cursor, chunk=8192, pager=pager
            )
            yield Compute(CYCLES_PER_CELL * cells)
            yield from batched_writes(
                {home: cells * CELL_BYTES}, cursor, chunk=8192, pager=pager
            )
            yield Barrier()
