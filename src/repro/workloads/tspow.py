"""TS.Pow: synchronization-rich time-series kernel (Fig. 14-(b)).

Follows SynCron's representative workload: threads scan chunks of a long
time series (local streaming + compute) and update a shared global profile
after every chunk, which requires a small remote read-modify-write to the
profile owner plus a global barrier.  The barrier-per-chunk cadence makes
end-to-end performance track synchronization cost.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads
from repro.workloads.graphkernels import data_dimm
from repro.workloads.ops import Barrier, Compute, Read, Write

SAMPLE_BYTES = 8
CYCLES_PER_SAMPLE = 10
PROFILE_ENTRY_BYTES = 64


class TSPow(Workload):
    """Chunked time-series scan with per-chunk global profile updates."""

    name = "ts_pow"

    def __init__(
        self, samples_per_thread: int = 16384, chunks: int = 12
    ) -> None:
        if samples_per_thread <= 0 or chunks <= 0:
            raise WorkloadError("ts_pow parameters must be positive")
        self.samples_per_thread = samples_per_thread
        self.chunks = chunks

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        chunk_samples = self.samples_per_thread // self.chunks
        profile_dimm = data_dimm(0, num_threads, num_dimms)
        home = data_dimm(thread_id, num_threads, num_dimms)
        cursor = OffsetCursor(thread_id)
        for _chunk in range(self.chunks):
            yield from batched_reads(
                {home: chunk_samples * SAMPLE_BYTES}, cursor, chunk=8192
            )
            yield Compute(CYCLES_PER_SAMPLE * chunk_samples)
            # read-modify-write the shared profile entry
            profile_offset = cursor.take(PROFILE_ENTRY_BYTES)
            yield Read(
                dimm=profile_dimm, offset=profile_offset, nbytes=PROFILE_ENTRY_BYTES
            )
            yield Write(
                dimm=profile_dimm, offset=profile_offset, nbytes=PROFILE_ENTRY_BYTES
            )
            yield Barrier()
