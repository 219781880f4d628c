"""Synthetic microbenchmarks.

These drive the paper's non-application measurements:

* :class:`BulkTransfer` — Fig. 1's IDC bandwidth sweep (one thread moving
  a block between two DIMMs at a given request size),
* :class:`UniformRandom` — a tunable local/remote access mix used by unit
  and integration tests,
* :class:`SyncInterval` — Fig. 14-(a)'s synchronization-frequency sweep
  (compute for N instructions, then barrier, repeated).
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.ops import Barrier, Compute, Read, Write


class BulkTransfer(Workload):
    """One thread copies ``total_bytes`` from ``dst_dimm`` in ``chunk_bytes``
    requests (a memcpy-style pull, like Fig. 1's transfer-size sweep)."""

    name = "bulk_transfer"

    def __init__(
        self,
        total_bytes: int,
        chunk_bytes: int,
        src_dimm: int = 0,
        dst_dimm: int = 1,
    ) -> None:
        if total_bytes <= 0 or chunk_bytes <= 0:
            raise WorkloadError("bulk transfer sizes must be positive")
        self.total_bytes = total_bytes
        self.chunk_bytes = chunk_bytes
        self.src_dimm = src_dimm
        self.dst_dimm = dst_dimm

    def shape(self, num_threads: int, num_dimms: int) -> Tuple[int, int]:
        if num_threads != 1:
            raise WorkloadError(f"{self.name} is single-threaded")
        if max(self.src_dimm, self.dst_dimm) >= num_dimms:
            raise WorkloadError(f"{self.name}: DIMM ids exceed system size")
        return super().shape(num_threads, num_dimms)

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        moved = 0
        offset = 0
        while moved < self.total_bytes:
            size = min(self.chunk_bytes, self.total_bytes - moved)
            yield Read(dimm=self.dst_dimm, offset=offset, nbytes=size)
            moved += size
            offset += size


class UniformRandom(Workload):
    """Each thread issues a random mix of local/remote reads and writes."""

    name = "uniform_random"

    def __init__(
        self,
        ops_per_thread: int = 200,
        remote_fraction: float = 0.3,
        write_fraction: float = 0.3,
        nbytes: int = 64,
        compute_cycles: int = 50,
        seed: int = 1,
    ) -> None:
        if not 0.0 <= remote_fraction <= 1.0:
            raise WorkloadError("remote_fraction outside [0, 1]")
        if not 0.0 <= write_fraction <= 1.0:
            raise WorkloadError("write_fraction outside [0, 1]")
        self.ops_per_thread = ops_per_thread
        self.remote_fraction = remote_fraction
        self.write_fraction = write_fraction
        self.nbytes = nbytes
        self.compute_cycles = compute_cycles
        self.seed = seed

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        home = min(thread_id // max(1, num_threads // num_dimms), num_dimms - 1)
        rng = random.Random(self.seed * 7919 + thread_id)
        for _op_index in range(self.ops_per_thread):
            yield Compute(self.compute_cycles)
            if num_dimms > 1 and rng.random() < self.remote_fraction:
                target = rng.randrange(num_dimms - 1)
                if target >= home:
                    target += 1
            else:
                target = home
            offset = rng.randrange(1 << 20) * 64
            if rng.random() < self.write_fraction:
                yield Write(dimm=target, offset=offset, nbytes=self.nbytes)
            else:
                yield Read(dimm=target, offset=offset, nbytes=self.nbytes)


class SyncInterval(Workload):
    """Compute ``interval_instructions``, barrier, repeat (Fig. 14-(a))."""

    name = "sync_interval"

    def __init__(
        self,
        interval_instructions: int = 500,
        barriers: int = 20,
        local_reads_per_interval: int = 4,
        nbytes: int = 64,
    ) -> None:
        if interval_instructions <= 0 or barriers <= 0:
            raise WorkloadError("sync interval parameters must be positive")
        self.interval_instructions = interval_instructions
        self.barriers = barriers
        self.local_reads_per_interval = local_reads_per_interval
        self.nbytes = nbytes

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        home = min(thread_id // max(1, num_threads // num_dimms), num_dimms - 1)
        for round_index in range(self.barriers):
            yield Compute(self.interval_instructions)
            for read_index in range(self.local_reads_per_interval):
                offset = (thread_id * 8191 + round_index * 131 + read_index) * 64
                yield Read(dimm=home, offset=offset, nbytes=self.nbytes)
            yield Barrier()
