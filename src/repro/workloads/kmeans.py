"""K-Means clustering (Table IV).

Points are block-partitioned across threads.  Each iteration a thread
streams its points from its home DIMM, assigns them to the nearest
centroid (compute-heavy), pushes a small partial-centroid table to the
reduction DIMM, and waits at a barrier while thread 0 reduces and
re-publishes the centroids (a broadcast).  K-Means is the paper's example
of a broadcast-*unfriendly* application with strong scaling under
DIMM-Link (Sec. V-C).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.graphkernels import data_dimm
from repro.workloads.ops import Barrier, Broadcast, Compute, Write

POINT_BYTES = 8
CYCLES_PER_POINT_PER_CLUSTER = 2


class KMeans(Workload):
    """Lloyd iterations over block-partitioned points."""

    name = "kmeans"

    def __init__(
        self,
        points: int = 65536,
        dims: int = 16,
        clusters: int = 16,
        iterations: int = 5,
    ) -> None:
        if min(points, dims, clusters, iterations) <= 0:
            raise WorkloadError("kmeans parameters must be positive")
        self.points = points
        self.dims = dims
        self.clusters = clusters
        self.iterations = iterations

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        points_per_thread = self.points // num_threads
        point_bytes = self.dims * POINT_BYTES
        centroid_table = self.clusters * self.dims * POINT_BYTES
        reducer_dimm = data_dimm(0, num_threads, num_dimms)
        home = data_dimm(thread_id, num_threads, num_dimms)
        cursor = OffsetCursor(thread_id)
        for _iteration in range(self.iterations):
            # stream the thread's points
            yield from batched_reads(
                {home: points_per_thread * point_bytes}, cursor, chunk=8192
            )
            yield Compute(
                CYCLES_PER_POINT_PER_CLUSTER * points_per_thread * self.clusters
            )
            # write assignments locally
            yield from batched_writes({home: points_per_thread * POINT_BYTES}, cursor)
            # push the partial centroid table to the reducer
            yield Write(
                dimm=reducer_dimm,
                offset=cursor.take(centroid_table),
                nbytes=centroid_table,
            )
            yield Barrier()
            if thread_id == 0:
                # reduce partials and publish new centroids
                yield from batched_reads(
                    {reducer_dimm: centroid_table * num_threads}, cursor, chunk=4096
                )
                yield Compute(2 * num_threads * self.clusters * self.dims)
                yield Broadcast(
                    offset=cursor.take(centroid_table), nbytes=centroid_table
                )
            yield Barrier()
