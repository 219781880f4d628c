#!/usr/bin/env python3
"""Extending the library: a custom workload, topology, and task mapping.

Implements a halo-exchange "ocean current" stencil as a user-defined
:class:`~repro.workloads.base.Workload`, runs it on a torus-topology
DIMM-Link system, and shows the full distance-aware mapping flow on a
deliberately scrambled initial placement.

Run:  python examples/custom_workload.py
"""

from typing import Iterator, Tuple

from repro import (
    NMPSystem,
    SystemConfig,
    distance_aware_placement,
    profile_traffic,
    threads_for,
)
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads, batched_writes
from repro.workloads.ops import Barrier, Compute


class OceanCurrents(Workload):
    """A 9-point stencil with two-deep halos over a ring of ocean tiles.

    Tile t's data lives on DIMM ``t % num_dimms`` (interleaved layout!),
    so a runtime that places threads sequentially gets poor locality —
    exactly the situation distance-aware mapping repairs.
    """

    name = "ocean_currents"

    def __init__(self, tile_cells: int = 8192, iterations: int = 6) -> None:
        self.tile_cells = tile_cells
        self.iterations = iterations

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        home = thread_id % num_dimms  # interleaved data layout
        left = (thread_id - 1) % num_threads % num_dimms
        right = (thread_id + 1) % num_threads % num_dimms
        cursor = OffsetCursor(thread_id)
        cell_bytes = self.tile_cells * 8
        for _ in range(self.iterations):
            halo = {}
            for neighbor in (left, right):
                halo[neighbor] = halo.get(neighbor, 0) + 2 * 1024
            yield from batched_reads(halo, cursor)
            yield from batched_reads({home: cell_bytes}, cursor, chunk=8192)
            yield Compute(6 * self.tile_cells)
            yield from batched_writes({home: cell_bytes}, cursor, chunk=8192)
            yield Barrier()


def main() -> None:
    config = SystemConfig.named("16D-8C", topology="torus")
    workload = OceanCurrents()
    threads = threads_for(config)

    # a mapping-oblivious runtime: threads fill DIMMs sequentially,
    # but the tiles are interleaved across DIMMs
    naive = [t // config.nmp.cores_per_dimm for t in range(threads)]
    system = NMPSystem(SystemConfig.named("16D-8C", topology="torus"), idc="dimm_link")
    naive_run = system.run(
        workload.thread_factories(threads, config.num_dimms), placement=naive
    )

    # the paper's flow: profile traffic, solve Algorithm 1, migrate
    traffic = profile_traffic(
        workload.thread_factories(threads, config.num_dimms), config.num_dimms
    )
    optimized = distance_aware_placement(traffic, config)
    system = NMPSystem(SystemConfig.named("16D-8C", topology="torus"), idc="dimm_link")
    optimized_run = system.run(
        workload.thread_factories(threads, config.num_dimms), placement=optimized
    )

    print(f"custom workload {workload.name!r} on a torus-topology DL group")
    print(f"  naive placement:     {naive_run.time_us:8.1f} us "
          f"(host-fwd share {naive_run.forwarded_fraction:.0%})")
    print(f"  Algorithm 1 mapping: {optimized_run.time_us:8.1f} us "
          f"(host-fwd share {optimized_run.forwarded_fraction:.0%})")
    print(f"  speedup from distance-aware mapping: "
          f"{naive_run.time_ps / optimized_run.time_ps:.2f}x")


if __name__ == "__main__":
    main()
