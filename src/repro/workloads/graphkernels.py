"""Shared machinery for graph kernels (BFS, SSSP, PageRank, SpMV).

Vertices are block-partitioned into one block per thread; block ``b``'s
data (adjacency slice, per-vertex state) physically lives on DIMM
``b * num_dimms // num_threads`` — a fixed layout.  Threads *process* their
own block wherever they are placed, so a thread's traffic profile is:
stream its block's CSR slice from the block's DIMM, then gather neighbor
state from the owning DIMMs of its neighbors.  The per-(block, DIMM) edge
histogram drives batched traffic volumes; the graph's community structure
is what gives distance-aware mapping something to optimise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.graph import (
    Graph,
    bisection_refine,
    cross_partition_edges,
    grouped_edge_balanced_bounds,
    shared_rmat,
    shared_streamed_rmat,
)

#: bytes per unit of per-vertex state (rank, distance, level).
STATE_BYTES = 8
#: bytes per CSR edge entry streamed locally.
EDGE_BYTES = 8
#: remote gathers fetch each unique neighbor once per pass and keep the
#: hottest (power-law hub) vertices in the NMP cache, so gather bytes are
#: a fraction of raw edge counts — standard for NMP graph runtimes.
GATHER_DEDUP = 0.10


def data_dimm(block: int, num_blocks: int, num_dimms: int) -> int:
    """The fixed home DIMM of thread-block ``block`` (block-major layout,
    so a locality-aware runtime can co-locate thread and block)."""
    return block * num_dimms // num_blocks


class GraphKernel(Workload):
    """Base class: owns the graph and the per-block traffic histograms."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        scale: int = 11,
        edge_factor: int = 8,
        seed: int = 42,
        byte_scale: int = 1,
        streaming: bool = False,
    ) -> None:
        if byte_scale <= 0:
            raise WorkloadError("byte_scale must be positive")
        if streaming:
            # LiveJournal-scale mode: the edge list never exists in RAM;
            # layout statistics come from re-streaming the deterministic
            # generator (see StreamedRMAT).  Bisection refinement needs
            # the in-RAM CSR, so streamed graphs keep quadrant order —
            # R-MAT's recursive quadrants already encode the community
            # structure the refinement would recover.
            if graph is not None:
                raise WorkloadError("streaming mode generates its own graph")
            self.graph = None
            self._stream_args = (scale, edge_factor, seed)
        elif graph is None:
            # generated inputs are built once per process and shared
            # read-only (see shared_rmat)
            self.graph = shared_rmat(scale, edge_factor, seed)
        else:
            # partition the input before distributing it (the METIS step the
            # paper's LiveJournal runs imply): minimise group-crossing edges
            self.graph = bisection_refine(graph)
        #: traffic multiplier: the kernel moves the byte volumes of a graph
        #: ``byte_scale`` x larger, using this graph's edge *distribution*.
        #: Bridges the gap between simulable graph sizes and the paper's
        #: LiveJournal-scale traffic (see DESIGN.md substitutions).
        self.byte_scale = byte_scale
        self._cache: Dict[tuple, dict] = {}

    def _graph_stats(self):
        """The in-RAM Graph, or the streamed degree/partition statistics."""
        if self.graph is not None:
            return self.graph
        return shared_streamed_rmat(*self._stream_args)

    def shape(self, num_threads: int, num_dimms: int) -> dict:
        """The call's block layout (see :meth:`_layout`)."""
        return self._layout(num_threads, num_dimms)

    @staticmethod
    def block(layout: dict, t: int) -> Tuple[int, int, np.ndarray, int]:
        """Block ``t``'s vertex count, edge count, per-DIMM edge row and
        home DIMM."""
        return (
            int(layout["block_vertices"][t]),
            int(layout["block_edges"][t]),
            layout["edges_to_dimm"][t],
            int(layout["dimm_of_block"][t]),
        )

    def _layout(self, num_threads: int, num_dimms: int) -> dict:
        """Per-(block, dimm) edge counts and per-block sizes (cached)."""
        key = (num_threads, num_dimms)
        layout = self._cache.get(key)
        if layout is not None:
            return layout
        graph = self._graph_stats()
        if num_threads > graph.num_vertices:
            raise WorkloadError(
                f"{self.name}: more threads ({num_threads}) than vertices"
            )
        bounds = grouped_edge_balanced_bounds(graph, num_threads)
        if self.graph is not None:
            block_matrix = cross_partition_edges(graph, num_threads, bounds)
        else:
            block_matrix = graph.cross_partition(np.asarray(bounds), num_threads)
        dimm_of_block = np.array(
            [data_dimm(b, num_threads, num_dimms) for b in range(num_threads)]
        )
        edges_to_dimm = np.zeros((num_threads, num_dimms), dtype=np.int64)
        for dimm in range(num_dimms):
            columns = np.flatnonzero(dimm_of_block == dimm)
            if len(columns):
                edges_to_dimm[:, dimm] = block_matrix[:, columns].sum(axis=1)
        block_vertices = np.diff(np.asarray(bounds))
        block_edges = block_matrix.sum(axis=1)
        layout = {
            "edges_to_dimm": edges_to_dimm * self.byte_scale,
            "block_vertices": block_vertices * self.byte_scale,
            "block_edges": block_edges * self.byte_scale,
            "dimm_of_block": dimm_of_block,
            "bounds": np.asarray(bounds),
        }
        self._cache[key] = layout
        return layout

    def bfs_levels(self, source: int = 0) -> np.ndarray:
        """Level of every vertex reached from ``source`` (-1 if unreached)."""
        if self.graph is None:
            raise WorkloadError(
                f"{self.name}: exact BFS levels need the in-RAM graph; "
                "streaming layouts only carry degree statistics"
            )
        graph = self.graph
        levels = np.full(graph.num_vertices, -1, dtype=np.int64)
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while len(frontier):
            starts = graph.indptr[frontier]
            stops = graph.indptr[frontier + 1]
            neighbor_chunks = [
                graph.indices[a:b] for a, b in zip(starts, stops) if b > a
            ]
            if not neighbor_chunks:
                break
            neighbors = np.unique(np.concatenate(neighbor_chunks))
            fresh = neighbors[levels[neighbors] == -1]
            level += 1
            levels[fresh] = level
            frontier = fresh
        return levels

    @staticmethod
    def spread_bytes(
        edges_per_dimm: np.ndarray, scale: float = 1.0, dedup: float = GATHER_DEDUP
    ) -> Dict[int, int]:
        """Per-DIMM gather byte counts from an edge histogram row."""
        factor = STATE_BYTES * scale * dedup
        # truncates toward zero like int(); tolist() yields Python ints
        counts = (np.asarray(edges_per_dimm) * factor).astype(np.int64).tolist()
        return {d: count for d, count in enumerate(counts) if count > 0}


def natural_homes(num_threads: int, num_dimms: int) -> List[int]:
    """The fixed data-home DIMM of every thread's block."""
    return [data_dimm(t, num_threads, num_dimms) for t in range(num_threads)]
