"""Graph substrate: CSR graphs, R-MAT generation, partitioning.

The paper evaluates BFS/SSSP/PageRank on the LiveJournal graph.  We cannot
trace a 68M-edge graph in-process, so workloads run on scaled R-MAT
(Kronecker) graphs, which preserve the skewed power-law degree structure
that makes those kernels IDC-heavy (see DESIGN.md substitutions).
Generation is deterministic per seed, so :func:`shared_rmat` and
:func:`shared_streamed_rmat` build each generated input once per process
and hand every caller the same read-only object.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import WorkloadError

#: in-RAM generator cap: beyond this the edge list itself is the problem;
#: use :func:`rmat_stream` / :class:`StreamedRMAT` instead.
RMAT_MAX_SCALE = 24
#: streaming generator sanity cap (vertex ids stay well inside int64).
RMAT_STREAM_MAX_SCALE = 34
#: edges generated per streaming batch (bounds peak memory).
DEFAULT_STREAM_BATCH = 1 << 18
#: generated inputs kept per process, per kind (in-RAM graphs, streamed
#: graphs, streamed crossing matrices).  One figure grid uses one graph
#: per kind, so a small bound shares every rebuild without letting a
#: long sweep over seeds or scales pin them all.
GRAPH_MEMO_SIZE = 4


class Graph:
    """A directed graph in CSR form (numpy int32/int64 arrays)."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        if indptr.ndim != 1 or indices.ndim != 1:
            raise WorkloadError("CSR arrays must be one-dimensional")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise WorkloadError("invalid CSR indptr bounds")
        self.indptr = indptr
        self.indices = indices

    @property
    def num_vertices(self) -> int:
        """Vertex count."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Directed edge count."""
        return len(self.indices)

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def __repr__(self) -> str:
        return f"Graph(V={self.num_vertices}, E={self.num_edges})"


def from_edges(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    """Build a CSR graph from (deduplicated) edge arrays."""
    if len(src) != len(dst):
        raise WorkloadError("edge arrays differ in length")
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    # deduplicate parallel edges
    if len(src):
        keep = np.concatenate(([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])))
        src, dst = src[keep], dst[keep]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return Graph(indptr, dst.astype(np.int64))


def rmat(
    scale: int,
    edge_factor: int = 8,
    seed: int = 42,
    a: float = 0.65,
    b: float = 0.15,
    c: float = 0.15,
    undirected: bool = True,
    permute: bool = False,
) -> Graph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Defaults to a=0.65, b=c=0.15 (d=0.05): slightly more diagonal mass
    than Graph500's a=0.57, standing in for the community locality a
    METIS-class partitioner recovers from LiveJournal before placement.  Vertex
    ids are left in recursive-quadrant order by default, preserving the
    community structure a locality-aware graph partitioner would recover
    (block partitions then capture real locality, as the paper's LiveJournal
    partitioning does); ``permute=True`` scatters ids for worst-case
    locality studies.
    """
    if scale <= 0 or scale > RMAT_MAX_SCALE:
        raise WorkloadError(
            f"rmat scale {scale} outside (0, {RMAT_MAX_SCALE}] for the "
            "in-RAM generator; use rmat_stream / StreamedRMAT for larger graphs"
        )
    if edge_factor <= 0:
        raise WorkloadError("edge_factor must be positive")
    _validate_rmat_probs(a, b, c)
    n = 1 << scale
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src, dst = _rmat_quadrants(rng, m, scale, a, b, c)
    if permute:
        perm = rng.permutation(n)
        src, dst = perm[src], perm[dst]
    self_loops = src == dst
    src, dst = src[~self_loops], dst[~self_loops]
    if undirected:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    return from_edges(n, src, dst)


def _validate_rmat_probs(a: float, b: float, c: float) -> None:
    if 1.0 - a - b - c < 0:
        raise WorkloadError("rmat probabilities exceed 1")


def _rmat_quadrants(
    rng: np.random.Generator, count: int, scale: int, a: float, b: float, c: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` R-MAT edges (quadrant choice per Chakrabarti et al.).

    Consumes exactly ``scale`` draws of ``rng.random(count)`` — shared by
    the in-RAM and streaming generators so a single-batch stream emits
    the identical edge list as :func:`rmat`.
    """
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(count)
        src_bit = r >= (a + b)
        dst_bit = ((r >= a) & (r < a + b)) | (r >= (a + b + c))
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    return src, dst


def rmat_stream(
    scale: int,
    edge_factor: int = 8,
    seed: int = 42,
    a: float = 0.65,
    b: float = 0.15,
    c: float = 0.15,
    undirected: bool = True,
    batch_edges: int = DEFAULT_STREAM_BATCH,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Stream R-MAT edges in bounded batches, never materializing the list.

    Yields ``(src, dst)`` array pairs of at most ``2 * batch_edges``
    edges (undirected doubles each batch).  Deterministic for a given
    ``(seed, batch_edges)``; with ``batch_edges >= n * edge_factor`` the
    concatenated output equals :func:`rmat`'s pre-dedup edge list.
    Unlike the in-RAM path, parallel edges are *not* deduplicated —
    streamed degree counts are a (tight, power-law-preserving) upper
    bound on the CSR degrees.
    """
    if scale <= 0 or scale > RMAT_STREAM_MAX_SCALE:
        raise WorkloadError(
            f"rmat_stream scale {scale} outside (0, {RMAT_STREAM_MAX_SCALE}]"
        )
    if edge_factor <= 0:
        raise WorkloadError("edge_factor must be positive")
    if batch_edges <= 0:
        raise WorkloadError("batch_edges must be positive")
    _validate_rmat_probs(a, b, c)
    n = 1 << scale
    remaining = n * edge_factor
    rng = np.random.default_rng(seed)
    while remaining > 0:
        count = min(batch_edges, remaining)
        remaining -= count
        src, dst = _rmat_quadrants(rng, count, scale, a, b, c)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if undirected:
            src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        if len(src):
            yield src, dst
        # release this batch before drawing the next, so that one batch,
        # not two, is alive at a time: the bound ``batch_edges`` sets
        del src, dst


class StreamedRMAT:
    """Degree/partition statistics of an R-MAT graph in O(V) memory.

    Exposes the subset of the :class:`Graph` surface the layout pipeline
    needs (``num_vertices``, ``num_edges``, ``indptr``) by re-streaming
    the deterministic edge generator: one pass accumulates out-degrees
    (so ``edge_balanced_bounds`` / ``grouped_edge_balanced_bounds`` work
    unchanged), and :meth:`cross_partition` makes a second pass to build
    the block-crossing matrix.  The edge list itself never exists in
    RAM — peak footprint is a few ``batch_edges``-long scratch arrays
    plus the V-long degree array, which is what lets ``--size large``
    reach millions of vertices.  Its arrays and crossing matrices are
    read-only, so one instance can serve every spec of a process
    (:func:`shared_streamed_rmat`).
    """

    def __init__(
        self,
        scale: int,
        edge_factor: int = 8,
        seed: int = 42,
        a: float = 0.65,
        b: float = 0.15,
        c: float = 0.15,
        undirected: bool = True,
        batch_edges: int = DEFAULT_STREAM_BATCH,
    ) -> None:
        self.scale = scale
        self.edge_factor = edge_factor
        self.seed = seed
        self.a, self.b, self.c = a, b, c
        self.undirected = undirected
        self.batch_edges = batch_edges
        self.num_vertices = 1 << scale
        degrees = np.zeros(self.num_vertices, dtype=np.int64)
        for src, _dst in rmat_stream(*self._stream_args()):
            degrees += np.bincount(src, minlength=self.num_vertices)
            del src, _dst  # free the batch before the stream draws the next
        self.degrees = degrees
        self.num_edges = int(degrees.sum())
        self.indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        self.degrees.flags.writeable = self.indptr.flags.writeable = False

    def _stream_args(self) -> tuple:
        """Every argument that determines the edge stream."""
        return (
            self.scale,
            self.edge_factor,
            self.seed,
            self.a,
            self.b,
            self.c,
            self.undirected,
            self.batch_edges,
        )

    def cross_partition(self, bounds: np.ndarray, parts: "int | None" = None) -> np.ndarray:
        """``parts x parts`` edge-crossing matrix for block ``bounds``.

        Read-only and memoized per process for each ``(stream, bounds,
        parts)``: one stream pass per distinct partition of a graph.
        """
        bounds = np.asarray(bounds)
        if parts is None:
            parts = len(bounds) - 1
        return _stream_crossings(self._stream_args(), tuple(bounds.tolist()), parts)

    def __repr__(self) -> str:
        return (
            f"StreamedRMAT(V={self.num_vertices}, E={self.num_edges}, "
            f"scale={self.scale})"
        )


@functools.lru_cache(maxsize=GRAPH_MEMO_SIZE)
def _stream_crossings(
    stream_args: tuple, bounds: Tuple[int, ...], parts: int
) -> np.ndarray:
    """Count the edges of ``rmat_stream(*stream_args)`` between blocks."""
    cuts = np.asarray(bounds)
    matrix = np.zeros((parts, parts), dtype=np.int64)
    for src, dst in rmat_stream(*stream_args):
        src_part = np.clip(np.searchsorted(cuts, src, side="right") - 1, 0, parts - 1)
        dst_part = np.clip(np.searchsorted(cuts, dst, side="right") - 1, 0, parts - 1)
        np.add.at(matrix, (src_part, dst_part), 1)
        del src, dst, src_part, dst_part  # free the batch before the next draw
    matrix.flags.writeable = False
    return matrix


def bisection_refine(graph: Graph, rounds: int = 4) -> Graph:
    """Relabel vertices to reduce cross-half edges (Kernighan-Lin style).

    NMP graph frameworks partition their input (METIS-class tools) before
    distributing it over memory modules; this single-level refinement
    plays that role for the half/half split that determines which DL
    *group* owns a vertex.  Each round swaps equal numbers of vertices
    between halves, choosing the vertices whose cross-half degree most
    exceeds their same-half degree; balance is preserved exactly.
    """
    n = graph.num_vertices
    half = n // 2
    side = (np.arange(n) >= half).astype(np.int8)
    degrees = np.diff(graph.indptr).astype(np.int64)
    src = np.repeat(np.arange(n), degrees)
    for _round in range(rounds):
        to_side1 = np.bincount(src, weights=side[graph.indices], minlength=n)
        cross = np.where(side == 0, to_side1, degrees - to_side1)
        gain = 2 * cross - degrees  # cross - same
        movers0 = np.flatnonzero((side == 0) & (gain > 0))
        movers1 = np.flatnonzero((side == 1) & (gain > 0))
        count = min(len(movers0), len(movers1))
        if count == 0:
            break
        movers0 = movers0[np.argsort(-gain[movers0])][:count]
        movers1 = movers1[np.argsort(-gain[movers1])][:count]
        side[movers0] = 1
        side[movers1] = 0
    order = np.argsort(side, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return from_edges(n, rank[src], rank[graph.indices])


@functools.lru_cache(maxsize=GRAPH_MEMO_SIZE)
def shared_rmat(scale: int, edge_factor: int, seed: int) -> Graph:
    """The partition-refined R-MAT graph, built once per process.

    ``bisection_refine(rmat(scale, edge_factor, seed))`` with read-only
    CSR arrays: every graph kernel that generates this graph gets this
    one object.  A hit cannot differ from a miss, since generation is
    deterministic and no caller can write the arrays.
    """
    graph = bisection_refine(rmat(scale, edge_factor, seed))
    graph.indptr.flags.writeable = graph.indices.flags.writeable = False
    return graph


@functools.lru_cache(maxsize=GRAPH_MEMO_SIZE)
def shared_streamed_rmat(scale: int, edge_factor: int, seed: int) -> StreamedRMAT:
    """``StreamedRMAT(scale, edge_factor, seed)``, built once per process."""
    return StreamedRMAT(scale, edge_factor, seed)


def cross_fraction(graph: Graph, parts: int = 2) -> float:
    """Fraction of edges crossing a block bisection into ``parts`` parts."""
    matrix = cross_partition_edges(graph, parts)
    total = matrix.sum()
    if total == 0:
        return 0.0
    return float((total - np.trace(matrix)) / total)


def partition_bounds(total: int, parts: int) -> List[int]:
    """Boundaries of a block partition: ``parts + 1`` cut points."""
    if parts <= 0:
        raise WorkloadError("parts must be positive")
    return [total * p // parts for p in range(parts + 1)]


def owner_of(index: int, total: int, parts: int) -> int:
    """Which block partition owns element ``index``."""
    if not 0 <= index < total:
        raise WorkloadError(f"index {index} outside [0, {total})")
    # inverse of partition_bounds' cut points
    owner = (index * parts) // total
    while index >= total * (owner + 1) // parts:
        owner += 1
    while index < total * owner // parts:
        owner -= 1
    return owner


def edge_balanced_bounds(graph: Graph, parts: int) -> np.ndarray:
    """Block-partition cut points that equalise *edge* counts per block.

    Power-law graphs make vertex-balanced blocks wildly edge-imbalanced
    (the hub block dominates); production graph frameworks cut by degree
    mass instead, which is what keeps per-thread work comparable.
    """
    if parts <= 0:
        raise WorkloadError("parts must be positive")
    cumulative = graph.indptr[1:].astype(np.float64)
    total = float(graph.num_edges)
    bounds = [0]
    for part in range(1, parts):
        target = total * part / parts
        cut = int(np.searchsorted(cumulative, target, side="left")) + 1
        bounds.append(max(cut, bounds[-1] + 1))
    bounds.append(graph.num_vertices)
    # clamp any overruns caused by the +1 non-empty guarantee
    for index in range(len(bounds) - 2, 0, -1):
        bounds[index] = min(bounds[index], bounds[index + 1] - 1)
    if bounds[0] != 0 or any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise WorkloadError(
            f"cannot cut {graph.num_vertices} vertices into {parts} blocks"
        )
    return np.asarray(bounds, dtype=np.int64)


def grouped_edge_balanced_bounds(graph: Graph, parts: int) -> np.ndarray:
    """Edge-balanced cut points that respect the half/half group boundary.

    The bisection refinement puts each DL group's vertices in one
    contiguous half; cutting each half into ``parts/2`` edge-balanced
    blocks keeps that group assignment while balancing per-thread work.
    Falls back to plain edge balancing for odd ``parts``.
    """
    if parts % 2 or parts < 2:
        return edge_balanced_bounds(graph, parts)
    n = graph.num_vertices
    half_vertex = n // 2
    cumulative = graph.indptr[1:].astype(np.float64)
    bounds = [0]

    def cut_range(start: int, stop: int, pieces: int) -> None:
        base = float(graph.indptr[start])
        total = float(graph.indptr[stop]) - base
        for piece in range(1, pieces):
            target = base + total * piece / pieces
            cut = int(np.searchsorted(cumulative, target, side="left")) + 1
            cut = min(max(cut, bounds[-1] + 1), stop - (pieces - piece))
            bounds.append(cut)
        bounds.append(stop)

    cut_range(0, half_vertex, parts // 2)
    cut_range(half_vertex, n, parts // 2)
    result = np.asarray(bounds, dtype=np.int64)
    if len(result) != parts + 1 or np.any(np.diff(result) <= 0):
        raise WorkloadError(
            f"cannot cut {n} vertices into {parts} grouped blocks"
        )
    return result


def cross_partition_edges(
    graph: Graph, parts: int, bounds: "np.ndarray | None" = None
) -> np.ndarray:
    """``parts x parts`` matrix of edge counts between block partitions."""
    if bounds is None:
        bounds = np.asarray(partition_bounds(graph.num_vertices, parts))
    src = np.repeat(
        np.arange(graph.num_vertices), np.diff(graph.indptr).astype(np.int64)
    )
    src_part = np.clip(np.searchsorted(bounds, src, side="right") - 1, 0, parts - 1)
    dst_part = np.clip(
        np.searchsorted(bounds, graph.indices, side="right") - 1, 0, parts - 1
    )
    matrix = np.zeros((parts, parts), dtype=np.int64)
    np.add.at(matrix, (src_part, dst_part), 1)
    return matrix
