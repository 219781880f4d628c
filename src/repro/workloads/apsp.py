"""Blocked Floyd–Warshall all-pairs shortest paths (PIM-FW-motivated).

The blocked APSP kernel tiles the n x n distance matrix into
``block x block`` tiles mapped across DIMMs.  Every round ``k`` runs the
classic three phases — pivot tile, pivot row/column, remainder — and its
IDC signature is unlike the existing graph kernels: each round *broadcasts*
the freshly updated pivot tile and then the pivot row/column tiles to all
DIMMs, so the broadcast tree dominates and point-to-point gather traffic
is secondary.

Like the DLRM workload, two faces stay in exact agreement:

* **Numerics** — a deterministic random digraph with integer weights;
  :meth:`BlockedFloydWarshall.reference_distances` is the golden
  triple-loop Floyd–Warshall, :meth:`BlockedFloydWarshall.blocked_distances`
  the tiled min-plus schedule (ragged edge tiles handled), and
  :meth:`BlockedFloydWarshall.distances_via` the mechanism-shaped
  schedules.  Integer min-plus is exact, so equality is bitwise.
* **Traffic** — per round: the pivot-tile owner computes and broadcasts,
  pivot-row/column owners stream their tiles, update, and broadcast,
  then everyone min-plus-updates their remaining tiles; three barriers
  separate the phases and a per-round ``apsp.round_ps`` stamp records
  round latency.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads
from repro.workloads.ops import Barrier, Broadcast, Compute, Stamp

#: "no edge" sentinel.  Weights are <= WEIGHT_MAX and paths have < n
#: hops, so any reachable distance is far below this; min-plus guards
#: keep the sentinel exact (never INF + w).
INF = 10**9
#: edge weights are integers in [1, WEIGHT_MAX].
WEIGHT_MAX = 16
#: bytes per distance-matrix entry.
ENTRY_BYTES = 8
#: NMP cycles per min-plus inner-loop element.
CYCLES_PER_MINPLUS = 2
#: mechanism labels accepted by :meth:`BlockedFloydWarshall.distances_via`.
APSP_MECHANISMS = ("cpu", "dimm_link", "dl_opt")

#: histogram key recording per-round latency (scoped per core).
ROUND_STAMP = "apsp.round_ps"

#: a tile a thread owns: its tile coordinates and its home DIMM.
Tile = Tuple[int, int, int]


def _minplus(dist: List[List[int]], i: int, j: int, k: int) -> None:
    """dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j]), INF-exact."""
    through = dist[i][k]
    if through >= INF:
        return
    hop = dist[k][j]
    if hop >= INF:
        return
    if through + hop < dist[i][j]:
        dist[i][j] = through + hop


class BlockedFloydWarshall(Workload):
    """Tiled APSP over DIMMs with per-round pivot broadcasts."""

    name = "apsp"

    def __init__(
        self,
        n: int = 96,
        block: int = 12,
        density: float = 0.25,
        seed: int = 42,
    ) -> None:
        if n <= 0 or block <= 0:
            raise WorkloadError("apsp: n and block must be positive")
        if block > n:
            raise WorkloadError(f"apsp: block {block} exceeds n {n}")
        if not 0.0 < density <= 1.0:
            raise WorkloadError("apsp: density must be in (0, 1]")
        self.n = n
        self.block = block
        self.density = density
        self.seed = seed
        #: tiles per side (ceil: the last row/column of tiles is ragged
        #: when ``block`` does not divide ``n``).
        self.tiles = (n + block - 1) // block
        self._adjacency: List[List[int]] = []
        self._reference: List[List[int]] = []

    # -- deterministic data ----------------------------------------------------------

    def adjacency(self) -> List[List[int]]:
        """The input digraph's weight matrix (cached, callers must not
        mutate)."""
        if not self._adjacency:
            rng = random.Random(f"{self.seed}:apsp:{self.n}:{self.density}")
            matrix = [[INF] * self.n for _ in range(self.n)]
            for i in range(self.n):
                matrix[i][i] = 0
                for j in range(self.n):
                    if i != j and rng.random() < self.density:
                        matrix[i][j] = rng.randint(1, WEIGHT_MAX)
            self._adjacency = matrix
        return self._adjacency

    def _copy_adjacency(self) -> List[List[int]]:
        return [row[:] for row in self.adjacency()]

    # -- reference numerics (the golden result) ---------------------------------------

    def reference_distances(self) -> List[List[int]]:
        """Plain triple-loop Floyd–Warshall (cached golden result)."""
        if not self._reference:
            dist = self._copy_adjacency()
            for k in range(self.n):
                for i in range(self.n):
                    through = dist[i][k]
                    if through >= INF:
                        continue
                    row_i = dist[i]
                    row_k = dist[k]
                    for j in range(self.n):
                        hop = row_k[j]
                        if hop < INF and through + hop < row_i[j]:
                            row_i[j] = through + hop
            self._reference = dist
        return self._reference

    def _tile_range(self, t: int) -> Tuple[int, int]:
        return t * self.block, min((t + 1) * self.block, self.n)

    def _update_tile(
        self, dist: List[List[int]], ti: int, tj: int, tk: int
    ) -> None:
        """Min-plus update of tile (ti, tj) through pivot round tk."""
        i0, i1 = self._tile_range(ti)
        j0, j1 = self._tile_range(tj)
        k0, k1 = self._tile_range(tk)
        for k in range(k0, k1):
            for i in range(i0, i1):
                for j in range(j0, j1):
                    _minplus(dist, i, j, k)

    def blocked_distances(self, order: str = "row_first") -> List[List[int]]:
        """Tiled Floyd–Warshall: per round, pivot tile -> pivot
        row/column -> remainder.  ``order`` flips whether phase 2 walks
        the pivot row or the pivot column first — the DL-opt schedule —
        which must not change the result."""
        if order not in ("row_first", "col_first"):
            raise WorkloadError(f"apsp: unknown phase order {order!r}")
        dist = self._copy_adjacency()
        tiles = self.tiles
        for k in range(tiles):
            self._update_tile(dist, k, k, k)
            passes = ("row", "col") if order == "row_first" else ("col", "row")
            for which in passes:
                for t in range(tiles):
                    if t == k:
                        continue
                    if which == "row":
                        self._update_tile(dist, k, t, k)
                    else:
                        self._update_tile(dist, t, k, k)
            for ti in range(tiles):
                if ti == k:
                    continue
                for tj in range(tiles):
                    if tj == k:
                        continue
                    self._update_tile(dist, ti, tj, k)
        return dist

    def distances_via(self, mechanism: str) -> List[List[int]]:
        """The distance matrix as each mechanism-shaped schedule computes
        it: CPU-forwarding recomputes the plain loop on the host,
        DIMM-Link runs the broadcast-tiled schedule, DL-opt the
        column-first variant.  All must equal the reference exactly."""
        if mechanism not in APSP_MECHANISMS:
            raise WorkloadError(
                f"apsp: unknown mechanism {mechanism!r}; "
                f"choose from {APSP_MECHANISMS}"
            )
        if mechanism == "cpu":
            dist = self._copy_adjacency()
            for k in range(self.n):
                for i in range(self.n):
                    for j in range(self.n):
                        _minplus(dist, i, j, k)
            return dist
        order = "row_first" if mechanism == "dimm_link" else "col_first"
        return self.blocked_distances(order=order)

    # -- traffic model ---------------------------------------------------------------

    def tile_home(self, ti: int, tj: int, num_dimms: int) -> int:
        """The DIMM storing tile (ti, tj): block-major contiguous ranges,
        so a thread's tiles co-locate with its natural placement."""
        index = ti * self.tiles + tj
        return (index * num_dimms) // (self.tiles * self.tiles)

    def tile_owner(self, ti: int, tj: int, num_threads: int) -> int:
        """The thread that processes tile (ti, tj) (block-major ranges,
        aligned with :meth:`tile_home` so natural placement is local)."""
        index = ti * self.tiles + tj
        return (index * num_threads) // (self.tiles * self.tiles)

    def _tile_bytes(self, ti: int, tj: int) -> int:
        i0, i1 = self._tile_range(ti)
        j0, j1 = self._tile_range(tj)
        return (i1 - i0) * (j1 - j0) * ENTRY_BYTES

    def _tile_cycles(self, ti: int, tj: int, tk: int) -> int:
        i0, i1 = self._tile_range(ti)
        j0, j1 = self._tile_range(tj)
        k0, k1 = self._tile_range(tk)
        return CYCLES_PER_MINPLUS * (i1 - i0) * (j1 - j0) * (k1 - k0)

    def shape(self, num_threads: int, num_dimms: int) -> Dict[int, List[Tile]]:
        """Thread -> its tiles ``(ti, tj, home DIMM)``, in row-major order."""
        owned: Dict[int, List[Tile]] = {}
        for ti in range(self.tiles):
            for tj in range(self.tiles):
                owned.setdefault(self.tile_owner(ti, tj, num_threads), []).append(
                    (ti, tj, self.tile_home(ti, tj, num_dimms))
                )
        return owned

    def thread_ops(self, owned: Dict[int, List[Tile]], thread_id: int) -> Iterator:
        my_tiles = owned.get(thread_id, [])
        cursor = OffsetCursor(thread_id)
        for k in range(self.tiles):
            # phase 1: the pivot tile updates, then floods
            for ti, tj, home in my_tiles:
                if ti == k and tj == k:
                    tile_bytes = self._tile_bytes(k, k)
                    yield from batched_reads({home: tile_bytes}, cursor)
                    yield Compute(self._tile_cycles(k, k, k))
                    yield Broadcast(offset=cursor.take(tile_bytes), nbytes=tile_bytes)
            yield Barrier()
            # phase 2: pivot row/column tiles update + flood (each update
            # also re-reads the flood-deposited pivot tile: local DRAM on
            # NMP, one more channel crossing on the host)
            for ti, tj, home in my_tiles:
                if (ti == k) != (tj == k):
                    tile_bytes = self._tile_bytes(ti, tj)
                    yield from batched_reads(
                        {home: tile_bytes + self._tile_bytes(k, k)}, cursor
                    )
                    yield Compute(self._tile_cycles(ti, tj, k))
                    yield Broadcast(offset=cursor.take(tile_bytes), nbytes=tile_bytes)
            yield Barrier()
            # phase 3: the remainder updates off broadcast data (own tile
            # + the broadcast pivot-row and pivot-column tiles it
            # min-pluses against)
            for ti, tj, home in my_tiles:
                if ti != k and tj != k:
                    yield from batched_reads(
                        {
                            home: self._tile_bytes(ti, tj)
                            + self._tile_bytes(ti, k)
                            + self._tile_bytes(k, tj)
                        },
                        cursor,
                    )
                    yield Compute(self._tile_cycles(ti, tj, k))
            yield Barrier()
            yield Stamp(ROUND_STAMP)
