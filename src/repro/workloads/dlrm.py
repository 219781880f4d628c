"""DLRM-style embedding serving (TensorDIMM-motivated workload).

Recommendation-model inference is dominated by embedding-table lookups:
each query pulls ``pooling`` rows from every table and reduces them into
one pooled vector per table.  Tables are row-sharded across DIMMs, so a
lookup is a *gather* across the shards followed by a *tensor reduction*
— exactly the traffic shape the DIMM-Link bridges (peer-to-peer partial
transfers, tree reduction) were built for, and the worst case for
CPU-forwarding baselines that haul every partial through the host.

The workload carries two faces kept in exact agreement:

* **Numerics** — deterministic integer embedding tables and Zipfian
  query streams, with :meth:`DLRMEmbedding.reference_pooled` (direct
  per-query sum, the golden result) and :meth:`DLRMEmbedding.pooled_via`
  (the mechanism-shaped dataflows: host-forwarded linear gather,
  per-shard partial sums + binary tree reduction, and the DL-opt
  rotated tree).  Integer weights make every path bit-exact, so the
  differential tests assert *equality*, not tolerance.
* **Traffic** — :meth:`thread_ops` models the cooperative gather:
  batches are served in *waves* of ``num_threads``.  In each wave every
  thread first reads its home DIMM's share of the wave's selected rows
  *locally* and reduces them into partials (the NMP-side gather), then —
  after a barrier — serves its own batch by pulling one partial vector
  per (query, table, shard) across the interconnect, tree-reducing, and
  writing the response, closing with a ``dlrm.batch_ps`` latency stamp.
  On the host baseline the same stream degenerates to exactly
  CPU-forwarding: the "local" row reads all cross the memory channels,
  which is where the DIMM-Link advantage comes from.

Batches are identified globally (``wave * num_threads + thread``) so
the query stream — and therefore the simulated traffic — is independent
of how threads are placed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from typing import Dict, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.batching import OffsetCursor, batched_reads
from repro.workloads.ops import Barrier, Compute, Stamp, Write

#: bytes per embedding-vector element (fp32 in production DLRM; the
#: integer stand-ins here size traffic identically).
ELEMENT_BYTES = 4
#: embedding weights are integers in [-WEIGHT_BOUND, WEIGHT_BOUND).
WEIGHT_BOUND = 64
#: NMP cycles per vector element touched during gather and reduction.
CYCLES_PER_ELEMENT = 2
#: mechanism labels accepted by :meth:`DLRMEmbedding.pooled_via`.
POOLING_MECHANISMS = ("cpu", "dimm_link", "dl_opt")

#: histogram key recording per-batch serving latency (scoped per core).
BATCH_STAMP = "dlrm.batch_ps"


class DLRMEmbedding(Workload):
    """Embedding-lookup + tensor-reduction serving (batched queries)."""

    name = "dlrm"

    def __init__(
        self,
        tables: int = 8,
        rows: int = 512,
        dim: int = 16,
        pooling: int = 8,
        batches_per_thread: int = 4,
        batch_size: int = 32,
        zipf: float = 1.05,
        seed: int = 42,
    ) -> None:
        if min(tables, rows, dim, pooling, batches_per_thread, batch_size) <= 0:
            raise WorkloadError("dlrm: all shape parameters must be positive")
        if zipf <= 0:
            raise WorkloadError("dlrm: zipf exponent must be positive")
        self.tables = tables
        self.rows = rows
        self.dim = dim
        self.pooling = pooling
        self.batches_per_thread = batches_per_thread
        self.batch_size = batch_size
        self.zipf = zipf
        self.seed = seed
        #: cumulative Zipfian weights over row ids (hot head at row 0).
        self._cdf: List[float] = []
        total = 0.0
        for row in range(rows):
            total += 1.0 / ((row + 1) ** zipf)
            self._cdf.append(total)
        self._row_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._traffic_cache: Dict[Tuple[int, int], Tuple[Counter, Counter]] = {}

    # -- deterministic data ----------------------------------------------------------

    def row_vector(self, table: int, row: int) -> Tuple[int, ...]:
        """The embedding vector stored at (table, row) — derived, not
        materialized, so large tables cost nothing until touched."""
        cached = self._row_cache.get((table, row))
        if cached is None:
            rng = random.Random(f"{self.seed}:dlrm-row:{table}:{row}")
            cached = tuple(
                rng.randrange(-WEIGHT_BOUND, WEIGHT_BOUND) for _ in range(self.dim)
            )
            self._row_cache[(table, row)] = cached
        return cached

    def _sample_row(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._cdf[-1])

    def query_indices(self, batch_id: int) -> List[List[Tuple[int, ...]]]:
        """The batch's queries: per query, per table, ``pooling`` row ids
        (Zipfian, repeats allowed — multi-hot features revisit hot rows)."""
        rng = random.Random(f"{self.seed}:dlrm-batch:{batch_id}")
        return [
            [
                tuple(self._sample_row(rng) for _ in range(self.pooling))
                for _table in range(self.tables)
            ]
            for _query in range(self.batch_size)
        ]

    def shard_of(self, table: int, row: int, num_dimms: int) -> int:
        """The DIMM owning (table, row): contiguous row blocks, rotated
        by table id so every table's Zipf-hot head lands on a different
        DIMM (the TensorDIMM-style load-balancing trick)."""
        return (table + (row * num_dimms) // self.rows) % num_dimms

    # -- reference numerics (the golden results) --------------------------------------

    def reference_pooled(self, batch_id: int) -> List[List[Tuple[int, ...]]]:
        """Direct reduction in query order: per query, per table, the
        elementwise sum of the selected rows.  The golden result every
        mechanism-shaped dataflow must reproduce exactly."""
        pooled = []
        for query in self.query_indices(batch_id):
            per_table = []
            for table, row_ids in enumerate(query):
                acc = [0] * self.dim
                for row in row_ids:
                    vector = self.row_vector(table, row)
                    for i in range(self.dim):
                        acc[i] += vector[i]
                per_table.append(tuple(acc))
            pooled.append(per_table)
        return pooled

    def pooled_via(
        self, mechanism: str, batch_id: int, num_dimms: int
    ) -> List[List[Tuple[int, ...]]]:
        """The pooled vectors as each serving dataflow computes them.

        * ``"cpu"`` — CPU-forwarding: every selected row is hauled to the
          host (shard-major order) and summed linearly there.
        * ``"dimm_link"`` — NMP-side gather: each shard reduces its own
          rows into one partial per (query, table), partials combine
          through a binary tree over ascending DIMM ids.
        * ``"dl_opt"`` — same partials, tree built over the rotated DIMM
          order the optimized placement yields.

        Integer arithmetic makes all three bit-equal to
        :meth:`reference_pooled`; the differential tests pin that.
        """
        if mechanism not in POOLING_MECHANISMS:
            raise WorkloadError(
                f"dlrm: unknown pooling mechanism {mechanism!r}; "
                f"choose from {POOLING_MECHANISMS}"
            )
        pooled = []
        for query in self.query_indices(batch_id):
            per_table = []
            for table, row_ids in enumerate(query):
                shards: Dict[int, List[int]] = {}
                for row in row_ids:
                    shards.setdefault(
                        self.shard_of(table, row, num_dimms), []
                    ).append(row)
                if mechanism == "cpu":
                    acc = [0] * self.dim
                    for dimm in sorted(shards):
                        for row in shards[dimm]:
                            vector = self.row_vector(table, row)
                            for i in range(self.dim):
                                acc[i] += vector[i]
                    per_table.append(tuple(acc))
                    continue
                order = sorted(shards)
                if mechanism == "dl_opt" and len(order) > 1:
                    # rotated reduction order: a genuinely different tree
                    order = order[1:] + order[:1]
                partials = []
                for dimm in order:
                    part = [0] * self.dim
                    for row in shards[dimm]:
                        vector = self.row_vector(table, row)
                        for i in range(self.dim):
                            part[i] += vector[i]
                    partials.append(part)
                per_table.append(tuple(self._tree_reduce(partials)))
            pooled.append(per_table)
        return pooled

    def _tree_reduce(self, partials: List[List[int]]) -> List[int]:
        """Pairwise binary tree combine (the DIMM-Link reduction shape)."""
        while len(partials) > 1:
            merged = []
            for i in range(0, len(partials) - 1, 2):
                left, right = partials[i], partials[i + 1]
                merged.append([left[j] + right[j] for j in range(self.dim)])
            if len(partials) % 2:
                merged.append(partials[-1])
            partials = merged
        return partials[0]

    # -- traffic model ---------------------------------------------------------------

    def batch_traffic(
        self, batch_id: int, num_dimms: int
    ) -> Tuple[Counter, Counter]:
        """Per-DIMM (rows gathered, partial vectors produced) for one
        batch — computed from the actual query indices (and cached), so
        traffic and numerics can never drift apart."""
        cached = self._traffic_cache.get((batch_id, num_dimms))
        if cached is not None:
            return cached
        rows_at: Counter = Counter()
        partials_at: Counter = Counter()
        for query in self.query_indices(batch_id):
            for table, row_ids in enumerate(query):
                owners = Counter(
                    self.shard_of(table, row, num_dimms) for row in row_ids
                )
                for dimm, count in owners.items():
                    rows_at[dimm] += count
                    partials_at[dimm] += 1
        self._traffic_cache[(batch_id, num_dimms)] = (rows_at, partials_at)
        return rows_at, partials_at

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        num_threads, num_dimms = shape
        homes = self.block_placement(
            num_threads, num_dimms, max(1, num_threads // num_dimms)
        )
        home = homes[thread_id]
        # the threads co-resident on this DIMM split its local gather
        # work; this thread's rank among them picks its share
        mates = homes.count(home)
        rank = homes[:thread_id].count(home)
        response_bytes = self.batch_size * self.tables * self.dim * ELEMENT_BYTES
        cursor = OffsetCursor(thread_id)
        for wave in range(self.batches_per_thread):
            # -- gather phase: this thread reads its share of the rows its
            # home DIMM contributes to every batch of the wave, and
            # reduces them to partials (local DRAM reads on NMP; channel
            # reads — i.e. CPU-forwarding — on the host baseline)
            local_rows = 0
            for peer in range(num_threads):
                rows_at, _partials = self.batch_traffic(
                    wave * num_threads + peer, num_dimms
                )
                local_rows += rows_at.get(home, 0)
            share = local_rows // mates + (1 if rank < local_rows % mates else 0)
            if share:
                yield from batched_reads(
                    {home: share * self.dim * ELEMENT_BYTES}, cursor, chunk=4096
                )
                yield Compute(CYCLES_PER_ELEMENT * self.dim * share)
            yield Barrier()
            # -- serve phase: this thread's batch pulls one dim-vector
            # partial per (query, table, shard) across the interconnect
            # and tree-reduces
            batch_id = wave * num_threads + thread_id
            _rows, partials_at = self.batch_traffic(batch_id, num_dimms)
            yield from batched_reads(
                {
                    dimm: count * self.dim * ELEMENT_BYTES
                    for dimm, count in sorted(partials_at.items())
                },
                cursor,
                chunk=2048,
            )
            yield Compute(CYCLES_PER_ELEMENT * self.dim * sum(partials_at.values()))
            # pooled response lands in the local result buffer
            yield Write(
                dimm=home, offset=cursor.take(response_bytes), nbytes=response_bytes
            )
            yield Stamp(BATCH_STAMP)
