"""Hot-shard microbenchmark for data-placement policies.

The loader statically places the *entire* working set on DIMM 0 — the
pathological skew CODA warns about: every thread's private pages live on
one hot shard, so under static placement all but DIMM 0's own cores pay
remote IDC traffic every round, and DIMM 0's DRAM serializes the whole
machine.  Each round a thread computes, re-reads its private pages (the
repeated touches a next-touch policy needs), reads a few globally shared
pages (which should *not* ping-pong), and writes its private pages back.

First-touch and next-touch migrate the private pages to the touching
core's DIMM after the first round(s); profiled placement starts them
there.  With enough rounds the one-time ``PAGE_BYTES`` migration cost is
amortized and any migrating policy beats static placement — this is the
ablation's guaranteed-crossover workload.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.dram.address import PAGE_BYTES, page_id
from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.ops import Barrier, Compute, Read, Write

#: the hot shard every page statically lives on.
HOT_DIMM = 0
#: page-index namespace for the globally shared pages (disjoint from the
#: per-thread private regions below it).
SHARED_BASE = 1 << 20
#: bytes touched per page visit (one op per page keeps event counts low).
TOUCH_BYTES = 1024
#: core cycles between memory phases.
CYCLES_PER_ROUND = 2000


class HotPage(Workload):
    """All data on one DIMM; rounds of private re-touches + shared reads."""

    name = "hotpage"
    paged = True

    def __init__(
        self,
        rounds: int = 8,
        private_pages: int = 16,
        shared_pages: int = 2,
        touches_per_page: int = 2,
    ) -> None:
        if rounds <= 0 or private_pages <= 0 or touches_per_page <= 0:
            raise WorkloadError("hotpage rounds/pages/touches must be positive")
        if shared_pages < 0:
            raise WorkloadError("hotpage shared_pages must be >= 0")
        self.rounds = rounds
        self.private_pages = private_pages
        self.shared_pages = shared_pages
        self.touches_per_page = touches_per_page

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        private = [
            page_id(HOT_DIMM, thread_id * self.private_pages + i)
            for i in range(self.private_pages)
        ]
        shared = [page_id(HOT_DIMM, SHARED_BASE + j) for j in range(self.shared_pages)]
        for _round in range(self.rounds):
            yield Compute(CYCLES_PER_ROUND)
            for page in private:
                base = (page % (1 << 13)) * PAGE_BYTES
                for touch in range(self.touches_per_page):
                    yield Read(
                        dimm=HOT_DIMM,
                        offset=base + touch * TOUCH_BYTES,
                        nbytes=TOUCH_BYTES,
                        page=page,
                    )
            for page in shared:
                yield Read(
                    dimm=HOT_DIMM,
                    offset=(page % (1 << 13)) * PAGE_BYTES,
                    nbytes=TOUCH_BYTES,
                    page=page,
                )
            for page in private:
                yield Write(
                    dimm=HOT_DIMM,
                    offset=(page % (1 << 13)) * PAGE_BYTES,
                    nbytes=TOUCH_BYTES,
                    page=page,
                )
            yield Barrier()
