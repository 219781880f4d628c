"""Bank and rank state (transaction-level timeline arithmetic).

Rather than replaying every DDR command cycle-by-cycle, each bank keeps a
small timeline (open row, earliest-next-access time, last-activate time)
and each rank keeps its recent activates and when its shared data bus
frees up.  :meth:`~repro.dram.module.DRAMModule.completion_time` walks a
request's cache lines over this state — honouring tRCD/tCAS/tRP/tRAS for
the bank, tRRD/tFAW and refresh (tREFI/tRFC) for the rank, and
serialising bursts on the rank's data bus.  This is the standard
fidelity/speed trade-off for Python-scale DRAM models and preserves
row-hit locality effects and bank-level parallelism, which are what the
evaluation depends on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.dram.timing import DRAMTiming

#: Access categories reported per line access (trace span names).
ROW_HIT = "row_hit"
ROW_MISS = "row_miss"
ROW_CONFLICT = "row_conflict"


class Bank:
    """One DRAM bank's timeline state."""

    __slots__ = ("open_row", "ready_at", "activated_at")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        #: earliest time the bank can start its next column/row command.
        self.ready_at = 0
        #: when the currently-open row was activated (for tRAS).
        self.activated_at = 0


class Rank:
    """A rank: banks plus rank-wide activate pacing, refresh, and data bus."""

    def __init__(self, timing: DRAMTiming, name: str = "rank", sim=None) -> None:
        self.timing = timing
        self.name = name
        #: optional simulator handle, used only to reach its trace recorder
        #: (the timeline arithmetic itself never reads the clock).
        self.sim = sim
        self.banks = [Bank() for _ in range(timing.banks_per_rank)]
        self._recent_activates: Deque[int] = deque(maxlen=4)
        self._bus_free_at = 0

    def _refresh_gate(self, t: int) -> int:
        """Push ``t`` past the refresh window it falls inside, if any.

        Refresh occupies the last tRFC of every tREFI interval, so time 0
        starts clean and steady-state accesses stall ~tRFC/tREFI of the time.
        """
        trefi, trfc = self.timing.trefi_ps, self.timing.trfc_ps
        position = t % trefi
        if position >= trefi - trfc:
            return (t // trefi + 1) * trefi
        return t

    def stream(self, now: int, nbytes: int, is_write: bool) -> int:
        """Fast path for bulk transfers: first-word latency + streaming.

        Models a long sequential burst as one row-miss latency followed by
        data streamed at a derated fraction of the rank's peak bandwidth
        (row turnarounds and refresh steal ~15%).  The caller accounts the
        bytes and activates.
        """
        timing = self.timing
        start = self._refresh_gate(now)
        first = start + timing.trcd_ps + timing.tcas_ps
        effective_gbps = timing.rank_bandwidth_gbps * 0.85
        stream_ps = int(nbytes / effective_gbps * 1000)
        done = max(first, self._bus_free_at) + stream_ps
        self._bus_free_at = done
        if self.sim is not None and self.sim.trace.enabled:
            kind = "write" if is_write else "read"
            self.sim.trace.complete(
                "dram", "stream", self.name, start, done, bytes=nbytes, kind=kind
            )
        return done

    def precharge_all(self) -> None:
        """Close every open row in the rank."""
        for bank in self.banks:
            bank.open_row = None
