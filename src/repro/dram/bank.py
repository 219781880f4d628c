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
    """A rank: banks plus rank-wide activate pacing and its data bus."""

    def __init__(self, timing: DRAMTiming, name: str = "rank") -> None:
        self.timing = timing
        self.name = name
        self.banks = [Bank() for _ in range(timing.banks_per_rank)]
        self._recent_activates: Deque[int] = deque(maxlen=4)
        self._bus_free_at = 0

    def precharge_all(self) -> None:
        """Close every open row in the rank."""
        for bank in self.banks:
            bank.open_row = None
