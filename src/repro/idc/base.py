"""Common interface for inter-DIMM communication (IDC) mechanisms.

The four mechanisms the paper compares (Table I) — CPU-forwarding (MCN),
dedicated bus (AIM), intra-channel broadcast (ABC-DIMM), and DIMM-Link —
all implement :class:`IDCMechanism`.  An NMP system is built around exactly
one mechanism; NMP cores issue remote reads/writes/broadcasts/messages
through it, and the mechanism decides which media (DL links, memory
channels, dedicated bus, host forwarding) the transaction crosses.

Traffic classification counters (used by Fig. 11):

* ``idc.local_bytes`` — served by the local DRAM (counted by the local MC),
* ``idc.link_bytes`` — moved over DIMM-Link / dedicated media,
* ``idc.forwarded_bytes`` — moved through the host CPU.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.sim.engine import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nmp.system import NMPSystem


class IDCMechanism(abc.ABC):
    """Abstract inter-DIMM transport used by one NMP system."""

    #: short mechanism name used in reports ("mcn", "aim", "abc", "dimm_link").
    name: str = "abstract"

    def __init__(self) -> None:
        self.system: "NMPSystem | None" = None

    def attach(self, system: "NMPSystem") -> None:
        """Bind the mechanism to a built system (wires media and stats)."""
        self.system = system

    def _require_system(self) -> "NMPSystem":
        if self.system is None:
            raise RuntimeError(f"{self.name}: mechanism not attached to a system")
        return self.system

    def trace_op(self, done: SimEvent, op: str, **args) -> None:
        """Record an ``idc``-category span from now until ``done`` fires.

        A no-op unless the system's simulator carries an enabled trace
        recorder, so mechanisms can call this unconditionally.
        """
        trace = self._require_system().sim.trace
        if not trace.enabled:
            return
        span = trace.begin("idc", op, f"idc.{self.name}", **args)
        done.add_callback(lambda ev: trace.end(span, failed=ev.failed))

    @abc.abstractmethod
    def remote_read(
        self, src_dimm: int, dst_dimm: int, offset: int, nbytes: int
    ) -> SimEvent:
        """Read ``nbytes`` at ``offset`` of ``dst_dimm`` into ``src_dimm``.

        The returned event fires when the data has arrived at the source
        DIMM (including the destination DRAM access).
        """

    @abc.abstractmethod
    def remote_write(
        self, src_dimm: int, dst_dimm: int, offset: int, nbytes: int
    ) -> SimEvent:
        """Write ``nbytes`` from ``src_dimm`` into ``dst_dimm``'s DRAM."""

    @abc.abstractmethod
    def broadcast(self, src_dimm: int, offset: int, nbytes: int) -> SimEvent:
        """Broadcast ``nbytes`` from ``src_dimm`` to every other DIMM.

        Fires when the last DIMM has received the data.
        """

    @abc.abstractmethod
    def message(
        self, src_dimm: int, dst_dimm: int, nbytes: int, expected: bool = False
    ) -> SimEvent:
        """Deliver a small control message (no DRAM access at either end).

        ``expected=True`` marks a message the host is already waiting for
        (e.g. a barrier release right after it forwarded the matching
        arrival), skipping the polling-notice delay on forwarded paths.
        """

    def finalize_stats(self) -> None:
        """Flush end-of-run statistics (called once after the event loop).

        Mechanisms with degradable media (DIMM-Link's bridge links) record
        per-link availability here; others have nothing to flush.
        """
