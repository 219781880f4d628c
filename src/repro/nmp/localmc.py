"""Local memory controller of an NMP DIMM (Fig. 6 ❶-❹).

NMP cores submit memory requests here.  The controller buffers them in a
bounded transaction buffer, decodes the target DIMM, and arbitrates: local
requests go to the DIMM's DRAM through the local DDR interface; remote
requests are handed to the system's IDC mechanism via the DL interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import SlotResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.module import DRAMModule
    from repro.idc.base import IDCMechanism

#: arbitration + address-decode latency per request.
ARBITER_LATENCY_PS = ns(3.0)
#: transaction-buffer entries per DIMM (Fig. 6 ❶).
TRANSACTION_BUFFER_ENTRIES = 64


class LocalMemoryController:
    """Per-DIMM request arbiter between local DRAM and the IDC path."""

    def __init__(
        self,
        sim: Simulator,
        dimm_id: int,
        dram: "DRAMModule",
        stats: StatRegistry,
    ) -> None:
        self.sim = sim
        self.dimm_id = dimm_id
        self.dram = dram
        self.stats = stats
        self.idc: "IDCMechanism | None" = None
        self.buffer = SlotResource(
            sim, TRANSACTION_BUFFER_ENTRIES, name=f"dimm{dimm_id}.txnbuf"
        )
        self._n_done = f"dimm{dimm_id}.mc"

    def bind_idc(self, idc: "IDCMechanism") -> None:
        """Connect the DL interface to the system's IDC mechanism."""
        self.idc = idc

    def submit(
        self, target_dimm: int, offset: int, nbytes: int, is_write: bool
    ) -> SimEvent:
        """Submit one request; the event fires on completion.

        The request is a chain of callbacks, one per simulator slot: take
        a transaction-buffer entry (FIFO once all are held), arbitrate,
        then either access local DRAM or wait on the IDC mechanism, and
        finally free the entry and fire the returned event.
        """
        done = SimEvent(self.sim, self._n_done)
        self.sim.schedule(0, self._admit, (target_dimm, offset, nbytes, is_write, done))
        return done

    def _admit(self, request) -> None:
        self.buffer.acquire().then(self._arbitrate, request)

    def _arbitrate(self, request) -> None:
        self.sim.schedule(ARBITER_LATENCY_PS, self._dispatch, request)

    def _dispatch(self, request) -> None:
        target_dimm, offset, nbytes, is_write, _done = request
        if target_dimm == self.dimm_id:
            self.stats.add("idc.local_bytes", nbytes)
            self.sim.at(
                self.dram.completion_time(offset, nbytes, is_write),
                self._dram_done,
                request,
            )
            return
        if self.idc is None:
            raise RuntimeError(
                f"dimm{self.dimm_id}: remote request without an IDC mechanism"
            )
        if is_write:
            remote = self.idc.remote_write(self.dimm_id, target_dimm, offset, nbytes)
        else:
            remote = self.idc.remote_read(self.dimm_id, target_dimm, offset, nbytes)
        remote.then(self._remote_done, (request, remote))

    def _dram_done(self, request) -> None:
        self.sim.schedule(0, self._finish, request)

    def _remote_done(self, waited) -> None:
        request, event = waited
        if event.failed:
            raise event.value  # failures surface out of the event loop
        self._finish(request)

    def _finish(self, request) -> None:
        self.buffer.release()
        request[4].succeed(request[2])

    def local_access(self, offset: int, nbytes: int, is_write: bool) -> SimEvent:
        """Direct local DRAM access (used by the IDC receive path)."""
        self.stats.add("idc.remote_served_bytes", nbytes)
        return self.dram.access(offset, nbytes, is_write)
