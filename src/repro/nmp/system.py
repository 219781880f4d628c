"""DIMM-NMP system assembly and kernel execution.

:class:`NMPSystem` builds the full machine of Table V — memory channels,
NMP DIMMs, the host polling/forwarding services, and exactly one IDC
mechanism — and runs workload kernels on it in the coarse-grained NA mode
(the host only polls and forwards; NMP cores own the DRAMs).

A system instance owns its own :class:`~repro.sim.engine.Simulator`, so
each run is hermetic and deterministic.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Union

from repro.config import SystemConfig
from repro.core.sync import SyncManager
from repro.errors import ConfigError, WorkloadError
from repro.faults import FaultSchedule
from repro.host.forwarding import ForwardController
from repro.host.memchannel import MemoryChannel
from repro.host.polling import make_polling
from repro.idc import make_mechanism
from repro.idc.base import IDCMechanism
from repro.nmp.dimm import DIMM
from repro.nmp.executor import run_threads
from repro.nmp.results import RunResult
from repro.sim.engine import Simulator
from repro.sim.stats import StatRegistry
from repro.workloads.base import ThreadFactory

#: default polling strategy per mechanism (MCN has no proxy hardware).
_DEFAULT_POLLING = {
    "mcn": "baseline",
    "abc": "baseline",
    "aim": "baseline",
    "dimm_link": "proxy",
}


class NMPSystem:
    """One configured DIMM-NMP machine ready to execute kernels."""

    def __init__(
        self,
        config: SystemConfig,
        idc: Union[str, IDCMechanism] = "dimm_link",
        polling: Optional[str] = None,
        sync_mode: str = "hierarchical",
        sim: Optional[Simulator] = None,
        stats: Optional[StatRegistry] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.config = config
        # a private simulator by default; pass shared ones to embed this
        # system in a larger model (e.g. a disaggregated-memory blade)
        self.sim = sim if sim is not None else Simulator()
        self.stats = stats if stats is not None else StatRegistry()
        self.sync_mode = sync_mode
        self.idc = make_mechanism(idc) if isinstance(idc, str) else idc
        polling_name = polling or _DEFAULT_POLLING.get(self.idc.name, "baseline")
        if polling_name.startswith("proxy") and self.idc.name != "dimm_link":
            raise ConfigError(
                f"polling strategy {polling_name!r} needs DIMM-Link proxies; "
                f"mechanism is {self.idc.name!r}"
            )
        self.channels = [
            MemoryChannel(
                self.sim, ch, config.dimms_on_channel(ch), config.channel, self.stats
            )
            for ch in range(config.num_channels)
        ]
        self.polling = make_polling(polling_name, self.sim, config, self.stats)
        self.polling.configure(self.channels)
        self.forwarder = ForwardController(
            self.sim, config, self.channels, self.polling, self.stats
        )
        self.dimms = [DIMM(self.sim, d, config, self.stats) for d in range(config.num_dimms)]
        self.idc.attach(self)
        for dimm in self.dimms:
            dimm.mc.bind_idc(self.idc)
        # arms the fault timers on mechanisms with a DL bridge; a no-op
        # (None) on bridge-less mechanisms, whose media cannot fail here
        self.faults = faults.install(self) if faults is not None else None

    # -- placement -----------------------------------------------------------------

    def natural_placement(self, num_threads: int) -> List[int]:
        """Block placement: thread i on DIMM ``i // threads_per_dimm``."""
        per_dimm = self.config.nmp.cores_per_dimm
        placement = [min(i // per_dimm, self.config.num_dimms - 1) for i in range(num_threads)]
        self._validate_placement(placement)
        return placement

    def _validate_placement(self, placement: List[int]) -> None:
        per_dimm = Counter(placement)
        limit = self.config.nmp.cores_per_dimm
        for dimm_id, count in per_dimm.items():
            if not 0 <= dimm_id < self.config.num_dimms:
                raise WorkloadError(f"placement targets unknown DIMM {dimm_id}")
            if count > limit:
                raise WorkloadError(
                    f"placement puts {count} threads on DIMM {dimm_id} "
                    f"(limit {limit})"
                )

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        thread_factories: List[ThreadFactory],
        placement: Optional[List[int]] = None,
        workload_name: str = "kernel",
        pagetable=None,
    ) -> RunResult:
        """Execute one kernel: one op stream per thread, placed on DIMMs.

        ``pagetable`` (a :class:`repro.mapping.pagetable.PageTable`) is
        shared by every core; paged ops then resolve — and possibly
        migrate — through it.  ``None`` keeps static-shard addressing.
        """
        if not thread_factories:
            raise WorkloadError("kernel needs at least one thread")
        if placement is None:
            placement = self.natural_placement(len(thread_factories))
        if len(placement) != len(thread_factories):
            raise WorkloadError(
                f"{len(placement)} placements for {len(thread_factories)} threads"
            )
        self._validate_placement(placement)

        sync = SyncManager(self.sim, self.config, self.idc, self.stats, self.sync_mode)
        sync.set_participants(placement)

        core_cursor: Counter = Counter()
        placed = []
        for factory, dimm_id in zip(thread_factories, placement):
            core = self.dimms[dimm_id].cores[core_cursor[dimm_id]]
            core_cursor[dimm_id] += 1
            core.bind(self.idc, sync)
            core.pagetable = pagetable
            placed.append((core, factory()))
        ends = run_threads(self.sim, placed)
        self.idc.finalize_stats()
        return RunResult(
            system_name=self.config.name,
            mechanism=self.idc.name,
            workload=workload_name,
            time_ps=max(ends),
            thread_end_ps=ends,
            stats=self.stats,
            bus_occupancy=[channel.occupancy() for channel in self.channels],
            polling=self.polling.name,
        )
