"""Inter-DIMM synchronization (Sec. III-D "Support for Synchronization").

Message-passing barriers over the system's IDC transport, in two flavours:

* ``central`` — every thread's arrival is reported to one master DIMM,
  which then notifies every participating DIMM on release.  This is what
  the baselines (and DIMM-Link-Central in Fig. 14) do.
* ``hierarchical`` — arrivals aggregate locally (a master core per DIMM),
  then per DL group (a master DIMM at the middle of the group), and
  finally across groups (a global master), with releases cascading back
  down.  This is DIMM-Link-Hier, and it cuts both message count and the
  number of host-forwarded (inter-group) messages.

The cost of each message is whatever the bound IDC mechanism charges, so
the same manager exercises MCN (host-forwarded sync), AIM (bus sync), and
DIMM-Link (DL packets) faithfully.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List

from repro.config import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.idc.base import IDCMechanism
from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

#: payload of one synchronization message (fits a single flit packet).
SYNC_MSG_BYTES = 8
#: intra-DIMM aggregation latency (core -> master core, on-chip).
LOCAL_SYNC_PS = ns(20.0)
#: serialized processing time a master core spends per sync message it
#: receives or issues (the SynCron-style master bottleneck that makes
#: centralized synchronization scale poorly, Fig. 14).
MASTER_PROC_PS = ns(50.0)

SYNC_MODES = ("central", "hierarchical")


class _Generation:
    """Per-barrier-generation state."""

    def __init__(self) -> None:
        self.waiters: Dict[int, List[SimEvent]] = defaultdict(list)  # dimm -> events
        self.dimm_arrivals: Counter = Counter()
        self.arrived_threads = 0
        self.group_arrivals: Counter = Counter()
        self.released = False


class SyncManager:
    """Barrier service for one kernel run."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        idc: IDCMechanism,
        stats: StatRegistry,
        mode: str = "hierarchical",
    ) -> None:
        if mode not in SYNC_MODES:
            raise ConfigError(f"unknown sync mode {mode!r}; choose from {SYNC_MODES}")
        self.sim = sim
        self.config = config
        self.idc = idc
        self.stats = stats
        self.mode = mode
        self.global_master = config.master_dimm(0)
        self._thread_homes: List[int] = []
        self._threads_per_dimm: Counter = Counter()
        self._dimms_per_group: Counter = Counter()
        self._generations: Dict[int, _Generation] = {}
        self._thread_counts: Dict[int, int] = {}
        self._master_cores: Dict[int, BandwidthResource] = {}

    def set_participants(self, thread_homes: List[int]) -> None:
        """Declare the run's threads as (thread index -> home DIMM)."""
        if not thread_homes:
            raise ConfigError("a barrier needs at least one participant")
        self._thread_homes = list(thread_homes)
        self._threads_per_dimm = Counter(thread_homes)
        self._dimms_per_group = Counter(
            self.config.group_of(d) for d in self._threads_per_dimm
        )
        self._generations.clear()
        self._thread_counts = {t: 0 for t in range(len(thread_homes))}

    @property
    def total_threads(self) -> int:
        """Participant count."""
        return len(self._thread_homes)

    def barrier(self, thread_id: int) -> SimEvent:
        """Enter the barrier; the event fires when this thread is released."""
        if thread_id not in self._thread_counts:
            raise SimulationError(f"unknown barrier participant {thread_id}")
        generation = self._thread_counts[thread_id]
        self._thread_counts[thread_id] += 1
        state = self._generations.setdefault(generation, _Generation())
        home = self._thread_homes[thread_id]
        event = self.sim.event(name=f"barrier.g{generation}.t{thread_id}")
        state.waiters[home].append(event)
        self.sim.schedule(0, self._arrival, (state, home))
        return event

    # Arrivals and releases are callback chains, one callback per simulator
    # slot, over a ``(state, dimm, ...)`` tuple: ``schedule`` for a
    # fixed latency, ``SimEvent.then`` for a sync message or a master
    # core's processing, and a plain call where a stage sends nothing.

    def _master_core(self, dimm: int) -> BandwidthResource:
        """The serializing master core of a DIMM (SynCron-style)."""
        core = self._master_cores.get(dimm)
        if core is None:
            core = BandwidthResource(
                self.sim, bytes_per_ns=1.0, name=f"sync.master{dimm}"
            )
            self._master_cores[dimm] = core
        return core

    def _message(self, src: int, dst: int, step, arrival, expected: bool = False) -> None:
        """Send one sync message; ``step(arrival)`` runs once it is delivered."""
        self.idc.message(src, dst, SYNC_MSG_BYTES, expected=expected).then(step, arrival)

    def _occupy_master(self, dimm: int, step, arrival) -> None:
        """Charge one message's processing on ``dimm``'s master core."""
        self._master_core(dimm).occupy(MASTER_PROC_PS).then(step, arrival)

    # -- arrival paths ------------------------------------------------------------

    def _arrival(self, arrival) -> None:
        # report to the DIMM's master core
        self.sim.schedule(LOCAL_SYNC_PS, self._arrived, arrival)

    def _arrived(self, arrival) -> None:
        if self.mode == "central":
            home = arrival[1]
            if home != self.global_master:
                self.stats.add("sync.messages")
                self._message(home, self.global_master, self._central_reported, arrival)
            else:
                self._central_reported(arrival)
        else:
            self._hier_arrival(arrival)

    def _central_reported(self, arrival) -> None:
        # the master core handles every arrival serially
        self._occupy_master(self.global_master, self._central_counted, arrival)

    def _central_counted(self, arrival) -> None:
        state = arrival[0]
        state.arrived_threads += 1
        if state.arrived_threads == self.total_threads:
            self._release_central(state)

    def _hier_arrival(self, arrival) -> None:
        state, home = arrival
        state.dimm_arrivals[home] += 1
        if state.dimm_arrivals[home] != self._threads_per_dimm[home]:
            return
        # last thread of this DIMM: notify the group master
        group_master = self.config.master_dimm(self.config.group_of(home))
        if home != group_master:
            self.stats.add("sync.messages")
            self._message(home, group_master, self._group_reported, arrival)
        else:
            self._group_reported(arrival)

    def _group_reported(self, arrival) -> None:
        group_master = self.config.master_dimm(self.config.group_of(arrival[1]))
        self._occupy_master(group_master, self._group_counted, arrival)

    def _group_counted(self, arrival) -> None:
        state, home = arrival
        group = self.config.group_of(home)
        state.group_arrivals[group] += 1
        if state.group_arrivals[group] != self._dimms_per_group[group]:
            return
        # last DIMM of the group: notify the global master
        group_master = self.config.master_dimm(group)
        if group_master != self.global_master:
            self.stats.add("sync.messages")
            self.stats.add("sync.inter_group_messages")
            self._message(
                group_master, self.global_master, self._global_reported, arrival
            )
        else:
            self._global_counted(arrival)

    def _global_reported(self, arrival) -> None:
        self._occupy_master(self.global_master, self._global_counted, arrival)

    def _global_counted(self, arrival) -> None:
        state = arrival[0]
        state.arrived_threads += 1  # counts completed groups in hier mode
        if state.arrived_threads == len(self._dimms_per_group):
            self._release_hier(state)

    # -- release paths --------------------------------------------------------------

    def _release_central(self, state: _Generation) -> None:
        state.released = True
        self.stats.add("sync.barriers")
        for dimm in state.waiters:
            self.sim.schedule(0, self._release_dimm, (state, dimm, self.global_master))

    def _release_hier(self, state: _Generation) -> None:
        state.released = True
        self.stats.add("sync.barriers")
        for group, _count in self._dimms_per_group.items():
            self.sim.schedule(0, self._release_group, (state, group))

    def _release_group(self, release) -> None:
        group_master = self.config.master_dimm(release[1])
        if group_master != self.global_master:
            self.stats.add("sync.messages")
            self.stats.add("sync.inter_group_messages")
            self._occupy_master(self.global_master, self._group_release_sent, release)
        else:
            self._group_released(release)

    def _group_release_sent(self, release) -> None:
        # the host just forwarded the arrival, so it expects the release
        group_master = self.config.master_dimm(release[1])
        self._message(
            self.global_master, group_master, self._group_released, release, True
        )

    def _group_released(self, release) -> None:
        state, group = release
        group_master = self.config.master_dimm(group)
        for dimm in state.waiters:
            if self.config.group_of(dimm) == group:
                self.sim.schedule(0, self._release_dimm, (state, dimm, group_master))

    def _release_dimm(self, release) -> None:
        _state, dimm, via = release
        if dimm != via:
            self.stats.add("sync.messages")
            self._occupy_master(via, self._dimm_release_sent, release)
        else:
            self._dimm_released(release)

    def _dimm_release_sent(self, release) -> None:
        _state, dimm, via = release
        self._message(via, dimm, self._dimm_released, release, True)

    def _dimm_released(self, release) -> None:
        # master core releases local threads
        self.sim.schedule(LOCAL_SYNC_PS, self._wake, release)

    def _wake(self, release) -> None:
        for event in release[0].waiters[release[1]]:
            event.succeed(None)
