"""Host-CPU baseline system (the paper's 16-core OoO reference).

Runs the same workload op streams on host cores: every access crosses the
DIMM's memory channel (HA mode), with a fixed LLC hit fraction served
on-chip.  Threads beyond the core count time-multiplex, scaling compute
time; memory contention emerges from the shared channel buses and the
DRAM bank model.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.dram.address import PAGE_BYTES, page_offset
from repro.dram.module import DRAMModule
from repro.dram.timing import preset
from repro.errors import WorkloadError
from repro.host.memchannel import MemoryChannel
from repro.nmp.executor import ThreadExecutor, deterministic_hit, run_threads
from repro.nmp.results import RunResult
from repro.sim.engine import SimEvent, Simulator
from repro.sim.stats import StatRegistry
from repro.sim.time import ns
from repro.workloads.base import ThreadFactory
from repro.workloads.ops import Broadcast, Write

#: outstanding-miss window per host hardware thread.
HOST_WINDOW = 10
#: latency of the software barrier release after the last arrival.
SW_BARRIER_PS = ns(150.0)


class _SoftwareBarrier:
    """Shared-memory sense-reversing barrier for the CPU baseline."""

    def __init__(self, sim: Simulator, participants: int) -> None:
        self.sim = sim
        self.participants = participants
        self._arrived = 0
        self._waiters: List[SimEvent] = []

    def enter(self) -> SimEvent:
        event = self.sim.event(name="cpu.barrier")
        self._arrived += 1
        self._waiters.append(event)
        if self._arrived == self.participants:
            waiters, self._waiters = self._waiters, []
            self._arrived = 0
            self.sim.schedule(
                SW_BARRIER_PS, lambda _arg: [w.succeed(None) for w in waiters], None
            )
        return event


class HostCore(ThreadExecutor):
    """One host hardware thread executing a workload thread."""

    def __init__(
        self,
        sim: Simulator,
        system: "HostCPUSystem",
        index: int,
        compute_scale: float,
        stats: StatRegistry,
        home_dimm: int = 0,
    ) -> None:
        host = system.config.host
        super().__init__(
            sim,
            freq_ghz=host.freq_ghz * host.ipc,
            window=HOST_WINDOW,
            stats=stats,
            name=f"cpu.core{index}",
            compute_scale=compute_scale,
        )
        self.system = system
        #: the DIMM this thread's block would naturally live on — the
        #: "toucher" identity page-placement policies see.  The host has
        #: no locality (every access crosses a channel), but migrating
        #: toward the toucher still models the OS packing a thread's
        #:  working set onto one module.
        self.home_dimm = home_dimm
        self._access_counter = 0
        self._llc_hit_rate = host.llc_hit_rate
        self._llc_ps = ns(host.llc_latency_ns)
        self._n_llc = f"{self.name}.llc"

    def memory_access(self, op) -> Tuple[Optional[SimEvent], bool]:
        is_write = isinstance(op, Write)
        target, migration = self.resolve_target(op, self.home_dimm)
        if migration is not None:
            return self._migrate_then_access(op, target, migration, is_write), False
        self._access_counter += 1
        if not is_write and deterministic_hit(
            self._access_counter, self._llc_hit_rate
        ):
            self.stats.add("core.cache_hits")
            hit = SimEvent(self.sim, self._n_llc)
            self.sim.schedule(self._llc_ps, hit.succeed, op.nbytes)
            return hit, False
        return self.system.memory_request(target, op.offset, op.nbytes, is_write), False

    def _migrate_then_access(
        self, op, target: int, migration: Tuple[int, int], is_write: bool
    ) -> SimEvent:
        """Copy the page across channels (read old, write new), then access."""
        done = self.sim.event(name=f"{self.name}.migrated")
        self.sim.schedule(0, self._migrate, (op, target, migration, is_write, done))
        return done

    # A migration is a callback chain over ``(op, target, (src, dst),
    # is_write, done)``, extended by its start time and trace span.

    def _migrate(self, move) -> None:
        op, _target, (src, dst), _is_write, _done = move
        trace = self.sim.trace
        span = (
            trace.begin("placement", "migrate", self.name, page=op.page, src=src, dst=dst)
            if trace.enabled
            else None
        )
        self.system.memory_request(src, page_offset(op.page), PAGE_BYTES, False).then(
            self._page_read, move + (self.sim.now, span)
        )

    def _page_read(self, move) -> None:
        dst = move[2][1]
        self.system.memory_request(
            dst, page_offset(move[0].page), PAGE_BYTES, True
        ).then(self._migrated, move)

    def _migrated(self, move) -> None:
        op, target, _migration, is_write, _done, begin, span = move
        self.stats.add("placement.migrations")
        self.stats.add("placement.migrated_bytes", PAGE_BYTES)
        self.stats.add("placement.migration_ps", self.sim.now - begin)
        if span is not None:
            self.sim.trace.end(span)
        self.system.memory_request(target, op.offset, op.nbytes, is_write).then(
            self._migrated_access_done, move
        )

    def _migrated_access_done(self, move) -> None:
        move[4].succeed(move[0].nbytes)

    def broadcast(self, op: Broadcast) -> SimEvent:
        # shared memory: a broadcast is just the producer's single write
        return self.system.memory_request(0, op.offset, op.nbytes, True)

    def barrier(self, thread_id: int) -> SimEvent:
        return self.system.barrier.enter()


class HostCPUSystem:
    """The 16-core CPU baseline machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.stats = StatRegistry()
        import dataclasses

        # the host sustains only a fraction of peak channel bandwidth on
        # these kernels' irregular access patterns (HostConfig docstring)
        derated = dataclasses.replace(
            config.channel,
            bandwidth_gbps=config.channel.bandwidth_gbps
            * config.host.channel_efficiency,
        )
        self.channels = [
            MemoryChannel(
                self.sim, ch, config.dimms_on_channel(ch), derated, self.stats
            )
            for ch in range(config.num_channels)
        ]
        timing = preset(config.dram_preset)
        self.drams = [
            DRAMModule(
                self.sim,
                timing,
                ranks=config.ranks_per_dimm,
                stats=self.stats.scope(f"dimm{d}"),
                name=f"dimm{d}.dram",
            )
            for d in range(config.num_dimms)
        ]
        self.barrier: _SoftwareBarrier | None = None

    def memory_request(
        self, dimm: int, offset: int, nbytes: int, is_write: bool
    ) -> SimEvent:
        """One host memory access: channel bus + DRAM on the target DIMM.

        Command and data cross the channel; the DRAM access overlaps the
        burst, so the access charges bus occupancy plus the bank
        completion time.  A chain of callbacks, one per simulator slot.
        """
        done = self.sim.event(name="cpu.mem")
        request = (dimm, offset, nbytes, is_write, done)
        self.sim.schedule(0, self._cross_channel, request)
        return done

    def _cross_channel(self, request) -> None:
        channel = self.channels[self.config.channel_of(request[0])]
        # bus transfers only ever succeed, so the next step needs no check
        channel.transfer(request[2], kind="data").then(self._access_dram, request)

    def _access_dram(self, request) -> None:
        dimm, offset, nbytes, is_write, _done = request
        self.sim.at(
            self.drams[dimm].completion_time(offset, nbytes, is_write),
            self._dram_done,
            request,
        )

    def _dram_done(self, request) -> None:
        self.sim.schedule(0, self._finish, request)

    def _finish(self, request) -> None:
        request[4].succeed(request[2])

    def run(
        self,
        thread_factories: List[ThreadFactory],
        placement: Optional[List[int]] = None,
        workload_name: str = "kernel",
        pagetable=None,
    ) -> RunResult:
        """Execute a kernel on the host cores (placement is ignored)."""
        if not thread_factories:
            raise WorkloadError("kernel needs at least one thread")
        num_threads = len(thread_factories)
        num_dimms = self.config.num_dimms
        compute_scale = max(1.0, num_threads / self.config.host.cores)
        self.barrier = _SoftwareBarrier(self.sim, num_threads)
        placed = []
        for index, factory in enumerate(thread_factories):
            home = index * num_dimms // num_threads
            core = HostCore(
                self.sim, self, index, compute_scale, self.stats, home_dimm=home
            )
            core.pagetable = pagetable
            placed.append((core, factory()))
        ends = run_threads(self.sim, placed)
        return RunResult(
            system_name=f"cpu-{self.config.name}",
            mechanism="cpu",
            workload=workload_name,
            time_ps=max(ends),
            thread_end_ps=ends,
            stats=self.stats,
            bus_occupancy=[channel.occupancy() for channel in self.channels],
        )
