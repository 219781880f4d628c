"""NMP core model (the general-purpose cores in each DIMM's buffer chip).

An :class:`NMPCore` executes a thread placed on its DIMM: local accesses
go through the DIMM's local memory controller (with a small deterministic
cache-hit fraction for thread-private/read-only data, Sec. III-E); remote
accesses and broadcasts go through the system's IDC mechanism; barriers go
through the synchronization manager.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.config import NMPConfig
from repro.dram.address import PAGE_BYTES, page_offset
from repro.nmp.executor import ThreadExecutor, deterministic_hit
from repro.sim.engine import SimEvent, Simulator
from repro.sim.stats import StatRegistry
from repro.sim.time import ns
from repro.workloads.ops import Broadcast, Write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sync import SyncManager
    from repro.idc.base import IDCMechanism
    from repro.nmp.localmc import LocalMemoryController


class NMPCore(ThreadExecutor):
    """One of the ``cores_per_dimm`` NMP cores on a DIMM."""

    def __init__(
        self,
        sim: Simulator,
        dimm_id: int,
        core_index: int,
        config: NMPConfig,
        mc: "LocalMemoryController",
        stats: StatRegistry,
    ) -> None:
        super().__init__(
            sim,
            freq_ghz=config.freq_ghz,
            window=config.outstanding_window,
            stats=stats,
            name=f"dimm{dimm_id}.core{core_index}",
        )
        self.dimm_id = dimm_id
        self.core_index = core_index
        self.config = config
        self.mc = mc
        self.idc: "IDCMechanism | None" = None
        self.sync: "SyncManager | None" = None
        self._access_counter = 0
        self._hit_ps = ns(config.cache_latency_ns)
        self._n_hit = f"{self.name}.hit"

    def bind(self, idc: "IDCMechanism", sync: "SyncManager") -> None:
        """Connect the core to the run's IDC mechanism and barrier service."""
        self.idc = idc
        self.sync = sync

    # -- ThreadExecutor hooks ---------------------------------------------------

    def memory_access(self, op) -> Tuple[Optional[SimEvent], bool]:
        is_write = isinstance(op, Write)
        target, migration = self.resolve_target(op, self.dimm_id)
        if migration is not None:
            return self._migrate_then_access(op, target, migration, is_write), True
        is_remote = target != self.dimm_id
        if not is_remote and not is_write:
            self._access_counter += 1
            if deterministic_hit(self._access_counter, self.config.local_hit_rate):
                self.stats.add("core.cache_hits")
                hit = SimEvent(self.sim, self._n_hit)
                self.sim.schedule(self._hit_ps, hit.succeed, op.nbytes)
                return hit, False
        return self.mc.submit(target, op.offset, op.nbytes, is_write), is_remote

    def _migrate_then_access(
        self, op, target: int, migration: Tuple[int, int], is_write: bool
    ) -> SimEvent:
        """Pull the page from its old owner over the IDC, then access it.

        The page table already switched ownership; this charges the
        ``PAGE_BYTES`` copy (new owner reads the page from the old one
        through the active IDC mechanism) before the triggering access,
        which is then served by the new owner — usually locally.
        """
        if self.idc is None:
            raise RuntimeError(f"{self.name}: core not bound to an IDC mechanism")
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
        self.idc.remote_read(dst, src, page_offset(op.page), PAGE_BYTES).then(
            self._migrated, move + (self.sim.now, span)
        )

    def _migrated(self, move) -> None:
        op, target, _migration, is_write, _done, begin, span = move
        self.stats.add("placement.migrations")
        self.stats.add("placement.migrated_bytes", PAGE_BYTES)
        self.stats.add("placement.migration_ps", self.sim.now - begin)
        if span is not None:
            self.sim.trace.end(span)
        self.mc.submit(target, op.offset, op.nbytes, is_write).then(
            self._migrated_access_done, move
        )

    def _migrated_access_done(self, move) -> None:
        move[4].succeed(move[0].nbytes)

    def broadcast(self, op: Broadcast) -> SimEvent:
        if self.idc is None:
            raise RuntimeError(f"{self.name}: core not bound to an IDC mechanism")
        return self.idc.broadcast(self.dimm_id, op.offset, op.nbytes)

    def barrier(self, thread_id: int) -> SimEvent:
        if self.sync is None:
            raise RuntimeError(f"{self.name}: core not bound to a sync manager")
        return self.sync.barrier(thread_id)
