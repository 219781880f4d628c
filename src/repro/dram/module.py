"""A DRAM module: the memory of one DIMM (all ranks behind its buffer chip).

The module walks each byte-addressed request over its cache lines and
advances the bank and rank timelines (:mod:`repro.dram.bank`) line by
line.  Requests of :data:`BULK_THRESHOLD` bytes or more are streamed
instead — one row-miss latency, then data at a derated rank bandwidth
on every rank — so multi-megabyte transfers (Fig. 1's bulk sweep) stay
cheap to simulate.
"""

from __future__ import annotations

from repro.dram.address import LINE_BYTES, AddressMap
from repro.dram.bank import ROW_CONFLICT, ROW_HIT, ROW_MISS, Rank
from repro.dram.timing import DRAMTiming
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import SimEvent, Simulator
from repro.sim.stats import StatRegistry

#: Requests at or above this size are streamed across every rank.
BULK_THRESHOLD = 4096
#: share of a rank's peak bandwidth a bulk stream sustains (row
#: turnarounds and refresh steal ~15%).
STREAM_EFFICIENCY = 0.85

_CATEGORY_STAT = {
    ROW_HIT: "dram.row_hit",
    ROW_MISS: "dram.row_miss",
    ROW_CONFLICT: "dram.row_conflict",
}


class DRAMModule:
    """All ranks of one DIMM, with a shared address map."""

    def __init__(
        self,
        sim: Simulator,
        timing: DRAMTiming,
        ranks: int,
        stats: StatRegistry,
        name: str = "dram",
    ) -> None:
        if ranks <= 0:
            raise SimulationError(f"{name}: rank count must be positive")
        self.sim = sim
        self.timing = timing
        self.name = name
        self.stats = stats
        self.address_map = AddressMap.for_timing(ranks, timing)
        self.ranks = [Rank(timing, name=f"{name}.rank{i}") for i in range(ranks)]
        self._event_name = f"{name}.access"
        #: everything the line walk reads, unpacked into locals per request.
        self._walk = (
            timing.trefi_ps,
            timing.trefi_ps - timing.trfc_ps,
            timing.tcas_ps,
            timing.tburst_ps,
            timing.trcd_ps + timing.tcas_ps,
            timing.trcd_ps + timing.tburst_ps,
            timing.tras_ps,
            timing.trp_ps,
            timing.trrd_ps,
            timing.tfaw_ps,
            timing.twr_ps,
            timing.banks_per_rank,
            ranks,
            self.address_map.lines_per_row,
        )
        #: bulk streaming rate per rank, in GB/s (bytes per ns).
        self._stream_gbps = timing.rank_bandwidth_gbps * STREAM_EFFICIENCY

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth across ranks (accessed in parallel)."""
        return len(self.ranks) * self.timing.rank_bandwidth_gbps

    def completion_time(self, offset: int, nbytes: int, is_write: bool) -> int:
        """When a request arriving now would complete (advances bank state).

        One pass over the request's lines: only the first line is decoded
        (later ones step bank -> rank -> column -> row), the refresh gate of
        ``now`` is shared by every line, and the tRRD/tFAW activate gate is
        computed only for lines that activate a row.  Hits, misses,
        conflicts, activates and bytes are tallied locally and flushed
        with one stats add per counter.

        A bulk request (``nbytes >= BULK_THRESHOLD``) is split evenly over
        the ranks instead: each rank's share starts one row-miss latency
        after the same refresh-gated ``now`` (or when its data bus frees)
        and streams at the derated rank bandwidth.
        """
        if nbytes <= 0:
            raise SimulationError(f"{self.name}: request size must be positive")
        if offset < 0:
            raise ConfigError(f"{self.name}: negative address offset {offset}")
        now = self.sim.now
        stats = self.stats
        bytes_stat = "dram.write_bytes" if is_write else "dram.read_bytes"
        (trefi, refresh_from, tcas, tburst, trcd_cas, trcd_burst, tras, trp,
         trrd, tfaw, twr, nbanks, nranks, lines_per_row) = self._walk
        start = (now // trefi + 1) * trefi if now % trefi >= refresh_from else now
        trace = self.sim.trace
        tracing = trace.enabled
        kind = "write" if is_write else "read"
        done = 0

        if nbytes >= BULK_THRESHOLD:
            per_rank = nbytes // nranks
            first = start + trcd_cas
            stream_ps = int(per_rank / self._stream_gbps * 1000)
            for rank in self.ranks:
                bus_free = rank._bus_free_at
                bus_free = (first if first > bus_free else bus_free) + stream_ps
                rank._bus_free_at = bus_free
                if tracing:
                    trace.complete(
                        "dram", "stream", rank.name, start, bus_free,
                        bytes=per_rank, kind=kind,
                    )
                if bus_free > done:
                    done = bus_free
            stats.add(bytes_stat, per_rank * nranks)
            stats.add(
                "dram.activates", max(1, per_rank // self.timing.row_bytes) * nranks
            )
            return done

        nlines = (offset + nbytes - 1) // LINE_BYTES - offset // LINE_BYTES + 1
        rank_id, bank_id, row, column = self.address_map.decode(offset)

        hits = misses = conflicts = 0
        # categories in order of first occurrence (stat-key creation order)
        order = []
        remaining = nlines
        while True:  # one run of consecutive banks within one rank
            rank = self.ranks[rank_id]
            banks = rank.banks
            recent = rank._recent_activates
            bus_free = rank._bus_free_at
            stop = bank_id + remaining
            if stop > nbanks:
                stop = nbanks
            remaining -= stop - bank_id
            for bank_id in range(bank_id, stop):
                bank = banks[bank_id]
                ready = bank.ready_at
                begin = start if start > ready else ready
                open_row = bank.open_row
                if open_row == row:
                    category = ROW_HIT
                    if not hits:
                        order.append(ROW_HIT)
                    hits += 1
                    data_ready = begin + tcas
                    ready = begin + tburst
                else:
                    gate = start
                    if recent:
                        if recent[-1] + trrd > gate:
                            gate = recent[-1] + trrd
                        if len(recent) == 4 and recent[0] + tfaw > gate:
                            gate = recent[0] + tfaw
                    if gate % trefi >= refresh_from:
                        gate = (gate // trefi + 1) * trefi
                    if open_row is None:
                        category = ROW_MISS
                        if not misses:
                            order.append(ROW_MISS)
                        misses += 1
                        act_at = begin if begin > gate else gate
                    else:
                        category = ROW_CONFLICT
                        if not conflicts:
                            order.append(ROW_CONFLICT)
                        conflicts += 1
                        pre_at = bank.activated_at + tras
                        if begin > pre_at:
                            pre_at = begin
                        act_at = pre_at + trp
                        if gate > act_at:
                            act_at = gate
                    data_ready = act_at + trcd_cas
                    ready = act_at + trcd_burst
                    bank.open_row = row
                    bank.activated_at = act_at
                    recent.append(act_at)
                if is_write and data_ready + twr > ready:
                    # write recovery keeps the bank busy after the burst
                    ready = data_ready + twr
                bank.ready_at = ready
                # serialise the burst on the rank's shared data bus
                bus_free = (data_ready if data_ready > bus_free else bus_free) + tburst
                if tracing:
                    trace.complete(
                        "dram",
                        category,
                        f"{rank.name}.bank{bank_id}",
                        start,
                        bus_free,
                        row=row,
                        kind=kind,
                    )
            rank._bus_free_at = bus_free
            if bus_free > done:
                done = bus_free
            if not remaining:
                break
            bank_id = 0
            rank_id += 1
            if rank_id == nranks:
                rank_id = 0
                column += 1
                if column == lines_per_row:
                    column = 0
                    row += 1

        # Flush in the order a line-at-a-time walk would first have created
        # each key: categories by first occurrence, bytes right after the
        # first line's.  Activates can go first: the key is new only on the
        # registry's first activating request, whose first line is a miss.
        if misses or conflicts:
            stats.add("dram.activates", misses + conflicts)
        counts = {ROW_HIT: hits, ROW_MISS: misses, ROW_CONFLICT: conflicts}
        for index, category in enumerate(order):
            stats.add(_CATEGORY_STAT[category], counts[category])
            if not index:
                stats.add(bytes_stat, nlines * self.timing.burst_bytes)
        return done

    def access(self, offset: int, nbytes: int, is_write: bool) -> SimEvent:
        """Issue a request; the returned event fires at completion."""
        done = self.completion_time(offset, nbytes, is_write)
        event = self.sim.event(name=self._event_name)
        self.sim.at(done, event.succeed, nbytes)
        return event

    def precharge_all(self) -> None:
        """Close all rows (mode switches between HA and NA, Sec. III-E)."""
        for rank in self.ranks:
            rank.precharge_all()
