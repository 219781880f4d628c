"""Differential tests: the fused line walk equals the per-line reference walk.

``DRAMModule.completion_time`` walks a request's cache lines in one fused
pass (one decode, one refresh gate per request, activate gate only on
activating lines, one stats add per counter).  The reference below is the
straightforward line-at-a-time walk it replaced: decode every line, gate
it, access its bank, and add each line's stats as it goes.  Both are
driven with the same seeded request streams on twin modules; completion
times, every bank and rank timeline, the stats (values *and* key
creation order) and the ``dram`` trace spans must be identical.
"""

import random

import pytest

from repro.dram import (
    BULK_THRESHOLD,
    LINE_BYTES,
    ROW_CONFLICT,
    ROW_HIT,
    ROW_MISS,
    DRAMModule,
    presets,
)
from repro.errors import ConfigError
from repro.sim import StatRegistry
from repro.trace import TraceRecorder
from repro.trace.recorder import NULL_RECORDER

# -- reference: the line-at-a-time walk ----------------------------------------------

_CATEGORY_STAT = {
    ROW_HIT: "dram.row_hit",
    ROW_MISS: "dram.row_miss",
    ROW_CONFLICT: "dram.row_conflict",
}


def _refresh_gate(timing, t):
    trefi, trfc = timing.trefi_ps, timing.trfc_ps
    if t % trefi >= trefi - trfc:
        return (t // trefi + 1) * trefi
    return t


def _activate_gate(rank, t):
    recent = rank._recent_activates
    gate = t
    if recent:
        gate = max(gate, recent[-1] + rank.timing.trrd_ps)
    if len(recent) == 4:
        gate = max(gate, recent[0] + rank.timing.tfaw_ps)
    return gate


def _bank_access(timing, bank, now, row, is_write, act_gate):
    start = max(now, bank.ready_at)
    if bank.open_row == row:
        category = ROW_HIT
        data_ready = start + timing.tcas_ps
        bank.ready_at = start + timing.tburst_ps
    elif bank.open_row is None:
        category = ROW_MISS
        act_at = max(start, act_gate)
        data_ready = act_at + timing.trcd_ps + timing.tcas_ps
        bank.open_row = row
        bank.activated_at = act_at
        bank.ready_at = act_at + timing.trcd_ps + timing.tburst_ps
    else:
        category = ROW_CONFLICT
        pre_at = max(start, bank.activated_at + timing.tras_ps)
        act_at = max(pre_at + timing.trp_ps, act_gate)
        data_ready = act_at + timing.trcd_ps + timing.tcas_ps
        bank.open_row = row
        bank.activated_at = act_at
        bank.ready_at = act_at + timing.trcd_ps + timing.tburst_ps
    if is_write:
        bank.ready_at = max(bank.ready_at, data_ready + timing.twr_ps)
    return data_ready, category


def _access_line(module, rank, now, bank_id, row, is_write):
    timing = module.timing
    bank = rank.banks[bank_id]
    start = _refresh_gate(timing, now)
    act_gate = _refresh_gate(timing, _activate_gate(rank, start))
    data_ready, category = _bank_access(timing, bank, start, row, is_write, act_gate)
    if category != ROW_HIT:
        rank._recent_activates.append(bank.activated_at)
        module.stats.add("dram.activates")
    module.stats.add(_CATEGORY_STAT[category])
    burst_start = max(data_ready, rank._bus_free_at)
    done = burst_start + timing.tburst_ps
    rank._bus_free_at = done
    kind = "write" if is_write else "read"
    module.stats.add(
        "dram.write_bytes" if is_write else "dram.read_bytes", timing.burst_bytes
    )
    if module.sim.trace.enabled:
        module.sim.trace.complete(
            "dram", category, f"{rank.name}.bank{bank_id}", start, done,
            row=row, kind=kind,
        )
    return done


def _stream(module, rank, now, nbytes, is_write):
    """One rank's share of a bulk request: first-word latency + streaming.

    A long sequential burst is one row-miss latency followed by data
    streamed at 85% of the rank's peak bandwidth.
    """
    timing = module.timing
    start = _refresh_gate(timing, now)
    first = start + timing.trcd_ps + timing.tcas_ps
    effective_gbps = timing.rank_bandwidth_gbps * 0.85
    stream_ps = int(nbytes / effective_gbps * 1000)
    done = max(first, rank._bus_free_at) + stream_ps
    rank._bus_free_at = done
    if module.sim.trace.enabled:
        kind = "write" if is_write else "read"
        module.sim.trace.complete(
            "dram", "stream", rank.name, start, done, bytes=nbytes, kind=kind
        )
    return done


def reference_completion_time(module, offset, nbytes, is_write):
    """The per-line walk (and per-rank bulk streams and stats) the fused
    walk replaced."""
    now = module.sim.now
    if nbytes >= BULK_THRESHOLD:
        per_rank = nbytes // len(module.ranks)
        done = 0
        for rank in module.ranks:
            done = max(done, _stream(module, rank, now, per_rank, is_write))
            kind = "write" if is_write else "read"
            module.stats.add(f"dram.{kind}_bytes", per_rank)
            module.stats.add(
                "dram.activates", max(1, per_rank // module.timing.row_bytes)
            )
        return done
    done = 0
    line_start = offset - (offset % LINE_BYTES)
    while line_start < offset + nbytes:
        loc = module.address_map.decode(line_start)
        rank = module.ranks[loc.rank]
        done = max(done, _access_line(module, rank, now, loc.bank, loc.row, is_write))
        line_start += LINE_BYTES
    return done


# -- twin modules ----------------------------------------------------------------------


class _Clock:
    """The slice of a simulator the DRAM timeline reads: a clock and a trace."""

    def __init__(self) -> None:
        self.now = 0
        self.trace = NULL_RECORDER


def _twins(timing, ranks, trace=False):
    modules = []
    for _ in range(2):
        clock = _Clock()
        if trace:
            clock.trace = TraceRecorder(clock, max_events=1 << 20)
        modules.append(DRAMModule(clock, timing, ranks, StatRegistry(), name="dimm"))
    return modules


def _state(module):
    banks = [
        (bank.open_row, bank.ready_at, bank.activated_at)
        for rank in module.ranks
        for bank in rank.banks
    ]
    ranks = [(list(rank._recent_activates), rank._bus_free_at) for rank in module.ranks]
    return banks, ranks


def _arrivals(rng, timing, count):
    """Non-decreasing arrival times, many of them at refresh-window edges."""
    trefi, trfc = timing.trefi_ps, timing.trfc_ps
    now = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            # snap to an edge of the next refresh window
            base = (now // trefi + 1) * trefi
            now = max(now, base + rng.choice((-trfc - 1, -trfc, -trfc + 1, -1, 0, 1)))
        elif roll < 0.25:
            # land inside the current (or next) refresh window
            window = (now // trefi) * trefi + trefi - trfc
            now = max(now, window + rng.randrange(trfc))
        elif roll < 0.55:
            pass  # same instant: back-to-back requests stress tRRD/tFAW
        else:
            now += rng.randrange(1, 60_000)
        yield now


def _request_stream(rng, timing, ranks, count, bulk=False):
    # a handful of rows per bank, so hits, misses and conflicts all occur
    span = ranks * timing.banks_per_rank * timing.row_bytes * 3
    for now in _arrivals(rng, timing, count):
        if bulk and rng.random() < 0.2:
            nbytes = rng.randrange(BULK_THRESHOLD, 1 << 16)
        else:
            nbytes = rng.randint(1, BULK_THRESHOLD - 1) if rng.random() < 0.3 else (
                rng.randint(1, 512)
            )
        offset = rng.randrange(span)
        yield now, offset, nbytes, rng.random() < 0.35, rng.random() < 0.03


def _drive(timing, ranks, seed, count=400, bulk=False, trace=False):
    fused, reference = _twins(timing, ranks, trace=trace)
    rng = random.Random(seed)
    for now, offset, nbytes, is_write, precharge in _request_stream(
        rng, timing, ranks, count, bulk=bulk
    ):
        if precharge:
            fused.precharge_all()
            reference.precharge_all()
        fused.sim.now = reference.sim.now = now
        got = fused.completion_time(offset, nbytes, is_write)
        want = reference_completion_time(reference, offset, nbytes, is_write)
        assert got == want, (now, offset, nbytes, is_write)
    return fused, reference


def _assert_identical(fused, reference):
    assert _state(fused) == _state(reference)
    assert fused.stats.to_json_dict() == reference.stats.to_json_dict()
    # same key creation order too: time-series samples iterate it
    assert list(fused.stats.counters()) == list(reference.stats.counters())


# -- tests -------------------------------------------------------------------------------


@pytest.mark.parametrize("preset_name", sorted(presets()))
@pytest.mark.parametrize("ranks", [1, 2, 4])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_fused_walk_matches_reference(preset_name, ranks, seed):
    timing = presets()[preset_name]
    fused, reference = _drive(timing, ranks, seed)
    _assert_identical(fused, reference)
    # the stream really exercised every category and both directions
    stats = fused.stats
    for key in ("row_hit", "row_miss", "row_conflict", "read_bytes", "write_bytes"):
        assert stats.get(f"dram.{key}") > 0, key


@pytest.mark.parametrize("ranks", [1, 2, 4])
def test_bulk_stats_fold_matches_per_rank_adds(ranks):
    timing = presets()["DDR4_2400_LRDIMM"]
    fused, reference = _drive(timing, ranks, seed=5, count=300, bulk=True, trace=True)
    _assert_identical(fused, reference)
    streams = [span for span in fused.sim.trace.spans if span[1] == "stream"]
    assert streams
    assert streams == [
        span for span in reference.sim.trace.spans if span[1] == "stream"
    ]


@pytest.mark.parametrize("ranks", [1, 2, 4])
def test_bulk_stream_inside_refresh_window_matches_reference(ranks):
    """A bulk request arriving mid-refresh streams on every rank from the
    window's end; each rank's data bus and ``stream`` span match the
    per-rank reference after every request."""
    timing = presets()["DDR4_2666_RDIMM"]
    fused, reference = _twins(timing, ranks, trace=True)
    trefi, trfc = timing.trefi_ps, timing.trfc_ps
    inside = trefi - trfc + trfc // 2
    requests = (
        (0, 0, 256, False),  # leaves rank 0's bus busy for the first stream
        (inside, 0, 3 * BULK_THRESHOLD + 64, True),
        (inside, 1 << 15, BULK_THRESHOLD, False),  # queues behind it
        (trefi + 5, 64, 1 << 16, False),
    )
    for now, offset, nbytes, is_write in requests:
        fused.sim.now = reference.sim.now = now
        got = fused.completion_time(offset, nbytes, is_write)
        assert got == reference_completion_time(reference, offset, nbytes, is_write)
        assert [rank._bus_free_at for rank in fused.ranks] == [
            rank._bus_free_at for rank in reference.ranks
        ]
    _assert_identical(fused, reference)
    assert fused.sim.trace.spans == reference.sim.trace.spans
    streams = [span for span in fused.sim.trace.spans if span[1] == "stream"]
    assert len(streams) == 3 * ranks
    # both mid-refresh streams start at the end of the refresh window
    assert {span[4] for span in streams[: 2 * ranks]} == {trefi}


def test_tfaw_burst_matches_reference():
    """Same-instant single-line misses to distinct banks: tRRD then tFAW bind."""
    timing = presets()["DDR4_3200_RDIMM"]
    fused, reference = _twins(timing, 1)
    for index in range(3 * timing.banks_per_rank):
        offset = index * LINE_BYTES + (index // timing.banks_per_rank) * (
            timing.banks_per_rank * timing.row_bytes
        )
        got = fused.completion_time(offset, 64, False)
        assert got == reference_completion_time(reference, offset, 64, False)
    _assert_identical(fused, reference)
    assert len(fused.ranks[0]._recent_activates) == 4


@pytest.mark.parametrize("ranks", [1, 2])
def test_trace_spans_match_reference(ranks):
    timing = presets()["DDR4_2666_RDIMM"]
    fused, reference = _drive(timing, ranks, seed=3, count=250, bulk=True, trace=True)
    _assert_identical(fused, reference)
    spans = fused.sim.trace.spans
    assert spans and spans == reference.sim.trace.spans
    assert {span[1] for span in spans} >= {ROW_HIT, ROW_MISS, ROW_CONFLICT, "stream"}


@pytest.mark.parametrize("nbytes", [64, BULK_THRESHOLD, 1 << 20])
def test_negative_offset_rejected_on_every_path(nbytes):
    (module, _) = _twins(presets()["DDR4_2400_LRDIMM"], 2)
    with pytest.raises(ConfigError):
        module.completion_time(-1, nbytes, False)
    # rejected before touching any timeline or counter
    assert module.stats.to_json_dict() == {"counters": {}, "histograms": {}}
    assert all(rank._bus_free_at == 0 for rank in module.ranks)
