"""Tests for the tracing/observability layer (repro.trace)."""

import json

from repro.sim import Simulator, StatRegistry
from repro.sim.time import ns
from repro.trace import (
    NULL_RECORDER,
    TimeSeriesSampler,
    TraceRecorder,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
)


# -- recorder ----------------------------------------------------------------------


def test_simulator_defaults_to_null_recorder():
    sim = Simulator()
    assert sim.trace is NULL_RECORDER
    assert not sim.trace.enabled
    # every NullRecorder method is a no-op
    assert sim.trace.begin("network", "x", "g") is None
    sim.trace.end(None, status="ok")
    sim.trace.instant("network", "x")
    sim.trace.on_time_advance(123)


def test_recorder_spans_capture_sim_time():
    sim = Simulator()
    rec = TraceRecorder(sim)
    sim.trace = rec

    span = rec.begin("nmp", "thread", "core0", thread=3)
    sim.schedule(100, lambda _arg: rec.end(span, status="done"))
    sim.run()
    assert len(rec.spans) == 1
    cat, name, group, lane, start, end, args = rec.spans[0]
    assert (cat, name, group, lane) == ("nmp", "thread", "core0", 0)
    assert (start, end) == (0, 100)
    assert args == {"thread": 3, "status": "done"}


def test_recorder_concurrent_spans_get_distinct_lanes():
    sim = Simulator()
    rec = TraceRecorder(sim)
    a = rec.begin("network", "pkt", "link")
    b = rec.begin("network", "pkt", "link")
    assert (a.lane, b.lane) == (0, 1)
    rec.end(a)
    c = rec.begin("network", "pkt", "link")
    assert c.lane == 0  # freed lane is reused
    rec.end(b)
    rec.end(c)
    assert {record[3] for record in rec.spans} == {0, 1}


def test_recorder_complete_and_instant_and_categories():
    sim = Simulator()
    rec = TraceRecorder(sim)
    rec.complete("dram", "row_hit", "rank0.bank1", 10, 25, row=7)
    rec.instant("host", "poll.notice", "host.poll")
    assert rec.categories() == ["dram", "host"]


def test_recorder_caps_events_and_counts_drops():
    sim = Simulator()
    rec = TraceRecorder(sim, max_events=2)
    for _ in range(4):
        rec.complete("dram", "x", "g", 0, 1)
    assert len(rec.spans) == 2
    assert rec.dropped == 2


# -- sampler -----------------------------------------------------------------------


def test_sampler_windows_counter_deltas():
    stats = StatRegistry()
    sampler = TimeSeriesSampler(stats, window_ps=100)
    stats.add("dl.hop_bytes", 64)
    sampler.on_time_advance(100)
    stats.add("dl.hop_bytes", 32)
    sampler.on_time_advance(250)  # crosses 200 only
    assert sampler.series("dl.hop_bytes") == [(100, 64.0), (200, 32.0)]
    # rate: delta per ns; 64 bytes over a 100 ps window = 640 bytes/ns
    assert sampler.rate_series("dl.hop_bytes")[0] == (100, 640.0)


def test_sampler_finalize_emits_partial_window_once():
    stats = StatRegistry()
    sampler = TimeSeriesSampler(stats, window_ps=100)
    stats.add("x", 5)
    sampler.on_time_advance(100)
    stats.add("x", 3)
    sampler.finalize(150)
    sampler.finalize(150)  # idempotent
    assert sampler.series("x") == [(100, 5.0), (150, 3.0)]


def test_sampler_prefix_filter_uses_component_matching():
    stats = StatRegistry()
    sampler = TimeSeriesSampler(stats, window_ps=10, prefixes=("dl",))
    stats.add("dl.hops", 1)
    stats.add("dlx.other", 1)
    sampler.on_time_advance(10)
    assert sampler.tracked_names() == ["dl.hops"]


def test_sampler_driven_by_event_loop_without_injecting_events():
    sim = Simulator()
    stats = StatRegistry()
    rec = TraceRecorder(sim)
    sampler = TimeSeriesSampler(stats, window_ps=ns(10))
    rec.add_sampler(sampler)
    sim.trace = rec

    def step(remaining):
        if remaining:
            stats.add("bytes", 100)
            sim.schedule(ns(10), step, remaining - 1)

    sim.schedule(0, step, 5)
    sim.run()
    rec.finalize()
    # the sampler must not extend simulated time beyond the last real event
    assert sim.now == ns(50)
    assert sum(delta for _t, delta in sampler.series("bytes")) == 500


def test_sampler_sees_run_until_horizon():
    # the run(until=...) clock fix must also advance samplers to the horizon
    sim = Simulator()
    stats = StatRegistry()
    rec = TraceRecorder(sim)
    sampler = TimeSeriesSampler(stats, window_ps=100)
    rec.add_sampler(sampler)
    sim.trace = rec
    sim.schedule(50, lambda _: stats.add("x", 1))
    sim.run(until=300)
    assert sim.now == 300
    assert sampler.series("x") == [(100, 1.0), (200, 0.0), (300, 0.0)]


# -- exporters ---------------------------------------------------------------------


def _small_recording():
    sim = Simulator()
    rec = TraceRecorder(sim)
    stats = StatRegistry()
    sampler = TimeSeriesSampler(stats, window_ps=100)
    rec.add_sampler(sampler)
    rec.complete("dram", "row_hit", "rank0.bank0", 0, 50, row=1)
    span = rec.begin("network", "packet", "dl.route", src=0, dst=2)
    rec.end(span, status="delivered")
    rec.instant("host", "poll.notice", "host.poll")
    stats.add("dl.hop_bytes", 64)
    sampler.on_time_advance(100)
    return rec


def test_chrome_trace_events_schema():
    events = chrome_trace_events(_small_recording())
    phases = {event["ph"] for event in events}
    assert {"M", "X", "i", "C"} <= phases
    for event in events:
        assert "pid" in event
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float)
            assert event["cat"] in ("dram", "network")


def test_write_chrome_trace_is_loadable_json(tmp_path):
    path = tmp_path / "out.trace.json"
    write_chrome_trace(_small_recording(), str(path))
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list)
    assert doc["displayTimeUnit"] == "ns"
    assert doc["otherData"]["dropped"] == 0


def test_write_jsonl_round_trips(tmp_path):
    path = tmp_path / "out.trace.jsonl"
    write_jsonl(_small_recording(), str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["type"] == "meta"
    assert rows[0]["categories"] == ["dram", "host", "network"]
    kinds = {row["type"] for row in rows}
    assert kinds == {"meta", "span", "instant", "sample"}
    span_rows = [row for row in rows if row["type"] == "span"]
    assert all(row["end_ps"] >= row["start_ps"] for row in span_rows)


# -- end-to-end through a real system ----------------------------------------------


def test_traced_system_run_covers_span_taxonomy():
    from repro.experiments.trace_run import run_traced

    traced = run_traced("fig10", size="tiny")
    rec = traced["recorder"]
    cats = set(rec.categories())
    assert {"network", "dram", "host", "nmp"} <= cats
    sampler = traced["sampler"]
    assert sampler.samples
    # the sampled deltas must add up to the final counter totals
    total = sum(delta for _t, delta in sampler.series("dl.hop_bytes"))
    assert total == traced["result"].stats.get("dl.hop_bytes")


def test_untraced_system_records_nothing():
    from repro.config import SystemConfig
    from repro.experiments.common import build_workload, run_nmp

    workload = build_workload("hotspot", "tiny")
    result = run_nmp(SystemConfig.named("4D-2C"), workload, "dimm_link")
    assert result.time_ps > 0  # ran fine with the NULL_RECORDER default
