"""Pinned regression suite for the event loop's observable behaviour.

These probes began as the differential suite of the epoch fast-forward
loop, which ran every scenario under both that loop and the per-event
heap loop and asserted equality.  Both loops are gone; the engine now
has one heap-plus-lane loop (DESIGN.md §14).  Each probe instead checks
it against digests recorded under the two-loop kernel: callback order,
clock values, event counts, run results and trace streams must stay
byte-identical, which is what lets
:data:`repro.results_cache.CODE_VERSION` stay unchanged.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import RunSpec, execute_spec
from repro.sim import BandwidthResource, Simulator
from tests.genproc import AllOf, Process


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- engine-level probes -----------------------------------------------------------

#: the probe under the two-loop kernel: log digest, end time, final seq.
PROBE_LOG_SHA = "2505ecfe48ae9336a500c0c0ccc87bae147f7378048061241a0818b950592478"
PROBE_END_PS = 1_659_200
PROBE_EVENTS = 186


def _probe_sim():
    """A scenario crossing every scheduling path: serialised link
    completions, plain timers, out-of-order absolute timers, zero-delay
    and at-now callbacks, generator processes (tests/genproc.py) joined
    through a first-of event and an AllOf, a wait on an already-finished
    process, and a zero-length sleep."""
    sim = Simulator()
    log = []

    def note(tag):
        log.append((sim.now, tag))

    link = BandwidthResource(sim, 10.0, latency_ps=40_000, name="link")

    def worker(count, size, tag):
        for i in range(count):
            yield link.transfer(size)
            note(f"{tag}:{i}")
        return tag

    wa = Process(sim, worker(25, 256, "wa"), name="wa")
    wb = Process(sim, worker(25, 192, "wb"), name="wb")

    def chain(depth):
        note(f"chain:{depth}")
        if depth:
            sim.schedule(1_500, chain, depth - 1)
            sim.schedule(0, note, f"zero:{depth}")
            sim.at(sim.now, note, f"now:{depth}")

    sim.schedule(3_000, chain, 12)

    when = 5_000
    for i in range(30):
        sim.at(when, note, f"aux:{i}")
        when += 7_000
    sim.at(12_345, note, "aux:ooo")  # earlier than the timers above
    for i in range(10):
        sim.at(9_000 + 17_000 * i, note, f"at:{i}")

    def joiner():
        timeout = sim.event("timeout")
        sim.schedule(50_000, timeout.succeed, "timeout")
        first_of = sim.event("first-of")

        def fire_first(event):
            if not first_of.triggered:
                first_of.succeed(event.value)

        for child in (wa.done, timeout):
            child.add_callback(fire_first)
        first = yield first_of
        note(f"any:{first}")
        both = yield AllOf([wa, wb])
        note(f"all:{both}")
        again = yield wa
        note(f"again:{again}")
        yield 0
        note("slept0")

    Process(sim, joiner(), name="joiner")
    return sim, log


def test_event_order_is_identical_across_loops():
    sim, log = _probe_sim()
    end = sim.run()
    assert len(log) == 132
    assert _sha(repr(log)) == PROBE_LOG_SHA
    assert end == PROBE_END_PS
    assert sim._seq == PROBE_EVENTS


def test_until_segments_match_single_shot():
    """Slicing a run into ``until`` segments must not change anything,
    including horizons that land exactly on same-time work."""
    sim, log = _probe_sim()
    horizons = sorted(set(range(20_000, 400_000, 37_000)) | {3_000, 4_500, 12_345})
    for horizon in horizons:
        assert sim.run(until=horizon) == horizon  # clock lands on the horizon
    sim.run()
    assert _sha(repr(log)) == PROBE_LOG_SHA
    assert sim.now == PROBE_END_PS


def test_non_monotone_timers_preserve_global_order():
    sim = Simulator()
    order = []
    for when in (50_000, 60_000, 20_000, 70_000, 10_000):
        sim.at(when, order.append, when)
    sim.run()
    assert order == [10_000, 20_000, 50_000, 60_000, 70_000]


# -- mechanism-level pins ----------------------------------------------------------

#: one tiny spec per mechanism plus the special corners (CPU baseline,
#: DL-opt flow, fault injection) — mirrors the determinism suite.
SPECS = {
    "cpu": RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", kind="cpu", mechanism="cpu"
    ),
    "mcn": RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="mcn"),
    "aim": RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="aim"),
    "abc": RunSpec(config="4D-2C", workload="spmv_bc", size="tiny", mechanism="abc"),
    "dimm_link": RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", mechanism="dimm_link"
    ),
    "dl_opt": RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", kind="optimized"
    ),
    "faulted": RunSpec(
        config="8D-4C",
        workload="uniform_random",
        size="tiny",
        seed=11,
        mechanism="dimm_link",
        fault_fraction=0.67,
    ),
}

#: sha256 of each spec's sorted-key result JSON under the two-loop kernel.
RESULT_SHA = {
    "abc": "789ce158c8400e31a6049204791943b8e54e941e21ba6f32234b236a2de3fb54",
    "aim": "d6e5852a7ec31fd8e0942cce3e2dcb22ad98b4d95eed2b7b4ccec9a390518487",
    "cpu": "c36380afec3de849ba7f420df3e22e5e2b83eb4c14c3490707521c5aae1e9b13",
    "dimm_link": "0fc3c64545946362c6d6da5bb6f364b1d456ab3d7323a08711ee3371a333a9fb",
    "dl_opt": "567c1f5c16b64577c3a764c8cdfe332bbb34f1ea3ae93ac1c7b52e76e4dc4839",
    "faulted": "d82c95ec12aefd6afb6ef1ba0084a394f5feaa479b60e14d92bbbff3788f002d",
    "mcn": "3f9fc365b4507024bcd8c510214dda19ff2a7e21b652c4708dae1d93b43f0d8b",
}


@pytest.mark.parametrize("label", sorted(SPECS))
def test_run_results_identical_across_loops(label):
    result = execute_spec(SPECS[label])
    assert _sha(json.dumps(result.to_json_dict(), sort_keys=True)) == RESULT_SHA[label]


#: sha256 of the table1 tiny trace: spans, instants, drops, sampler
#: windows and widths, and the makespan.
TABLE1_TRACE_SHA = "6a6ae08a831782059df81b5385dc3b00a1d521ae9ad0ae857f05baa8ad8eb7f4"


def test_trace_streams_identical_across_loops():
    """Spans, instants, and sampler windows — not just end-of-run stats."""
    from repro.experiments.trace_run import run_traced

    traced = run_traced("table1", size="tiny")
    recorder = traced["recorder"]
    sampler = traced["sampler"]
    capture = (
        recorder.spans,
        recorder.instants,
        recorder.dropped,
        sampler.samples,
        sampler.widths,
        traced["result"].time_ps,
    )
    assert _sha(repr(capture)) == TABLE1_TRACE_SHA
