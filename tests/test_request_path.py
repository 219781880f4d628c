"""Differential and pinned tests for the per-request memory path.

Three per-request servers run as callback chains, one callback per
simulator slot: the NMP local memory controller (``submit``), the host
forwarding controller (``forward``) and the CPU baseline's
``memory_request``.  The referees below are the generator processes they
replaced, kept verbatim.  Twin systems — one with the references swapped
in — run the same seeded request streams (more than 64 requests in
flight on one DIMM, same-timestamp bursts from several cores, remote
reads and writes, every polling strategy); per-request completion times,
DRAM bank and rank state, stats, trace spans and the final event count
must be identical.  A failed remote IDC event must still raise out of
``Simulator.run``, at the same instant and event count.

The pinned section records, for a handful of tiny specs, the result
digest and simulated event count the generator servers produced.
"""

import functools
import hashlib
import json
import random

import pytest

from repro.config import NMPConfig, SystemConfig
from repro.dram import DRAMModule, preset
from repro.errors import LinkFailure
from repro.experiments.runner import RunSpec, execute_spec
from repro.host.cpu import HostCPUSystem
from repro.nmp.localmc import ARBITER_LATENCY_PS, LocalMemoryController
from repro.nmp.system import NMPSystem
from repro.sim import StatRegistry
from repro.sim.engine import Simulator
from repro.trace import TraceRecorder
from repro.workloads.ops import Barrier, Compute, Flush, Read, Write

# -- referees: the generator servers -------------------------------------------------


def reference_submit(mc, target_dimm, offset, nbytes, is_write):
    """``LocalMemoryController.submit`` as a per-request process."""
    done = mc.sim.event(name=f"dimm{mc.dimm_id}.mc")
    mc.sim.process(
        _serve(mc, target_dimm, offset, nbytes, is_write, done),
        name=f"dimm{mc.dimm_id}.mc",
    )
    return done


def _serve(mc, target_dimm, offset, nbytes, is_write, done):
    yield mc.buffer.acquire()
    yield ARBITER_LATENCY_PS
    if target_dimm == mc.dimm_id:
        mc.stats.add("idc.local_bytes", nbytes)
        yield mc.dram.access(offset, nbytes, is_write)
    else:
        if mc.idc is None:
            raise RuntimeError(
                f"dimm{mc.dimm_id}: remote request without an IDC mechanism"
            )
        if is_write:
            yield mc.idc.remote_write(mc.dimm_id, target_dimm, offset, nbytes)
        else:
            yield mc.idc.remote_read(mc.dimm_id, target_dimm, offset, nbytes)
    mc.buffer.release()
    done.succeed(nbytes)


def reference_forward(fwd, src_dimm, dst_dimm, wire_bytes, notice_dimm=None):
    """``ForwardController.forward`` as a per-forward process."""
    done = fwd.sim.event(name="host.fwd")
    fwd.sim.process(
        _forward_proc(fwd, src_dimm, dst_dimm, wire_bytes, notice_dimm, done),
        name="host.fwd",
    )
    return done


def _forward_proc(fwd, src_dimm, dst_dimm, wire_bytes, notice_dimm, done):
    start = fwd.sim.now
    trace = fwd.sim.trace
    span = (
        trace.begin(
            "host", "forward", "host.fwd", src=src_dimm, dst=dst_dimm, bytes=wire_bytes
        )
        if trace.enabled
        else None
    )
    if notice_dimm != -1:
        yield fwd.polling.notice(src_dimm if notice_dimm is None else notice_dimm)
    src_channel = fwd.channels[fwd.config.channel_of(src_dimm)]
    dst_channel = fwd.channels[fwd.config.channel_of(dst_dimm)]
    yield src_channel.transfer(wire_bytes, kind="fwd")
    yield fwd.engine.transfer(wire_bytes, extra_ps=fwd._per_op_ps)
    yield dst_channel.transfer(wire_bytes, kind="fwd")
    fwd.stats.add("fwd.ops")
    fwd.stats.add("fwd.bytes", wire_bytes)
    fwd.stats.histogram("fwd.latency_ns").record((fwd.sim.now - start) / 1000)
    trace.end(span)
    done.succeed(wire_bytes)


def reference_memory_request(system, dimm, offset, nbytes, is_write):
    """``HostCPUSystem.memory_request`` as a per-access process."""
    done = system.sim.event(name="cpu.mem")
    channel = system.channels[system.config.channel_of(dimm)]
    dram = system.drams[dimm]

    def proc():
        yield channel.transfer(nbytes, kind="data")
        yield dram.access(offset, nbytes, is_write)
        done.succeed(nbytes)

    system.sim.process(proc(), name="cpu.mem")
    return done


# -- twin systems ----------------------------------------------------------------------


def _recorded(log, sim, serve, tag=None):
    """Wrap a server entry point: log each request and when it completed.

    The logging callback schedules nothing, so it leaves the event order
    untouched.
    """

    def wrapped(*args, **kwargs):
        done = serve(*args, **kwargs)
        done.add_callback(
            lambda event: log.append((tag, args, kwargs, sim.now, event.value))
        )
        return done

    return wrapped


def _programs(seed, num_threads, num_dimms):
    """Seeded op streams, one per thread.

    Every thread opens with a burst of accesses issued at time 0 (so
    several cores hit their controllers in the same instant and four
    32-deep windows overrun a 64-entry transaction buffer), then mixes
    local and remote reads and writes of line-sized to bulk sizes with
    short computes, fences, and one barrier.
    """
    rng = random.Random(seed)
    programs = []
    for thread in range(num_threads):
        home = thread * num_dimms // num_threads
        ops = [
            Read(dimm=home, offset=rng.randrange(1 << 20) * 64, nbytes=64)
            for _ in range(40)
        ]
        count, barrier_at = rng.randint(50, 90), rng.randrange(20, 60)
        for index in range(count):
            if index == barrier_at:
                ops.append(Barrier())
            roll = rng.random()
            if roll < 0.15:
                ops.append(Compute(rng.choice((0, 1, 9, 120))))
            elif roll < 0.2:
                ops.append(Flush())
            else:
                dimm = home if rng.random() < 0.5 else rng.randrange(num_dimms)
                nbytes = rng.choice((8, 64, 64, 200, 512, 4096, 9000))
                op = Write if rng.random() < 0.35 else Read
                ops.append(op(dimm=dimm, offset=rng.randrange(1 << 26), nbytes=nbytes))
        if barrier_at >= count:
            ops.append(Barrier())
        programs.append(ops)
    return [functools.partial(iter, ops) for ops in programs]


#: four cores per DIMM with 32-deep windows: up to 128 requests in
#: flight at one 64-entry transaction buffer.
CONFIG = SystemConfig.named("8D-4C", nmp=NMPConfig(outstanding_window=32))


def _dram_state(module):
    banks = [
        (bank.open_row, bank.ready_at, bank.activated_at)
        for rank in module.ranks
        for bank in rank.banks
    ]
    ranks = [(list(rank._recent_activates), rank._bus_free_at) for rank in module.ranks]
    return banks, ranks


def _observed(sim, stats, drams, result, logs):
    return {
        "result": json.dumps(result.to_json_dict(), sort_keys=True),
        "stats": stats.to_json_dict(),
        "stat_order": list(stats.counters()),
        "dram": [_dram_state(dram) for dram in drams],
        "spans": sim.trace.spans,
        "instants": sim.trace.instants,
        "seq": sim._seq,
        "now": sim.now,
        "logs": logs,
    }


def _run_nmp(mechanism, polling, seed, reference):
    sim = Simulator()
    sim.trace = TraceRecorder(sim, max_events=1 << 20)
    system = NMPSystem(CONFIG, idc=mechanism, polling=polling, sim=sim)
    submits, forwards, grants = [], [], []
    for dimm in system.dimms:
        mc = dimm.mc
        serve = functools.partial(reference_submit, mc) if reference else mc.submit
        mc.submit = _recorded(submits, sim, serve, tag=dimm.dimm_id)
        acquire = mc.buffer.acquire

        def counted(acquire=acquire):
            grant = acquire()
            grants.append(grant.triggered)
            return grant

        mc.buffer.acquire = counted
    fwd = system.forwarder
    serve = functools.partial(reference_forward, fwd) if reference else fwd.forward
    fwd.forward = _recorded(forwards, sim, serve)
    result = system.run(_programs(seed, 32, CONFIG.num_dimms))
    drams = [dimm.dram for dimm in system.dimms]
    observed = _observed(sim, system.stats, drams, result, (submits, forwards))
    return observed, grants, [dimm.mc.buffer.peak_in_use for dimm in system.dimms]


def _run_cpu(seed, reference):
    system = HostCPUSystem(SystemConfig.named("8D-4C"))
    sim = system.sim
    sim.trace = TraceRecorder(sim, max_events=1 << 20)
    requests = []
    serve = (
        functools.partial(reference_memory_request, system)
        if reference
        else system.memory_request
    )
    system.memory_request = _recorded(requests, sim, serve)
    result = system.run(_programs(seed, 16, 8))
    return _observed(sim, system.stats, system.drams, result, requests)


# -- differential tests --------------------------------------------------------------


@pytest.mark.parametrize(
    "mechanism,polling",
    [
        ("mcn", "baseline"),
        ("mcn", "baseline+interrupt"),
        ("dimm_link", "proxy"),
        ("dimm_link", "proxy+interrupt"),
        ("aim", None),
    ],
)
@pytest.mark.parametrize("seed", [3, 11])
def test_callback_servers_match_generator_servers(mechanism, polling, seed):
    got, got_grants, peaks = _run_nmp(mechanism, polling, seed, reference=False)
    want, want_grants, _ = _run_nmp(mechanism, polling, seed, reference=True)
    for key in want:
        assert got[key] == want[key], key
    assert got_grants == want_grants
    # the streams exercised what they were built for
    submits, forwards = got["logs"]
    assert max(peaks) == 64 and not all(got_grants), "no blocked buffer grant"
    remote = {args[3] for src, args, _kw, _t, _v in submits if args[0] != src}
    assert remote == {False, True}, "no remote reads and writes"
    times = [t for _src, _args, _kw, t, _v in submits]
    assert len(times) > len(set(times)), "no same-instant completions"
    if mechanism in ("mcn", "dimm_link"):
        assert forwards, "no host forwards"


@pytest.mark.parametrize("seed", [3, 11])
def test_cpu_memory_request_matches_generator_process(seed):
    got = _run_cpu(seed, reference=False)
    want = _run_cpu(seed, reference=True)
    for key in want:
        assert got[key] == want[key], key
    assert len(got["logs"]) > 500


# -- a failed remote request still surfaces -------------------------------------------


class _FailingIDC:
    """Remote operations succeed after a delay; the ``fail_at``-th fails."""

    def __init__(self, sim, fail_at):
        self.sim = sim
        self.fail_at = fail_at
        self.calls = 0

    def _op(self, *args):
        self.calls += 1
        event = self.sim.event(name="stub.remote")
        if self.calls == self.fail_at:
            self.sim.schedule(
                5_000, event.fail, LinkFailure(f"remote op {self.calls} lost")
            )
        else:
            self.sim.schedule(5_000 + 1_000 * self.calls, event.succeed, None)
        return event

    remote_read = remote_write = _op


def _failing_run(reference, fail_at):
    sim = Simulator()
    stats = StatRegistry()
    dram = DRAMModule(sim, preset("DDR4_2400_LRDIMM"), 2, stats, name="dimm0.dram")
    mc = LocalMemoryController(sim, 0, dram, stats)
    mc.bind_idc(_FailingIDC(sim, fail_at))
    submit = functools.partial(reference_submit, mc) if reference else mc.submit
    completed = []
    rng = random.Random(fail_at)
    for _ in range(80):
        target = 0 if rng.random() < 0.5 else 1
        done = submit(target, rng.randrange(1 << 20), 64, rng.random() < 0.3)
        done.add_callback(lambda event: completed.append((sim.now, event.value)))
    with pytest.raises(LinkFailure) as raised:
        sim.run()
    return str(raised.value), sim.now, sim._seq, completed, mc.buffer.in_use


@pytest.mark.parametrize("fail_at", [1, 7, 30])
def test_failed_remote_event_raises_out_of_run(fail_at):
    got = _failing_run(reference=False, fail_at=fail_at)
    assert got == _failing_run(reference=True, fail_at=fail_at)
    assert got[0] == f"remote op {fail_at} lost"


def test_remote_request_without_idc_raises():
    sim = Simulator()
    stats = StatRegistry()
    dram = DRAMModule(sim, preset("DDR4_2400_LRDIMM"), 1, stats)
    LocalMemoryController(sim, 0, dram, stats).submit(1, 0, 64, False)
    with pytest.raises(RuntimeError, match="without an IDC mechanism"):
        sim.run()
    assert sim.now == ARBITER_LATENCY_PS


# -- pinned exactness ------------------------------------------------------------


def _tiny(config, workload, **fields):
    return RunSpec(config=config, workload=workload, size="tiny", **fields)


#: label -> (tiny spec, sha256 of its result JSON, simulated events),
#: recorded with the generator servers and the per-rank bulk stream; the
#: two link-failure pins after them were recorded under the full fault
#: model (CRC errors, link repair, five fault kinds).
PINNED = {
    "fig12-bulk-broadcast": (
        _tiny("12D-4C", "pagerank_bc", mechanism="dimm_link"),
        "485f41179fe1f4c163bfbc4473b0768d5d6e11cc18927dcff61566531f4a51fa",
        11816,
    ),
    "fig12-bulk-broadcast-abc": (
        _tiny("12D-4C", "spmv_bc", mechanism="abc"),
        "446037962037c969f035cdff53015618426158f732debb8d8c6838da16e1ac48",
        3896,
    ),
    "cpu-baseline": (
        _tiny("8D-4C", "bfs", kind="cpu", mechanism="cpu"),
        "3cd31257fedc942543ea1d369f821e2c519fa3e15a194d13ffc3c041ade0fa08",
        3374,
    ),
    "mcn-baseline+interrupt": (
        _tiny("8D-4C", "pagerank", mechanism="mcn", polling="baseline+interrupt"),
        "66b5c8ba9970f126a0add768dc7de4e9f2075c85378deb6f4b4c6b530cd5aaf5",
        15622,
    ),
    # proxy polling needs DIMM-Link proxies, so MCN cannot run it
    "dimm_link-proxy+interrupt": (
        _tiny("8D-4C", "pagerank", mechanism="dimm_link", polling="proxy+interrupt"),
        "54b9fbe439bec1bf7681ca045c721067f19f4176173aeb7087276f0e34383274",
        16038,
    ),
    "next-touch-migrations": (
        _tiny("8D-4C", "hotpage", mechanism="dimm_link", data_placement="next_touch"),
        "c710f02333e9de976ac07f66513cc3441114801f69e8cddddf7bffbc26ebb583",
        48800,
    ),
    "next-touch-cpu": (
        _tiny(
            "8D-4C", "hotpage", kind="cpu", mechanism="cpu", data_placement="next_touch"
        ),
        "2c102e430c04b0f9ee48287a258b77aeacd6530ba60d33ff53a1c248d432e13c",
        31942,
    ),
    "resilience-faulted": (
        _tiny("8D-4C", "uniform_random", mechanism="dimm_link", fault_fraction=0.34),
        "c47528157ffd57d946c5473ab41b74201d28c630edd343769ed9b92cc83cafbc",
        13558,
    ),
    # every bridge link dies: the watchdog marks all six down
    "resilience-all-links-down": (
        _tiny("8D-4C", "uniform_random", mechanism="dimm_link", fault_fraction=1.0),
        "55a10401ca8664d7aa87225db37d47f69c712006f26d5a2cecfdd77d320de287",
        14272,
    ),
    # floods cut by a dead link fail over to host forwarding
    "flood-failover": (
        _tiny("8D-4C", "pagerank_bc", mechanism="dimm_link", fault_fraction=0.34),
        "e7a9119fb524b58df6c5530492e40c08fb82eb325e45170da5f4c2af403da60e",
        8698,
    ),
}

#: a counter the spec must move, so its pin covers the path it is named for.
COVERS = {
    "mcn-baseline+interrupt": "poll.scan_reads",
    "dimm_link-proxy+interrupt": "poll.scan_reads",
    "next-touch-migrations": "placement.migrations",
    "next-touch-cpu": "placement.migrations",
    "resilience-faulted": "fault.links_down",
    "resilience-all-links-down": "dl.links_marked_down",
    "flood-failover": "dl.rerouted_to_host",
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_pinned_result_and_event_count(label, monkeypatch):
    simulators = {}
    run = Simulator.run

    def counting_run(sim, *args, **kwargs):
        try:
            return run(sim, *args, **kwargs)
        finally:
            simulators[id(sim)] = (sim, sim._seq)

    monkeypatch.setattr(Simulator, "run", counting_run)
    spec, want_digest, want_events = PINNED[label]
    result = execute_spec(spec)
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    events = sum(seq for _sim, seq in simulators.values())
    assert (digest, events) == (want_digest, want_events)
    if label in COVERS:
        name = COVERS[label]
        counters = result.stats.counters().items()
        assert sum(v for k, v in counters if k == name or k.endswith("." + name)) > 0
