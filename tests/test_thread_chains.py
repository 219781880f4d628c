"""Differential tests for the cores' threads as callback chains.

A core runs each thread as a callback chain over a
:class:`~repro.nmp.executor.Thread` record.  The referee below is the
generator process it replaced (``run_thread``, ``_thread_proc`` and
``_drain``), kept verbatim on :mod:`tests.genproc` and swapped into
built systems as a subclass of each core class.  Twin systems — one
with the referee in every core — run the same seeded programs under all
four mechanisms: computes of zero and more cycles, local and remote
reads and writes, fences and stamps (also back to back, and before any
request, so a drain finds nothing pending), broadcasts and barriers.
The CPU baseline runs them with next-touch migrations, and a DLRM
stream stamps every batch.  End times, stats and their key order,
histograms, trace spans, the final time and ``_seq`` must be identical.
A broadcast or barrier event that fails must raise out of
``Simulator.run`` at the same time and ``_seq`` as the referee's throw.
"""

from __future__ import annotations

import functools
import json
import random
from typing import Iterable

import pytest

from repro.config import SystemConfig
from repro.dram.address import page_home, page_id, page_offset
from repro.errors import DeadlockError, LinkFailure, WorkloadError
from repro.experiments.common import build_workload
from repro.host import cpu as host_cpu
from repro.host.cpu import HostCore, HostCPUSystem
from repro.mapping.pagetable import NextTouchPolicy, PageTable
from repro.nmp.core import NMPCore
from repro.nmp.executor import ThreadExecutor, run_threads
from repro.nmp.system import NMPSystem
from repro.sim.engine import Simulator
from repro.sim.stats import StatRegistry
from repro.sim.time import cycles
from repro.trace import TraceRecorder
from repro.workloads.ops import Barrier, Broadcast, Compute, Flush, Read, Stamp, Write
from tests.genproc import AllOf, Process
from tests.test_idc_chains import _assert_twins, _counter

# -- the referee: the generator thread ------------------------------------------------


class _Ended:
    """What ``run_threads`` reads off a thread: its name and end time."""

    def __init__(self, process: Process) -> None:
        self.name = process.name
        self.process = process

    @property
    def end(self):
        return self.process.value if self.process.finished else None


class RefThreads(ThreadExecutor):
    """``ThreadExecutor``'s generator thread (nmp/executor.py)."""

    def run_thread(self, thread_id: int, ops: Iterable):
        """Start executing ``ops`` as a simulation process."""
        return _Ended(
            Process(self.sim, self._thread_proc(thread_id, ops), name=f"{self.name}.t{thread_id}")
        )

    def _thread_proc(self, thread_id: int, ops: Iterable):
        sim = self.sim
        stats = self.stats
        window = self._window
        pending = self._pending
        start = sim.now
        interval_start = start
        trace = sim.trace
        thread_span = (
            trace.begin("nmp", "thread", self.name, thread=thread_id)
            if trace.enabled
            else None
        )
        for op in ops:
            if isinstance(op, Compute):
                duration = cycles(op.cycles * self.compute_scale, self.freq_ghz)
                stats.add("core.busy_ps", duration)
                yield duration
            elif isinstance(op, (Read, Write)):
                blocked_from = sim.now
                yield window.acquire()
                self._attribute_stall(sim.now - blocked_from)
                event, is_remote = self.memory_access(op)
                stats.add("core.mem_ops")
                if is_remote:
                    stats.add("core.remote_ops")
                    stats.add("core.remote_bytes", op.nbytes)
                if event is None:
                    window.release()
                    continue
                pending[event] = is_remote
                if is_remote:
                    self._outstanding_remote += 1
                event.add_callback(self._complete)
            elif isinstance(op, Broadcast):
                yield from self._drain()
                blocked_from = sim.now
                span = (
                    trace.begin("nmp", "broadcast", self.name, thread=thread_id)
                    if trace.enabled
                    else None
                )
                yield self.broadcast(op)
                trace.end(span)
                stats.add("core.stall_remote_ps", sim.now - blocked_from)
                stats.add("core.broadcasts")
            elif isinstance(op, Barrier):
                yield from self._drain()
                blocked_from = sim.now
                span = (
                    trace.begin("nmp", "barrier", self.name, thread=thread_id)
                    if trace.enabled
                    else None
                )
                yield self.barrier(thread_id)
                trace.end(span)
                stats.add("core.stall_sync_ps", sim.now - blocked_from)
                stats.add("core.barriers")
            elif isinstance(op, Flush):
                yield from self._drain()
            elif isinstance(op, Stamp):
                yield from self._drain()
                stats.histogram(op.key).record(sim.now - interval_start)
                interval_start = sim.now
            else:
                raise WorkloadError(f"unknown op {op!r}")
        yield from self._drain()
        stats.add("core.thread_ps", sim.now - start)
        stats.add("core.threads")
        trace.end(thread_span)
        return sim.now

    def _drain(self):
        while self._pending:
            blocked_from = self.sim.now
            events = list(self._pending)
            remote_fraction = self._remote_fraction()
            yield AllOf(events)
            self._split_stall(self.sim.now - blocked_from, remote_fraction)


class RefNMPCore(RefThreads, NMPCore):
    pass


class RefHostCore(RefThreads, HostCore):
    pass


# -- observation ------------------------------------------------------------------------


@pytest.fixture
def drains(monkeypatch):
    """Whether each chain drain waited (True) or found nothing pending."""
    outcomes = []
    drain = ThreadExecutor._drain

    def counted(executor, thread):
        waited = drain(executor, thread)
        outcomes.append(waited)
        return waited

    monkeypatch.setattr(ThreadExecutor, "_drain", counted)
    return outcomes


def _observed(sim, stats, result):
    return {
        "result": json.dumps(result.to_json_dict(), sort_keys=True),
        "stats": stats.to_json_dict(),
        "stat_order": list(stats.counters()),
        "histogram_order": list(stats._histograms),
        "spans": sim.trace.spans,
        "instants": sim.trace.instants,
        "now": sim.now,
        "seq": sim._seq,
    }


# -- seeded programs ----------------------------------------------------------------------

STAMP = "thread.interval_ps"
SIZES = (8, 64, 64, 200, 512, 4096)


def _programs(seed, num_threads, num_dimms, paged=False):
    """Seeded op streams, one per thread.

    Every op kind appears: zero-cycle and longer computes, local and
    remote reads and writes (paged ones on a few hot pages when
    ``paged``), fences, stamps, a fence right before a stamp (whose
    drain then finds nothing pending), broadcasts and barriers.  Every
    thread enters the same number of barriers.
    """
    rng = random.Random(seed)
    hot_pages = [page_id(d, rng.randrange(64)) for d in rng.sample(range(num_dimms), 3)]
    barriers = rng.randint(1, 3)
    programs = []
    for thread in range(num_threads):
        home = thread * num_dimms // num_threads
        count = rng.randint(20, 40)
        barrier_at = set(rng.sample(range(count), barriers))
        ops = [rng.choice((Flush(), Stamp(STAMP)))] if rng.random() < 0.5 else []
        for index in range(count):
            if index in barrier_at:
                ops.append(Barrier())
            roll = rng.random()
            if roll < 0.15:
                ops.append(Compute(rng.choice((0, 0, 1, 9, 120))))
            elif roll < 0.2:
                ops.append(Flush())
            elif roll < 0.25:
                ops.append(Stamp(STAMP))
            elif roll < 0.29:
                ops += [Flush(), Stamp(STAMP)]
            elif roll < 0.32:
                ops.append(Broadcast(offset=rng.randrange(1 << 20), nbytes=rng.choice(SIZES)))
            else:
                op = Write if rng.random() < 0.35 else Read
                if paged and rng.random() < 0.3:
                    page = rng.choice(hot_pages)
                    offset = page_offset(page) + rng.randrange(0, 4032, 64)
                    ops.append(op(dimm=page_home(page), offset=offset, nbytes=64, page=page))
                else:
                    dimm = home if rng.random() < 0.4 else rng.randrange(num_dimms)
                    nbytes = rng.choice(SIZES)
                    ops.append(op(dimm=dimm, offset=rng.randrange(1 << 24), nbytes=nbytes))
        programs.append(ops)
    return [functools.partial(iter, ops) for ops in programs]


def _traced(sim):
    sim.trace = TraceRecorder(sim, max_events=1 << 20)
    return sim


def _run_nmp(reference, mechanism, polling, sync_mode, programs, config_name="8D-4C"):
    config = SystemConfig.named(config_name)
    sim = _traced(Simulator())
    system = NMPSystem(config, idc=mechanism, polling=polling, sync_mode=sync_mode, sim=sim)
    if reference:
        for dimm in system.dimms:
            for core in dimm.cores:
                core.__class__ = RefNMPCore
    pagetable = PageTable(NextTouchPolicy(), config.num_dimms)
    result = system.run(programs(config.num_dimms * config.nmp.cores_per_dimm, config.num_dimms),
                        pagetable=pagetable)
    return _observed(sim, system.stats, result)


# -- every mechanism -------------------------------------------------------------------

MECHANISMS = [
    ("mcn", "baseline+interrupt", "central"),
    ("aim", None, "hierarchical"),
    ("abc", "baseline", "central"),
    ("dimm_link", "proxy", "hierarchical"),
    ("dimm_link", "baseline", "central"),
]


@pytest.mark.parametrize("seed", [4, 13])
@pytest.mark.parametrize("mechanism,polling,sync_mode", MECHANISMS)
def test_thread_chains_match_generator_threads(drains, mechanism, polling, sync_mode, seed):
    programs = functools.partial(_programs, seed, paged=True)
    got = _run_nmp(False, mechanism, polling, sync_mode, programs)
    want = _run_nmp(True, mechanism, polling, sync_mode, programs)
    _assert_twins(got, want)
    # the programs exercised what they were built for
    assert {True, False} <= set(drains), "no drain that waited and none that did not"
    assert _counter(got, "core.remote_ops") > 0
    assert _counter(got, "core.broadcasts") > 0
    assert _counter(got, "core.barriers") > 0
    assert _counter(got, "core.stall_local_ps") > 0
    assert _counter(got, "placement.migrations") > 0
    assert json.loads(got["result"])["stats"]["histograms"], "no stamp recorded"


def _run_cpu(monkeypatch, reference, seed):
    monkeypatch.setattr(host_cpu, "HostCore", RefHostCore if reference else HostCore)
    system = HostCPUSystem(SystemConfig.named("8D-4C"))
    _traced(system.sim)
    pagetable = PageTable(NextTouchPolicy(), 8)
    # 32 threads on 16 host cores: compute runs at twice its cycles
    result = system.run(_programs(seed, 32, 8, paged=True), pagetable=pagetable)
    return _observed(system.sim, system.stats, result)


@pytest.mark.parametrize("seed", [2, 9])
def test_cpu_thread_chains_match_generator_threads(monkeypatch, drains, seed):
    got = _run_cpu(monkeypatch, False, seed)
    _assert_twins(got, _run_cpu(monkeypatch, True, seed))
    assert {True, False} <= set(drains)
    assert _counter(got, "placement.migrations") > 0
    assert _counter(got, "core.cache_hits") > 0


@pytest.mark.parametrize("mechanism", ["dimm_link", "mcn"])
def test_dlrm_stamp_stream_matches_generator_threads(mechanism):
    workload = build_workload("dlrm", "tiny", seed=3)
    got = _run_nmp(False, mechanism, None, "hierarchical", workload.thread_factories)
    want = _run_nmp(True, mechanism, None, "hierarchical", workload.thread_factories)
    _assert_twins(got, want)
    batches = [h for k, h in got["stats"]["histograms"].items() if k.endswith("batch_ps")]
    assert batches and all(h["count"] for h in batches)


# -- a failed broadcast or barrier event -----------------------------------------------


class _StubCore(ThreadExecutor):
    """Accesses complete after 3 ns; broadcasts and barriers after 1 ns,
    except the ``fail_at``-th of them, whose event fails after 2 ns."""

    def __init__(self, sim, stats, index, calls, fail_at):
        super().__init__(sim, freq_ghz=1.0, window=2, stats=stats, name=f"stub{index}")
        self.calls = calls
        self.fail_at = fail_at

    def memory_access(self, op):
        event = self.sim.event(name="stub.mem")
        self.sim.schedule(3_000, event.succeed, op.nbytes)
        return event, op.dimm != 0

    def _sync(self, name):
        self.calls.append(name)
        event = self.sim.event(name=name)
        if len(self.calls) == self.fail_at:
            self.sim.schedule(2_000, event.fail, LinkFailure(f"{name} {self.fail_at} lost"))
        else:
            self.sim.schedule(1_000, event.succeed, None)
        return event

    def broadcast(self, op):
        return self._sync("stub.broadcast")

    def barrier(self, thread_id):
        return self._sync("stub.barrier")


class _RefStubCore(RefThreads, _StubCore):
    pass


def _failing_run(reference, sync_op, fail_at):
    sim = _traced(Simulator())
    stats = StatRegistry()
    calls = []
    rng = random.Random(fail_at)
    placed = []
    for index in range(3):
        core = (_RefStubCore if reference else _StubCore)(sim, stats, index, calls, fail_at)
        ops = []
        for _ in range(12):
            roll = rng.random()
            if roll < 0.3:
                ops.append(sync_op)
            elif roll < 0.45:
                ops.append(Compute(rng.choice((0, 4))))
            else:
                ops.append(Read(dimm=rng.randrange(2), offset=0, nbytes=64))
        placed.append((core, ops))
    with pytest.raises(LinkFailure) as raised:
        run_threads(sim, placed)
    return str(raised.value), sim.now, sim._seq, stats.to_json_dict(), sim.trace.spans


@pytest.mark.parametrize("fail_at", [1, 4])
@pytest.mark.parametrize("sync_op", [Barrier(), Broadcast(offset=0, nbytes=64)])
def test_failed_sync_event_raises_like_the_generator(sync_op, fail_at):
    got = _failing_run(False, sync_op, fail_at)
    assert got == _failing_run(True, sync_op, fail_at)
    assert got[0].endswith(f" {fail_at} lost")


# -- a thread that never ends ------------------------------------------------------------


def test_stuck_thread_is_named_with_its_wait():
    # thread 0 enters a second barrier that thread 1 never reaches
    system = NMPSystem(SystemConfig.named("4D-2C"))
    programs = [
        functools.partial(iter, [Compute(10), Barrier(), Barrier()]),
        functools.partial(iter, [Barrier(), Compute(5)]),
    ]
    with pytest.raises(DeadlockError) as raised:
        system.run(programs)
    err = raised.value
    assert "stuck threads: ['dimm0.core0.t0']" in str(err)
    assert err.blocked == [("dimm0.core0.t0", "event 'barrier.g1.t0'")]
    assert err.time_ps == system.sim.now
