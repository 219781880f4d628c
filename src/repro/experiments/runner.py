"""Declarative sweep execution: RunSpec grids, caching, and fan-out.

Every figure experiment is a grid of *independent* simulations.  This
module turns each grid point into a :class:`RunSpec` — a frozen, hashable
description of one run (config + overrides, workload, size, seed,
mechanism, polling, sync mode, run kind) — and executes whole grids
through one funnel, :func:`run_specs`, which adds two things the ad-hoc
loops could not:

* **Memoisation** — specs content-hash to a stable key
  (:meth:`RunSpec.cache_key`); finished results persist in a
  :class:`~repro.results_cache.ResultsCache`, so identical points shared
  between figures (and between repeated invocations) simulate once.
* **Parallelism** — cache misses fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` workers).
  Results always come back in input order, and because every simulation
  is bit-deterministic (see ``tests/test_determinism.py``) the output is
  byte-identical whatever the worker count.
* **Supervision** — long sweeps survive their own harness.  Each spec is
  dispatched individually and **checkpointed to the cache the moment it
  completes**, so an interrupted sweep resumes from the cache with zero
  lost work.  Failed specs are retried with capped exponential backoff;
  specs that exhaust their budget are quarantined into a **dead-letter
  list** (:attr:`SweepRunner.dead_letters`) instead of aborting the
  sweep.  The quarantine lasts one run: every spec is deterministic, so
  a rerun re-detects a failure by running the spec again.  Every
  attempt is one :func:`supervised_call` in the process that runs the
  spec: it sleeps the attempt's backoff and arms the one per-spec
  timeout, a SIGALRM that a hung simulation answers with its blocked
  threads.  With ``jobs > 1`` every batch runs in a pool, so no spec
  runs in the parent.  A worker death breaks the pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`): every
  attempt in flight is charged, and the specs left in budget go to a
  fresh pool.

The CLI installs its runner as the process-wide default
(:func:`set_runner`); experiments call :func:`run_specs` and inherit its
jobs/cache settings.  Library callers that install nothing get the safe
default: serial execution, no cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.errors import (
    ConfigError,
    DeadlockError,
    SimStallError,
    SpecTimeoutError,
    SweepExecutionError,
)
from repro.experiments.common import (
    build_workload,
    charge_profiling,
    optimized_placement,
    run_cpu,
    threads_for,
)
from repro.faults import FaultSchedule, LinkDown
from repro.host.cpu import HostCPUSystem
from repro.interconnect.topology import Topology
from repro.mapping.pagetable import DATA_PLACEMENTS, PageTable, make_policy
from repro.mapping.placement import co_optimized_placement, random_placement
from repro.mapping.profile import profiled_page_assignment
from repro.nmp.results import RunResult
from repro.nmp.system import NMPSystem
from repro.results_cache import CODE_VERSION, ResultsCache
from repro.sim.time import ns
from repro.workloads.base import Workload

_KINDS = ("cpu", "nmp", "optimized")
_PLACEMENTS = ("natural", "random", "optimized")

#: fault-injection time of spec-driven link-down schedules: late enough
#: that traffic is in flight, early enough that most of the kernel runs
#: degraded (matches the resilience experiment).
FAULT_TIME_PS = ns(300)

#: first retry delay; doubles per attempt up to :data:`RETRY_BACKOFF_CAP_S`.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: the longest ``spec_timeout`` the alarm arms on every platform (it
#: fits a 32-bit ``time_t``); ``setitimer`` overflows not far beyond.
MAX_SPEC_TIMEOUT_S = float(2**31 - 1)

#: RunSpec fields an NMP simulation reads as given; the memo key adds
#: the mechanism, polling strategy and thread placement the runner
#: resolves from the other fields.
RUN_MEMO_SPEC_FIELDS = (
    "config",
    "topology",
    "link_gbps",
    "workload",
    "size",
    "seed",
    "params",
    "sync_mode",
)


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully determined by its field values.

    Two specs with equal fields produce bit-identical results (the
    determinism suite enforces this), which is what makes the content
    hash a sound cache key.
    """

    #: paper-style config name, e.g. ``"16D-8C"``.
    config: str
    #: workload registry name (``build_workload``).
    workload: str
    size: str = "small"
    #: workload generation seed.
    seed: int = 42
    #: ``"cpu"`` (host baseline), ``"nmp"``, or ``"optimized"`` (DL-opt
    #: flow: profile -> Algorithm 1 placement -> run, profiling charged;
    #: DIMM-Link only).
    kind: str = "nmp"
    #: IDC mechanism for NMP kinds (ignored for cpu).
    mechanism: str = "dimm_link"
    #: polling strategy override (``None`` = mechanism default).
    polling: Optional[str] = None
    sync_mode: str = "hierarchical"
    #: DL-group topology.
    topology: str = "half_ring"
    #: per-link bandwidth override in GB/s (``None`` = Table II default).
    link_gbps: Optional[float] = None
    #: thread placement policy for ``kind="nmp"``: ``"natural"`` block
    #: placement, ``"random"`` (seeded), or ``"optimized"`` (Algorithm 1
    #: placement *without* the profiling charge of ``kind="optimized"``).
    placement: str = "natural"
    placement_seed: int = 7
    #: fraction of each DL group's bridge links killed mid-run (0 = no
    #: fault schedule installed); ``kind="nmp"`` only.
    fault_fraction: float = 0.0
    #: workload parameter overrides as ``"key=value,key=value"`` (empty =
    #: pure size preset).  Canonicalized to sorted-key order on
    #: construction so equal overrides always hash equally; only the
    #: parameterized workloads (``dlrm``, ``apsp``, ``sync_interval``)
    #: accept them.
    params: str = ""
    #: page-granularity data placement policy: ``"static"`` (the legacy
    #: loader shard, byte-identical to pre-pagetable runs),
    #: ``"first_touch"``, ``"next_touch"``, or ``"profiled"`` (see
    #: ``repro.mapping.pagetable``).  Non-static policies require a
    #: workload in ``PAGED_WORKLOADS`` and an ``nmp`` or ``cpu`` kind.
    data_placement: str = "static"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown run kind {self.kind!r}; choose from {_KINDS}")
        if self.placement not in _PLACEMENTS:
            raise ConfigError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {_PLACEMENTS}"
            )
        if self.data_placement not in DATA_PLACEMENTS:
            raise ConfigError(
                f"unknown data placement {self.data_placement!r}; "
                f"choose from {DATA_PLACEMENTS}"
            )
        # a field the kind ignores would replay another spec's
        # simulation under a different cache key
        if self.kind == "optimized" and self.mechanism != "dimm_link":
            raise ConfigError(
                "kind='optimized' always runs DIMM-Link; "
                f"got mechanism={self.mechanism!r}"
            )
        if self.placement != "natural" and self.kind != "nmp":
            raise ConfigError(
                f"kind={self.kind!r} ignores the thread placement policy; "
                f"placement={self.placement!r} needs kind='nmp'"
            )
        if self.data_placement != "static" and self.kind == "optimized":
            raise ConfigError(
                "kind='optimized' owns its placement flow; use kind='nmp' "
                "with placement='optimized' for dynamic data placement"
            )
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise ConfigError(
                f"fault_fraction {self.fault_fraction} outside [0, 1]"
            )
        if self.fault_fraction > 0.0 and self.kind != "nmp":
            raise ConfigError(
                f"kind={self.kind!r} installs no fault schedule; "
                "fault_fraction needs kind='nmp'"
            )
        if self.params:
            canonical = ",".join(
                f"{k}={v}" for k, v in sorted(parse_params(self.params).items())
            )
            object.__setattr__(self, "params", canonical)

    def to_json_dict(self) -> Dict[str, object]:
        """All fields, JSON-safe (also the content the cache key hashes).

        An empty ``params`` and a ``"static"`` ``data_placement`` are
        omitted so every spec minted before those fields existed keeps
        its exact historical payload — and therefore its cache key.  The
        golden-key tests pin this.
        """
        payload = dataclasses.asdict(self)
        if not payload["params"]:
            del payload["params"]
        if payload["data_placement"] == "static":
            del payload["data_placement"]
        return payload

    def cache_key(self, code_version: int = CODE_VERSION) -> str:
        """Stable SHA-256 content hash over every field + code version."""
        payload = json.dumps(
            {"spec": self.to_json_dict(), "code_version": code_version},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


# -- spec execution ------------------------------------------------------------------


def parse_params(params: str) -> Dict[str, object]:
    """Parse a spec's ``"key=value,key=value"`` overrides into a dict.

    Values decode as int, then float, then string; keys must be unique
    and non-empty.  Raises :class:`~repro.errors.ConfigError` on
    malformed input so a bad ``--params`` fails loudly at spec build.
    """
    overrides: Dict[str, object] = {}
    for item in params.split(","):
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(
                f"malformed workload params {params!r}: expected "
                "comma-separated key=value pairs"
            )
        if key in overrides:
            raise ConfigError(f"duplicate workload param {key!r} in {params!r}")
        raw = raw.strip()
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[key] = value
    return overrides


def link_down_schedule(
    config: SystemConfig, fraction: float, time_ps: int = FAULT_TIME_PS
) -> FaultSchedule:
    """Kill the first ``round(fraction * edges)`` links of every group.

    A nonzero ``fraction`` always kills at least one link per group:
    tiny topologies used to round ``fraction * edges`` down to zero and
    silently produce an empty schedule, making "faulted" sweep points
    identical to fault-free ones.
    """
    faults = []
    for group in config.groups:
        topology = Topology(config.topology, len(group))
        count = round(fraction * len(topology.edges))
        if fraction > 0.0 and count == 0 and topology.edges:
            count = 1
        for a, b in topology.edges[:count]:
            faults.append(
                LinkDown(time_ps=time_ps, dimm_a=group[a], dimm_b=group[b])
            )
    return FaultSchedule(faults)


def build_spec_config(spec: RunSpec) -> SystemConfig:
    """Materialize the spec's system configuration."""
    config = SystemConfig.named(spec.config, topology=spec.topology)
    if spec.link_gbps is not None:
        config.link = config.link.scaled(spec.link_gbps)
    return config


def build_spec_workload(spec: RunSpec) -> Workload:
    """Materialize the spec's workload instance."""
    overrides = parse_params(spec.params) if spec.params else None
    return build_workload(
        spec.workload,
        spec.size,
        seed=spec.seed,
        overrides=overrides,
        paged=spec.data_placement != "static",
    )


def build_spec_pagetable(
    spec: RunSpec,
    config: SystemConfig,
    workload: Workload,
    threads: int,
    placement: Optional[List[int]],
) -> Tuple[Optional[List[int]], Optional[PageTable]]:
    """Build the page table (and possibly a co-optimized thread placement).

    ``placement='optimized'`` + ``data_placement='profiled'`` runs the
    full co-optimization loop (profile -> MCMF -> page re-placement ->
    fixed point); plain profiled placement profiles once under the
    spec's thread placement.  Touch-driven policies need no profiling.
    """
    num_dimms = config.num_dimms
    if spec.data_placement != "profiled":
        return placement, PageTable(make_policy(spec.data_placement), num_dimms)
    factories = workload.thread_factories(threads, num_dimms)
    if spec.kind == "nmp" and spec.placement == "optimized":
        placement, assignment, _rounds = co_optimized_placement(factories, config)
    else:
        base = placement or Workload.block_placement(
            threads, num_dimms, config.nmp.cores_per_dimm
        )
        assignment = profiled_page_assignment(factories, num_dimms, base)
    policy = make_policy("profiled", assignment=assignment)
    return placement, PageTable(policy, num_dimms)


#: the process's last memoizable NMP run: its :func:`run_memo_key`, the
#: spec that simulated it and its ``RunResult.to_json_dict()`` snapshot.
#: One run is enough: the specs that share a simulation sit next to each
#: other in the grids (Fig. 10, APSP and DLRM run DL-opt right after
#: DL-base, the mapping ablation runs the natural placement right after
#: the optimized one, resilience runs the bridge-less fault fractions
#: back to back).
_last_run: Optional[Tuple[tuple, RunSpec, Dict[str, object]]] = None


def clear_run_memo() -> None:
    """Forget the memoized run, so the next NMP spec simulates."""
    global _last_run
    _last_run = None


def run_memo_key(spec: RunSpec, system: NMPSystem, placement: List[int]) -> tuple:
    """What an NMP simulation without faults or a page table reads.

    The spec's :data:`RUN_MEMO_SPEC_FIELDS`, plus what the runner
    resolved from the rest: the built system's mechanism and polling
    strategy, and the thread placement.
    """
    return (
        *(getattr(spec, name) for name in RUN_MEMO_SPEC_FIELDS),
        system.idc.name,
        system.polling.name,
        tuple(placement),
    )


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec (the cache-miss path).

    An NMP run without a fault schedule or page table whose
    :func:`run_memo_key` equals the previous one's gets a fresh copy of
    that result instead of simulating: a DL-opt spec whose solved
    placement is natural replays the DL-base spec before it.  The spec
    that simulated the held run simulates again: a batch never executes
    one spec twice, so a repeat checks determinism or times the spec.
    """
    global _last_run
    config = build_spec_config(spec)
    workload = build_spec_workload(spec)
    dynamic = spec.data_placement != "static"
    if spec.kind == "cpu":
        if not dynamic:
            return run_cpu(config, workload)
        threads = threads_for(config)
        # cpu threads have no DIMM identity; pages chase each thread's
        # natural block home (see HostCore.home_dimm)
        homes = [t * config.num_dimms // threads for t in range(threads)]
        _, pagetable = build_spec_pagetable(spec, config, workload, threads, homes)
        system = HostCPUSystem(config)
        factories = workload.thread_factories(threads, config.num_dimms)
        return system.run(
            factories, workload_name=workload.name, pagetable=pagetable
        )
    threads = threads_for(config)
    faults = (
        link_down_schedule(config, spec.fault_fraction)
        if spec.fault_fraction > 0.0
        else None
    )
    system = NMPSystem(
        config,
        idc=spec.mechanism,
        polling=spec.polling,
        sync_mode=spec.sync_mode,
        faults=faults,
    )
    placement: Optional[List[int]] = None
    if spec.placement == "random":
        placement = random_placement(
            threads, config.num_dimms, config.nmp.cores_per_dimm, spec.placement_seed
        )
    elif (
        spec.kind == "optimized" or spec.placement == "optimized"
    ) and spec.data_placement != "profiled":
        placement = optimized_placement(config, workload, threads)
    pagetable: Optional[PageTable] = None
    if dynamic:
        placement, pagetable = build_spec_pagetable(
            spec, config, workload, threads, placement
        )
    if placement is None:
        placement = system.natural_placement(threads)

    def simulate() -> RunResult:
        factories = workload.thread_factories(threads, config.num_dimms)
        return system.run(
            factories,
            placement=placement,
            workload_name=workload.name,
            pagetable=pagetable,
        )

    if system.faults is not None or pagetable is not None:
        result = simulate()
    else:
        key = run_memo_key(spec, system, placement)
        if _last_run is not None and _last_run[0] == key and _last_run[1] != spec:
            result = RunResult.from_json_dict(_last_run[2])
        else:
            result = simulate()
            _last_run = (key, spec, result.to_json_dict())
    if spec.kind == "optimized":
        charge_profiling(result)
    return result


def _worker_init(parent_sys_path: List[str]) -> None:
    # with a spawn/forkserver start method the worker re-imports repro;
    # inherit the parent's import path so `src` layouts keep working
    sys.path[:] = parent_sys_path


# -- per-spec supervision ------------------------------------------------------------


def check_spec_timeout(spec_timeout: Optional[float]) -> None:
    """Raise :class:`ConfigError` unless the alarm can arm ``spec_timeout``.

    ``None`` (no timeout) always passes.  Otherwise the platform needs
    SIGALRM, and the value must lie in ``(0, MAX_SPEC_TIMEOUT_S]``:
    ``setitimer`` rejects NaN, infinity and larger values, which would
    fail every spec the moment its alarm is armed.
    """
    if spec_timeout is None:
        return
    if not hasattr(signal, "SIGALRM"):
        raise ConfigError("spec_timeout needs SIGALRM, which this platform lacks")
    if not 0.0 < spec_timeout <= MAX_SPEC_TIMEOUT_S:  # NaN fails both
        raise ConfigError(
            f"spec_timeout must be in (0, {MAX_SPEC_TIMEOUT_S:.0f}] seconds, "
            f"got {spec_timeout}"
        )


def _alarm_handler(signum, frame) -> None:
    raise SpecTimeoutError("spec exceeded its wall-clock budget")


def supervised_call(
    execute: Callable[[RunSpec], RunResult],
    spec: RunSpec,
    timeout_s: Optional[float],
    attempt: int = 1,
) -> RunResult:
    """Run attempt number ``attempt`` of one spec: back off, arm, execute.

    Every attempt of every spec runs through here, in the process that
    executes it.  A retry first sleeps its capped exponential backoff
    (:data:`RETRY_BACKOFF_S` doubling up to :data:`RETRY_BACKOFF_CAP_S`).
    With a timeout, a SIGALRM is then armed for the attempt, and its
    :class:`~repro.errors.SpecTimeoutError` ends the attempt wherever it
    is; inside ``Simulator.run`` it leaves as
    :class:`~repro.errors.SimStallError` with the blocked-thread
    snapshot.  The caller has checked the timeout
    (:func:`check_spec_timeout`) and runs this on its main thread.

    The caller's SIGALRM state is restored on exit: both the previous
    handler *and* any previously armed itimer (its remaining time is
    re-armed, so an outer alarm still fires about when it would have).
    """
    if attempt > 1:
        time.sleep(min(RETRY_BACKOFF_CAP_S, RETRY_BACKOFF_S * 2 ** (attempt - 2)))
    if timeout_s is None:
        return execute(spec)
    previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    armed_at = time.monotonic()
    previous_delay, previous_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout_s
    )
    try:
        return execute(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if previous_delay:
            remaining = previous_delay - (time.monotonic() - armed_at)
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), previous_interval
            )


def _diagnose(exc: BaseException) -> str:
    """Where-did-it-hang detail for stall/deadlock failures."""
    if isinstance(exc, SimStallError):
        blocked = exc.snapshot.get("blocked", [])
        lines = [
            f"stalled at t={exc.snapshot.get('time_ps', '?')}ps, "
            f"queue_depth={exc.snapshot.get('queue_depth', '?')}, "
            f"live_threads={exc.snapshot.get('live_threads', '?')}, "
            f"interrupted={exc.snapshot.get('interrupted', '?')}"
        ]
        lines += [f"  {name} <- {waiting}" for name, waiting in blocked]
        return "\n".join(lines)
    if isinstance(exc, DeadlockError):
        lines = [f"deadlocked at t={exc.time_ps}ps"]
        lines += [f"  {name} <- {waiting}" for name, waiting in exc.blocked[:16]]
        return "\n".join(lines)
    return ""


@dataclass
class DeadLetter:
    """One quarantined spec: what failed, how often, and why."""

    spec: RunSpec
    key: str
    attempts: int
    error: str
    diagnosis: str = ""

    def summary(self) -> str:
        """One human-readable line for the sweep report."""
        line = (
            f"{self.spec.workload}/{self.spec.config} kind={self.spec.kind} "
            f"seed={self.spec.seed}: {self.error} (attempts={self.attempts})"
        )
        if self.diagnosis:
            line += "\n    " + self.diagnosis.replace("\n", "\n    ")
        return line


# -- the runner ----------------------------------------------------------------------


class SweepRunner:
    """Executes RunSpec batches with memoisation, process fan-out, and
    supervision: incremental checkpointing, retry/quarantine, per-spec
    timeouts, and pool respawn."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[Union[ResultsCache, str]] = None,
        execute: Callable[[RunSpec], RunResult] = execute_spec,
        retries: int = 1,
        spec_timeout: Optional[float] = None,
        strict: bool = True,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        check_spec_timeout(spec_timeout)
        self.jobs = jobs
        if isinstance(cache, str):
            cache = ResultsCache(cache) if cache else None
        #: the results cache (``None``, also for ``cache=""``: every spec
        #: simulates, nothing persists).
        self.cache = cache
        self.execute = execute
        #: extra attempts granted to a failing spec before quarantine.
        self.retries = retries
        #: per-spec wall-clock budget in seconds (None = unbounded).
        self.spec_timeout = spec_timeout
        #: strict: a batch with quarantined specs raises
        #: :class:`SweepExecutionError` *after* every healthy spec has
        #: completed and been checkpointed.  Non-strict: ``run`` returns
        #: ``None`` at the failed positions and the caller inspects
        #: :attr:`dead_letters`.
        self.strict = strict
        #: specs served without simulating (disk hits + in-batch dedup).
        self.hits = 0
        #: specs handed to :attr:`execute`; the run memo of
        #: :func:`execute_spec` may serve some without simulating.
        self.misses = 0
        #: quarantined specs across every batch this runner executed.
        self.dead_letters: List[DeadLetter] = []

    @property
    def stats(self) -> Dict[str, int]:
        """The ``cache.*`` stats the CLI prints after a command."""
        return {"cache.hits": self.hits, "cache.misses": self.misses}

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute a batch; results are ordered exactly like ``specs``.

        With a cache, each distinct spec simulates at most once per batch
        (duplicates share the result) and not at all when a warm cache
        entry exists.  Without one every spec simulates, unconditionally.

        Every completed spec is checkpointed to the cache *the moment it
        finishes*, so an interrupted batch (crash, ``KeyboardInterrupt``)
        keeps all finished work and a rerun resumes from the cache.
        Failing specs are retried (:attr:`retries`) and then quarantined
        into :attr:`dead_letters`; see :attr:`strict` for how quarantine
        surfaces to the caller.
        """
        spec_list = list(specs)
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        #: positions in miss_specs -> all batch indices sharing that run.
        targets: List[List[int]] = []
        miss_specs: List[RunSpec] = []
        miss_keys: List[str] = []

        cache = self.cache
        if cache is not None:
            pending: Dict[str, int] = {}  # key -> position in miss_specs
            for index, spec in enumerate(spec_list):
                key = spec.cache_key()
                if key in pending:  # in-batch duplicate: share the one run
                    targets[pending[key]].append(index)
                    continue
                cached = cache.get(key)
                if cached is not None:
                    results[index] = cached
                    continue
                pending[key] = len(miss_specs)
                miss_specs.append(spec)
                miss_keys.append(key)
                targets.append([index])
        else:
            miss_specs = spec_list
            miss_keys = [spec.cache_key() for spec in spec_list]
            targets = [[index] for index in range(len(spec_list))]

        def checkpoint(pos: int, result: RunResult) -> None:
            if cache is not None:
                cache.put(miss_keys[pos], result, spec=miss_specs[pos].to_json_dict())
            for index in targets[pos]:
                results[index] = result

        failures = self._execute_supervised(miss_specs, miss_keys, checkpoint)

        self.misses += len(miss_specs)
        self.hits += len(spec_list) - len(miss_specs)
        if failures:
            self.dead_letters.extend(failures)
            if self.strict:
                detail = "; ".join(f.summary().splitlines()[0] for f in failures[:4])
                raise SweepExecutionError(
                    f"{len(failures)} spec(s) quarantined after exhausting "
                    f"their retry budget ({detail}); all other specs "
                    "completed and were checkpointed",
                    dead_letters=failures,
                )
        return results  # type: ignore[return-value]

    # -- supervised execution --------------------------------------------------------

    def _execute_supervised(
        self,
        specs: List[RunSpec],
        keys: List[str],
        checkpoint: Callable[[int, RunResult], None],
    ) -> List[DeadLetter]:
        """Run every spec (at-most-once success each), return quarantines."""
        if not specs:
            return []
        if self.jobs > 1:
            return self._run_pool(specs, keys, checkpoint)
        # refused before any spec runs, so no spec is charged for it
        if (
            self.spec_timeout is not None
            and threading.current_thread() is not threading.main_thread()
        ):
            raise ConfigError(
                "spec_timeout arms SIGALRM, which only the main thread "
                "receives; run this in-process batch on the main thread"
            )
        return self._run_serial(specs, keys, checkpoint)

    def _run_serial(
        self,
        specs: List[RunSpec],
        keys: List[str],
        checkpoint: Callable[[int, RunResult], None],
    ) -> List[DeadLetter]:
        """In-process execution: each spec's attempts back to back."""
        failures: List[DeadLetter] = []
        for pos, spec in enumerate(specs):
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = supervised_call(
                        self.execute, spec, self.spec_timeout, attempt
                    )
                except Exception as exc:
                    if attempt <= self.retries:
                        continue
                    failures.append(
                        DeadLetter(
                            spec,
                            keys[pos],
                            attempt,
                            f"{type(exc).__name__}: {exc}",
                            _diagnose(exc),
                        )
                    )
                else:
                    checkpoint(pos, result)
                break
        return failures

    def _new_pool(self, width: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, width),
            initializer=_worker_init,
            initargs=(list(sys.path),),
        )

    def _run_pool(
        self,
        specs: List[RunSpec],
        keys: List[str],
        checkpoint: Callable[[int, RunResult], None],
    ) -> List[DeadLetter]:
        """Submit every spec, then collect completions as they come.

        A failed attempt within budget is resubmitted at once; the
        worker that runs the retry sleeps its backoff.  A dead worker
        breaks the pool and every attempt in flight with it: each is
        charged, the specs out of budget are quarantined and the rest go
        to a fresh pool.  Every break costs each spec in flight an
        attempt, so a batch sees at most ``len(specs) * (retries + 1)``.
        """
        failures: List[DeadLetter] = []
        attempts = [0] * len(specs)
        #: specs waiting for (re)submission, and the spec of each future
        queued = deque(range(len(specs)))
        inflight: Dict[Future, int] = {}

        def failed(pos: int, error: str, diagnosis: str = "") -> None:
            """Queue the spec's next attempt, or quarantine it."""
            if attempts[pos] <= self.retries:
                queued.append(pos)
            else:
                failures.append(
                    DeadLetter(specs[pos], keys[pos], attempts[pos], error, diagnosis)
                )

        pool = self._new_pool(len(specs))
        try:
            while queued or inflight:
                try:
                    while queued:
                        pos = queued[0]
                        future = pool.submit(
                            supervised_call,
                            self.execute,
                            specs[pos],
                            self.spec_timeout,
                            attempts[pos] + 1,
                        )
                        queued.popleft()
                        attempts[pos] += 1
                        inflight[future] = pos
                    done, _running = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            raise  # charged below, with the rest in flight
                        except Exception as exc:
                            failed(
                                inflight.pop(future),
                                f"{type(exc).__name__}: {exc}",
                                _diagnose(exc),
                            )
                        else:
                            checkpoint(inflight.pop(future), result)
                except BrokenProcessPool:
                    # a worker died, and every attempt in flight with it
                    pool.shutdown(wait=False, cancel_futures=True)
                    for pos in sorted(inflight.values()):
                        failed(pos, "worker process died (BrokenProcessPool)")
                    inflight.clear()
                    pool = self._new_pool(len(specs))
            pool.shutdown()
            return failures
        except BaseException:
            # flush path: completed results are already checkpointed; just
            # stop handing out new work before propagating (Ctrl-C, etc.)
            pool.shutdown(wait=False, cancel_futures=True)
            raise


# -- process-wide default runner (installed by the CLI) ------------------------------

_default_runner = SweepRunner()


def get_runner() -> SweepRunner:
    """The currently installed default runner."""
    return _default_runner


def set_runner(runner: SweepRunner) -> None:
    """Install ``runner`` as the default that :func:`run_specs` uses."""
    global _default_runner
    _default_runner = runner


def run_specs(
    specs: Sequence[RunSpec], runner: Optional[SweepRunner] = None
) -> List[RunResult]:
    """Execute a spec batch on ``runner`` (default: the installed one)."""
    return (runner or _default_runner).run(specs)
