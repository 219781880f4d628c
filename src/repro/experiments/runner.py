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
  sweep.  A per-spec wall-clock timeout arms the simulation engine's
  :class:`~repro.sim.engine.StallWatchdog` (rich where-did-it-hang
  diagnosis) with a SIGALRM backstop for hangs outside the simulator.
  A :class:`~concurrent.futures.process.BrokenProcessPool` respawns the
  pool; if respawns keep dying, execution degrades to in-process serial.

The CLI configures a process-wide default runner (:func:`configure`);
experiments call :func:`run_specs` and inherit its jobs/cache settings.
Library callers that never configure anything get the safe default:
serial execution, no cache.
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

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
    run_cpu,
    run_optimized,
    threads_for,
)
from repro.experiments.deadletter import DeadLetterStore
from repro.faults import FaultSchedule, LinkDown
from repro.host.cpu import HostCPUSystem
from repro.interconnect.topology import Topology
from repro.mapping.pagetable import DATA_PLACEMENTS, PageTable, make_policy
from repro.mapping.placement import (
    co_optimized_placement,
    distance_aware_placement,
    random_placement,
)
from repro.mapping.profile import profile_traffic, profiled_page_assignment
from repro.nmp.results import RunResult
from repro.nmp.system import NMPSystem
from repro.results_cache import CODE_VERSION, ResultsCache
from repro.sim.engine import StallWatchdog, clear_watchdog, install_watchdog
from repro.sim.time import ns
from repro.workloads.base import Workload
from repro.workloads.microbench import UniformRandom

_KINDS = ("cpu", "nmp", "optimized")
_PLACEMENTS = ("natural", "random", "optimized")

#: ops per thread of the ``uniform_random`` IDC-stress kernel, by size.
UNIFORM_OPS = {"tiny": 20, "small": 60, "large": 200}

#: fault-injection time of spec-driven link-down schedules: late enough
#: that traffic is in flight, early enough that most of the kernel runs
#: degraded (matches the resilience experiment).
FAULT_TIME_PS = ns(300)

#: first retry delay; doubles per attempt up to :data:`RETRY_BACKOFF_CAP_S`.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: how far past ``spec_timeout`` the worker's SIGALRM backstop fires —
#: the engine watchdog gets first shot so a hang *inside* the simulator
#: reports its blocked processes before the coarse alarm triggers.
ALARM_GRACE = 1.25

#: extra wall-clock slack the parent grants an in-flight spec beyond the
#: worker-side timeout before it declares the worker unresponsive and
#: terminates the pool (last-resort reaper for non-Python hangs).
PARENT_REAP_GRACE_S = 10.0

#: pool respawns tolerated per batch before degrading to serial.
MAX_POOL_RESPAWNS = 2


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully determined by its field values.

    Two specs with equal fields produce bit-identical results (the
    determinism suite enforces this), which is what makes the content
    hash a sound cache key.
    """

    #: paper-style config name, e.g. ``"16D-8C"``.
    config: str
    #: workload registry name (``build_workload``) or ``"uniform_random"``.
    workload: str
    size: str = "small"
    #: workload generation seed.
    seed: int = 42
    #: ``"cpu"`` (host baseline), ``"nmp"``, or ``"optimized"`` (DL-opt
    #: flow: profile -> Algorithm 1 placement -> run, profiling charged).
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
    #: parameterized workloads (``dlrm``, ``apsp``) accept them.
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
    if spec.workload == "uniform_random":
        if spec.params:
            raise ConfigError(
                "uniform_random does not accept workload params "
                f"(got {spec.params!r})"
            )
        return UniformRandom(
            ops_per_thread=UNIFORM_OPS.get(spec.size, UNIFORM_OPS["small"]),
            remote_fraction=0.6,
            write_fraction=0.3,
            nbytes=512,
            seed=spec.seed,
        )
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


def execute_spec(spec: RunSpec) -> RunResult:
    """Simulate one spec from scratch (the cache-miss path)."""
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
    if spec.kind == "optimized":
        if spec.polling is None:
            return run_optimized(config, workload, sync_mode=spec.sync_mode)
        return run_optimized(
            config, workload, polling=spec.polling, sync_mode=spec.sync_mode
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
    elif spec.placement == "optimized" and not (
        dynamic and spec.data_placement == "profiled"
    ):
        traffic = profile_traffic(
            workload.thread_factories(threads, config.num_dimms), config.num_dimms
        )
        placement = distance_aware_placement(traffic, config)
    pagetable: Optional[PageTable] = None
    if dynamic:
        placement, pagetable = build_spec_pagetable(
            spec, config, workload, threads, placement
        )
    factories = workload.thread_factories(threads, config.num_dimms)
    return system.run(
        factories,
        placement=placement,
        workload_name=workload.name,
        pagetable=pagetable,
    )


def _worker_init(parent_sys_path: List[str]) -> None:
    # with a spawn/forkserver start method the worker re-imports repro;
    # inherit the parent's import path so `src` layouts keep working
    sys.path[:] = parent_sys_path


# -- per-spec supervision ------------------------------------------------------------


def _alarm_handler(signum, frame) -> None:
    raise SpecTimeoutError(
        "spec exceeded its wall-clock budget outside the simulator"
    )


def supervised_call(
    execute: Callable[[RunSpec], RunResult],
    spec: RunSpec,
    timeout_s: Optional[float],
) -> RunResult:
    """Run one spec under the stall watchdog and a SIGALRM backstop.

    With a timeout, the engine's :class:`StallWatchdog` is armed for the
    whole call, so a hang inside ``Simulator.run`` raises
    :class:`~repro.errors.SimStallError` with the blocked-process
    snapshot.  SIGALRM (where available, main thread only) fires
    slightly later and catches hangs the simulator cannot see —
    workload generation, placement solving, serialization.

    The caller's SIGALRM state is restored on exit: both the previous
    handler *and* any previously armed itimer (its remaining time is
    re-armed, so an outer alarm still fires about when it would have).
    """
    if timeout_s is None:
        return execute(spec)
    install_watchdog(StallWatchdog(wall_clock_limit_s=timeout_s))
    use_alarm = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if use_alarm:
        previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        armed_at = time.monotonic()
        previous_delay, previous_interval = signal.setitimer(
            signal.ITIMER_REAL, timeout_s * ALARM_GRACE
        )
    try:
        return execute(spec)
    finally:
        clear_watchdog()
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
            if previous_delay:
                remaining = previous_delay - (time.monotonic() - armed_at)
                signal.setitimer(
                    signal.ITIMER_REAL, max(remaining, 1e-6), previous_interval
                )


def _backoff_delay(attempt: int) -> float:
    """Capped exponential backoff before retry number ``attempt``."""
    return min(RETRY_BACKOFF_CAP_S, RETRY_BACKOFF_S * (2 ** max(0, attempt - 1)))


def _diagnose(exc: BaseException) -> str:
    """Where-did-it-hang detail for watchdog/deadlock failures."""
    if isinstance(exc, SimStallError):
        blocked = exc.snapshot.get("blocked", [])
        lines = [
            f"stalled at t={exc.snapshot.get('time_ps', '?')}ps, "
            f"queue_depth={exc.snapshot.get('queue_depth', '?')}, "
            f"live_processes={exc.snapshot.get('live_processes', '?')}"
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
    timeouts, and pool respawn with serial degradation.  With ``broker``
    set, batches drain through the distributed fabric
    (:mod:`repro.fabric`) instead of a local pool."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[Union[ResultsCache, str]] = None,
        use_cache: bool = True,
        execute: Callable[[RunSpec], RunResult] = execute_spec,
        retries: int = 1,
        spec_timeout: Optional[float] = None,
        strict: bool = True,
        max_pool_respawns: int = MAX_POOL_RESPAWNS,
        dead_letter_store: Optional[Union[DeadLetterStore, str]] = None,
        retry_dead_letter: bool = False,
        broker: Optional[object] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if spec_timeout is not None and spec_timeout <= 0:
            raise ConfigError(f"spec_timeout must be positive, got {spec_timeout}")
        self.jobs = jobs
        self.cache = ResultsCache(cache) if isinstance(cache, str) else cache
        #: distributed mode: a :class:`~repro.fabric.broker.WorkBroker`
        #: (or its directory).  Cache misses are submitted to the broker
        #: and drained cooperatively — this process becomes one fabric
        #: worker among however many are pointed at the same directory.
        if isinstance(broker, str):
            from repro.fabric.broker import WorkBroker

            broker = WorkBroker(broker)
        self.broker = broker
        if self.broker is not None:
            if not use_cache:
                raise ConfigError(
                    "broker mode requires the results cache: idempotent "
                    "publishing is what makes at-least-once execution "
                    "yield exactly-once results"
                )
            if self.cache is None:
                self.cache = self.broker.cache  # type: ignore[attr-defined]
            if dead_letter_store is None:
                dead_letter_store = self.broker.dead_letters  # type: ignore[attr-defined]
        self.use_cache = use_cache and self.cache is not None
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
        self.max_pool_respawns = max_pool_respawns
        #: persisted quarantine: a rerun skips specs recorded here unless
        #: :attr:`retry_dead_letter` is set; fresh quarantines are written
        #: through, and a skipped-then-retried spec that succeeds is
        #: removed.
        self.dead_letter_store = (
            DeadLetterStore(dead_letter_store)
            if isinstance(dead_letter_store, str)
            else dead_letter_store
        )
        #: re-attempt specs the persisted store marks dead.
        self.retry_dead_letter = retry_dead_letter
        #: specs served without simulating (disk hits + in-batch dedup).
        self.hits = 0
        #: simulations actually attempted.
        self.misses = 0
        #: specs skipped because the persisted store marks them dead.
        self.skipped_dead = 0
        #: quarantined specs across every batch this runner executed.
        self.dead_letters: List[DeadLetter] = []

    @property
    def stats(self) -> Dict[str, int]:
        """The ``cache.*`` stats the CLI prints after a command."""
        return {"cache.hits": self.hits, "cache.misses": self.misses}

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute a batch; results are ordered exactly like ``specs``.

        With caching enabled, each distinct spec simulates at most once
        per batch (duplicates share the result) and not at all when a
        warm cache entry exists.  With caching disabled every spec
        simulates, unconditionally.

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

        if self.use_cache:
            pending: Dict[str, int] = {}  # key -> position in miss_specs
            for index, spec in enumerate(spec_list):
                key = spec.cache_key()
                if key in pending:  # in-batch duplicate: share the one run
                    targets[pending[key]].append(index)
                    continue
                cached = self.cache.get(key)
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

        # known-bad specs from a previous run: skip without re-attempting
        # (unless retry_dead_letter asks for another try)
        skipped: List[DeadLetter] = []
        skipped_indices = 0
        store = self.dead_letter_store
        if store is not None and not self.retry_dead_letter:
            keep: List[int] = []
            for pos, key in enumerate(miss_keys):
                known = store.known(key)
                if known is None:
                    keep.append(pos)
                    continue
                skipped_indices += len(targets[pos])
                skipped.append(
                    self._dead_letter(
                        miss_specs[pos],
                        key,
                        int(known.get("attempts", 0)),
                        "skipped: persisted dead-letter "
                        f"({known.get('error', 'unknown failure')}); "
                        "rerun with --retry-dead-letter to re-attempt",
                        str(known.get("diagnosis", "")),
                    )
                )
            if len(keep) != len(miss_keys):
                miss_specs = [miss_specs[pos] for pos in keep]
                miss_keys = [miss_keys[pos] for pos in keep]
                targets = [targets[pos] for pos in keep]

        def checkpoint(pos: int, result: RunResult) -> None:
            if self.use_cache:
                self.cache.put(
                    miss_keys[pos], result, spec=miss_specs[pos].to_json_dict()
                )
            if store is not None:
                store.discard(miss_keys[pos])  # succeeded: no longer dead
            for index in targets[pos]:
                results[index] = result

        failures = self._execute_supervised(miss_specs, miss_keys, checkpoint)

        if store is not None:
            for letter in failures:
                store.record(
                    letter.key,
                    letter.spec.to_json_dict(),
                    letter.attempts,
                    letter.error,
                    letter.diagnosis,
                )

        self.misses += len(miss_specs)
        self.hits += len(spec_list) - len(miss_specs) - skipped_indices
        self.skipped_dead += len(skipped)
        failures = skipped + failures
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
        if self.broker is not None:
            return self._run_fabric(specs, keys, checkpoint)
        if self.jobs == 1 or len(specs) <= 1:
            return self._run_serial(list(range(len(specs))), specs, keys, checkpoint)
        return self._run_pool(specs, keys, checkpoint)

    def _run_fabric(
        self,
        specs: List[RunSpec],
        keys: List[str],
        checkpoint: Callable[[int, RunResult], None],
    ) -> List[DeadLetter]:
        """Drain the batch through the work broker (distributed mode).

        The misses are submitted to the broker's durable queue —
        deduplicated there against finished cache entries and work other
        submitters/workers already have in flight — and this process
        joins the farm as one more pull-based worker.  Any number of
        ``dimmlink-repro work`` processes (or other broker-mode runs)
        pointed at the same directory drain the queue cooperatively;
        results are collected from the shared cache as their journal
        records reach ``done``, so it doesn't matter *who* executed a
        spec.  Specs the broker quarantines come back as dead letters,
        exactly like local-mode failures.
        """
        from repro.fabric.worker import Worker

        broker = self.broker
        broker.submit(specs, retry_dead=self.retry_dead_letter)
        worker = Worker(
            broker,
            execute=self.execute,
            spec_timeout=self.spec_timeout,
        )
        failures: List[DeadLetter] = []
        unresolved: Dict[str, int] = {key: pos for pos, key in enumerate(keys)}
        while unresolved:
            records = broker.records()
            resolved_any = False
            for key in list(unresolved):
                record = records.get(key)
                pos = unresolved[key]
                if record is None:
                    known = broker.dead_letters.known(key)
                    if known is not None:
                        # quarantined by a pre-fabric run: surface it
                        failures.append(
                            self._dead_letter(
                                specs[pos],
                                key,
                                int(known.get("attempts", 0)),
                                str(known.get("error", "unknown failure")),
                                str(known.get("diagnosis", "")),
                            )
                        )
                        del unresolved[key]
                        resolved_any = True
                    else:  # lost enqueue somehow: resubmit just this spec
                        broker.submit([specs[pos]])
                    continue
                if record.state == "done":
                    result = self.cache.get(key)
                    if result is None:
                        # journal says done but the cache entry is gone
                        # (e.g. quarantined as corrupt): re-run the spec
                        broker.resubmit(key)
                        continue
                    checkpoint(pos, result)
                    del unresolved[key]
                    resolved_any = True
                elif record.state == "dead":
                    failures.append(
                        self._dead_letter(
                            specs[pos],
                            key,
                            record.attempts,
                            record.error,
                            record.diagnosis,
                        )
                    )
                    del unresolved[key]
                    resolved_any = True
            if not unresolved:
                break
            if worker.step() or resolved_any:
                continue  # progressed: look again immediately
            time.sleep(worker.poll_interval_s)  # others hold the leases
        return failures

    def _dead_letter(
        self, spec: RunSpec, key: str, attempts: int, error: str, diagnosis: str = ""
    ) -> DeadLetter:
        return DeadLetter(
            spec=spec, key=key, attempts=attempts, error=error, diagnosis=diagnosis
        )

    def _run_serial(
        self,
        positions: List[int],
        specs: List[RunSpec],
        keys: List[str],
        checkpoint: Callable[[int, RunResult], None],
        attempts: Optional[Dict[int, int]] = None,
    ) -> List[DeadLetter]:
        """In-process execution with retries (also the degraded path)."""
        attempts = attempts if attempts is not None else {}
        failures: List[DeadLetter] = []
        for pos in positions:
            while True:
                attempts[pos] = attempts.get(pos, 0) + 1
                try:
                    result = supervised_call(
                        self.execute, specs[pos], self.spec_timeout
                    )
                except Exception as exc:
                    if attempts[pos] > self.retries:
                        failures.append(
                            self._dead_letter(
                                specs[pos],
                                keys[pos],
                                attempts[pos],
                                f"{type(exc).__name__}: {exc}",
                                _diagnose(exc),
                            )
                        )
                        break
                    time.sleep(_backoff_delay(attempts[pos]))
                    continue
                checkpoint(pos, result)
                break
        return failures

    def _new_pool(self, width: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, width),
            initializer=_worker_init,
            initargs=(list(sys.path),),
        )

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        specs: List[RunSpec],
        pos: int,
        inflight: Dict[Future, int],
        started: Dict[Future, float],
        attempts: Dict[int, int],
    ) -> None:
        attempts[pos] = attempts.get(pos, 0) + 1
        future = pool.submit(
            supervised_call, self.execute, specs[pos], self.spec_timeout
        )
        inflight[future] = pos
        started[future] = time.monotonic()

    def _run_pool(
        self,
        specs: List[RunSpec],
        keys: List[str],
        checkpoint: Callable[[int, RunResult], None],
    ) -> List[DeadLetter]:
        """submit/as-completed dispatch with retry, timeout, and respawn."""
        failures: List[DeadLetter] = []
        attempts: Dict[int, int] = {}
        timed_out: Set[int] = set()
        #: (due_monotonic, pos) retries parked for their backoff delay.
        backoff: "deque[Tuple[float, int]]" = deque()
        respawns = 0
        pool = self._new_pool(len(specs))
        inflight: Dict[Future, int] = {}
        started: Dict[Future, float] = {}

        def recover(broken_pool: ProcessPoolExecutor, first_pos: int):
            """Pool died: quarantine/respawn, or degrade to serial.

            Returns the fresh pool, or ``None`` once respawns are
            exhausted — the remaining specs then finish in-process and
            their outcomes are already folded into ``failures``.
            """
            nonlocal respawns
            survivors = self._absorb_pool_break(
                sorted({first_pos, *inflight.values()}),
                specs,
                keys,
                attempts,
                timed_out,
                failures,
            )
            inflight.clear()
            started.clear()
            respawns += 1
            broken_pool.shutdown(wait=False, cancel_futures=True)
            remaining = survivors + sorted(pos for _due, pos in backoff)
            backoff.clear()
            if respawns > self.max_pool_respawns:
                # workers keep dying: finish in-process, serially
                failures.extend(
                    self._run_serial(remaining, specs, keys, checkpoint, attempts)
                )
                return None
            fresh = self._new_pool(len(specs))
            for retry_pos in remaining:
                self._submit(fresh, specs, retry_pos, inflight, started, attempts)
            return fresh

        try:
            for pos in range(len(specs)):
                self._submit(pool, specs, pos, inflight, started, attempts)
            while inflight or backoff:
                now = time.monotonic()
                pool_broken = False
                while backoff and backoff[0][0] <= now:
                    _due, pos = backoff.popleft()
                    try:
                        self._submit(pool, specs, pos, inflight, started, attempts)
                    except BrokenProcessPool:
                        attempts[pos] -= 1  # this attempt never started
                        pool = recover(pool, pos)
                        pool_broken = True
                        break
                if pool_broken:
                    if pool is None:
                        return failures
                    continue
                if not inflight:  # everything is parked on backoff
                    time.sleep(max(0.0, backoff[0][0] - time.monotonic()))
                    continue
                tick = 0.1 if (self.spec_timeout is not None or backoff) else None
                done, _running = wait(
                    set(inflight), timeout=tick, return_when=FIRST_COMPLETED
                )
                for future in done:
                    pos = inflight.pop(future)
                    started.pop(future, None)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        pool = recover(pool, pos)
                        if pool is None:
                            return failures
                        break  # other done futures belong to the dead pool
                    except Exception as exc:
                        if attempts[pos] > self.retries:
                            failures.append(
                                self._dead_letter(
                                    specs[pos],
                                    keys[pos],
                                    attempts[pos],
                                    f"{type(exc).__name__}: {exc}",
                                    _diagnose(exc),
                                )
                            )
                        else:
                            backoff.append(
                                (
                                    time.monotonic()
                                    + _backoff_delay(attempts[pos]),
                                    pos,
                                )
                            )
                    else:
                        checkpoint(pos, result)
                if not pool_broken and self.spec_timeout is not None:
                    self._reap_overdue(pool, inflight, started, timed_out)
            pool.shutdown()
            return failures
        except BaseException:
            # flush path: completed results are already checkpointed; just
            # stop handing out new work before propagating (Ctrl-C, etc.)
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    def _absorb_pool_break(
        self,
        positions: List[int],
        specs: List[RunSpec],
        keys: List[str],
        attempts: Dict[int, int],
        timed_out: Set[int],
        failures: List[DeadLetter],
    ) -> List[int]:
        """Split in-flight specs of a dead pool into retries vs quarantine.

        Every in-flight spec's attempt died with the pool; the ones out
        of budget are dead-lettered, the rest are returned for
        resubmission (an innocent bystander of a crashing neighbour
        succeeds on its retry).
        """
        survivors: List[int] = []
        for pos in positions:
            if attempts.get(pos, 0) > self.retries:
                cause = (
                    "wall-clock timeout: worker unresponsive, terminated by "
                    "the parent reaper"
                    if pos in timed_out
                    else "worker process died (BrokenProcessPool)"
                )
                failures.append(
                    self._dead_letter(specs[pos], keys[pos], attempts[pos], cause)
                )
            else:
                survivors.append(pos)
        return survivors

    def _reap_overdue(
        self,
        pool: ProcessPoolExecutor,
        inflight: Dict[Future, int],
        started: Dict[Future, float],
        timed_out: Set[int],
    ) -> None:
        """Terminate the pool when a worker blew through every timeout.

        The worker-side watchdog + SIGALRM normally end an overdue spec
        from within; this parent-side backstop only fires when a worker
        is so wedged it ignored both (e.g. stuck outside the bytecode
        loop), and recovery then rides the BrokenProcessPool path.
        """
        assert self.spec_timeout is not None
        budget = self.spec_timeout * ALARM_GRACE + PARENT_REAP_GRACE_S
        now = time.monotonic()
        overdue = [
            future
            for future, begun in started.items()
            if future in inflight and now - begun > budget
        ]
        if not overdue:
            return
        for future in overdue:
            timed_out.add(inflight[future])
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()


# -- process-wide default runner (configured by the CLI) -----------------------------

_default_runner = SweepRunner()


def configure(
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    retries: int = 1,
    spec_timeout: Optional[float] = None,
    strict: bool = True,
    retry_dead_letter: bool = False,
    broker: Optional[object] = None,
) -> SweepRunner:
    """Install (and return) the default runner experiments will use.

    The dead-letter store lives next to the results cache: configuring a
    cache directory makes quarantines persistent (reruns skip them), with
    ``retry_dead_letter`` forcing a fresh attempt.  With ``broker`` (a
    built :class:`~repro.fabric.broker.WorkBroker`), grid misses drain
    through the distributed fabric (:mod:`repro.fabric`) instead of a
    local process pool, and the runner takes the broker's shared cache
    and quarantine; ``cache_dir`` is then unused.
    """
    global _default_runner
    cache = None
    if broker is None and cache_dir and use_cache:
        cache = ResultsCache(cache_dir)
    store = DeadLetterStore(cache.cache_dir) if cache is not None else None
    _default_runner = SweepRunner(
        jobs=jobs,
        cache=cache,
        use_cache=use_cache,
        retries=retries,
        spec_timeout=spec_timeout,
        strict=strict,
        dead_letter_store=store,
        retry_dead_letter=retry_dead_letter,
        broker=broker,
    )
    return _default_runner


def get_runner() -> SweepRunner:
    """The currently configured default runner."""
    return _default_runner


def set_runner(runner: SweepRunner) -> None:
    """Install an already-built runner as the default (CLI restore path)."""
    global _default_runner
    _default_runner = runner


def run_specs(
    specs: Sequence[RunSpec], runner: Optional[SweepRunner] = None
) -> List[RunResult]:
    """Execute a spec batch on ``runner`` (default: the configured one)."""
    return (runner or _default_runner).run(specs)
