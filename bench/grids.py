"""The benchmark's workloads, and the child process that runs one pass.

A workload is a fixed grid of :class:`~repro.experiments.runner.RunSpec`
taken from the figure modules' own ``specs()``, with the benchmark seed
applied to every spec.  A *pass* runs the whole grid once, closed loop
(one client submits the grid and waits for all of it), in a fresh
interpreter with a cold results cache::

    python3 bench/grids.py --workload p2p_small --seed 42 --mode plain --work DIR

writes ``DIR/pass.json``.  Modes:

* ``setup``    — import the ``repro`` stack and build the grid, then exit
  (what ``setup_s`` times from outside);
* ``plain``    — the user path: ``execute_spec`` serially, or
  ``SweepRunner(jobs, cache)`` for the sweep workload;
* ``timed``    — as ``plain``, with one timing span per spec;
* ``profiled`` — as ``timed``, with each ``execute_spec`` call under
  cProfile and its self time charged to layers (``tracing.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments import (  # noqa: E402
    apsp_sweep,
    dlrm_serving,
    fig10_p2p,
    fig11_breakdown,
    fig12_broadcast,
    fig13_energy,
    fig15_polling,
    fig16_bandwidth,
    fig17_topology,
    mapping_ablation,
    placement_ablation,
    resilience,
)
from repro.experiments.runner import RunSpec, SweepRunner, execute_spec  # noqa: E402
from repro.nmp.results import RunResult  # noqa: E402
from repro.results_cache import ResultsCache  # noqa: E402

from tracing import SpanExecute, read_spans  # noqa: E402

#: every experiment module whose grid is a RunSpec list.
FIGURE_MODULES = (
    fig10_p2p,
    fig11_breakdown,
    fig12_broadcast,
    fig13_energy,
    fig15_polling,
    fig16_bandwidth,
    fig17_topology,
    mapping_ablation,
    placement_ablation,
    resilience,
    apsp_sweep,
    dlrm_serving,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark grid and how it is submitted."""

    name: str
    #: one line: why the benchmark runs this grid (``BENCHMARK.json``).
    why: str
    build: Callable[[], List[RunSpec]]
    #: 1: serial ``execute_spec`` loop, no cache.  >1: one
    #: ``SweepRunner(jobs=jobs)`` batch over a fresh results cache.
    jobs: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "p2p_small",
            "Fig. 10 column on 16D-8C: event-engine bound; the only grid with "
            "host forwarding, CPU-baseline and MCMF placement (DL-opt) specs",
            lambda: fig10_p2p.specs("small", config_names=("16D-8C",)),
        ),
        Workload(
            "broadcast_small",
            "Fig. 12 broadcast paths (DL floods, ABC, AIM bus) at 2 and 3 DPC: "
            "DRAM-heavy, no mapping; checks DRAM/interconnect changes off P2P",
            lambda: fig12_broadcast.specs("small"),
        ),
        Workload(
            "placement_small",
            "Page-placement ablation: page tables and migrations beside static "
            "reads; streaming R-MAT sets peak memory; DRAM is the top layer",
            lambda: placement_ablation.specs("small"),
        ),
        Workload(
            "sweep_tiny_jobs2",
            "Union of all 12 figure grids at tiny through SweepRunner(jobs=2) "
            "and a cold cache: per-spec fixed costs, dispatch, pickling, cache",
            lambda: [s for m in FIGURE_MODULES for s in m.specs(size="tiny")],
            jobs=2,
        ),
    )
}


def grid(name: str, seed: int) -> List[RunSpec]:
    """The workload's specs with ``seed`` applied to every one."""
    return [dataclasses.replace(s, seed=seed) for s in WORKLOADS[name].build()]


def spec_label(spec: RunSpec) -> str:
    """Short human name: workload/config/size/kind/mechanism + non-defaults."""
    parts = [spec.workload, spec.config, spec.size, spec.kind, spec.mechanism]
    default = RunSpec(config=spec.config, workload=spec.workload)
    for field in dataclasses.fields(RunSpec):
        if field.name in ("config", "workload", "size", "seed", "kind", "mechanism"):
            continue
        value = getattr(spec, field.name)
        if value != getattr(default, field.name):
            parts.append(f"{field.name}={value}")
    return "/".join(parts)


def digest(result: RunResult) -> str:
    """sha256 of the result's canonical JSON (what the goldens store)."""
    payload = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def invariant_violations(spec: RunSpec, result: RunResult) -> List[str]:
    """Checks every result must pass, whatever the seed (no golden needed)."""
    problems = []
    if result.time_ps <= 0:
        problems.append(f"time_ps={result.time_ps} is not positive")
    if result.thread_end_ps and max(result.thread_end_ps) != result.time_ps:
        problems.append("time_ps differs from the last thread's completion")
    if result.workload != spec.workload:
        problems.append(f"result is for workload {result.workload!r}")
    return problems


class SpanCache(ResultsCache):
    """Results cache with one span per ``put``: count and host seconds."""

    def __init__(self, cache_dir) -> None:
        super().__init__(cache_dir)
        self.puts = 0
        self.put_s = 0.0

    def put(self, key, result, spec=None):
        start = time.perf_counter()
        try:
            return super().put(key, result, spec=spec)
        finally:
            self.put_s += time.perf_counter() - start
            self.puts += 1


def _cpu_s() -> float:
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def run_pass(name: str, seed: int, mode: str, work: Path) -> Dict[str, object]:
    """Run the grid once; returns the pass record written to pass.json."""
    specs = grid(name, seed)
    jobs = WORKLOADS[name].jobs
    span_dir = work / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    execute = (
        execute_spec
        if mode == "plain"
        else SpanExecute(str(span_dir), profile=mode == "profiled")
    )
    cache: Optional[ResultsCache] = None
    if jobs > 1:
        cache = (ResultsCache if mode == "plain" else SpanCache)(str(work / "cache"))
    errors: Dict[str, str] = {}

    cpu_before = _cpu_s()
    start = time.perf_counter()
    if cache is not None:
        runner = SweepRunner(jobs=jobs, cache=cache, execute=execute, strict=False)
        results: List[Optional[RunResult]] = runner.run(specs)
        for letter in runner.dead_letters:
            errors[letter.key] = letter.error
    else:
        results = []
        for spec in specs:
            try:
                results.append(execute(spec))
            except Exception as exc:  # a failing spec is counted, not fatal
                results.append(None)
                errors[spec.cache_key()] = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu_before
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    keys = [spec.cache_key() for spec in specs]
    digests: Dict[str, str] = {}
    violations: Dict[str, List[str]] = {}
    for spec, key, result in zip(specs, keys, results):
        if result is None:
            errors.setdefault(key, "no result")
            continue
        digests[key] = digest(result)
        problems = invariant_violations(spec, result)
        if problems:
            violations[key] = problems
    return {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "jobs": jobs,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "keys": keys,
        "labels": {key: spec_label(spec) for key, spec in zip(keys, specs)},
        "digests": digests,
        "errors": errors,
        "violations": violations,
        "puts": getattr(cache, "puts", 0),
        "put_s": getattr(cache, "put_s", 0.0),
        "spans": read_spans(span_dir),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark pass")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "plain", "timed", "profiled")
    )
    parser.add_argument("--work", type=Path, help="pass directory (not for setup)")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        grid(args.workload, args.seed)
        return 0
    if args.work is None:
        parser.error("--work is required to run a pass")
    record = run_pass(args.workload, args.seed, args.mode, args.work)
    (args.work / "pass.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
