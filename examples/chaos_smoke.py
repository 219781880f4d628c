#!/usr/bin/env python3
"""Chaos smoke test: a sweep survives a crashing and a hanging spec.

Runs a real fig16-style grid through the supervised :class:`SweepRunner`
with a fault-injecting ``execute`` hook that makes one spec crash every
attempt and another hang until the per-spec alarm cuts it off.  Then
asserts the fault-tolerance contract end to end:

* the sweep **completes** — every healthy spec simulates, is
  checkpointed incrementally, and comes back in order;
* exactly the two bad specs are **quarantined** into the dead-letter
  list, with their retry counts and (for the hang) the diagnosis the
  alarm draws from the event loop: where the simulation was stuck;
* a warm rerun of the same sweep replays the healthy specs from the
  cache (>= 90% hit rate), so an interrupted campaign resumes with
  zero lost work.

Run:  PYTHONPATH=src python examples/chaos_smoke.py [cache-dir]

Exits nonzero (via assert) if any guarantee is violated; used as the CI
chaos step.
"""

import itertools
import sys
import tempfile

from repro.config import SystemConfig
from repro.experiments import fig16_bandwidth
from repro.experiments.runner import SweepRunner, execute_spec
from repro.nmp.system import NMPSystem
from repro.results_cache import ResultsCache
from repro.workloads.ops import Compute

#: grid: per workload a CPU reference + an 8-point bandwidth sweep;
#: 27 specs total, so a warm rerun with 2 quarantined specs still
#: clears the >= 90% hit-rate bar.
SPECS = fig16_bandwidth.specs(
    size="tiny",
    bandwidths=(4.0, 8.0, 16.0, 25.6, 32.0, 51.2, 64.0, 102.4),
    config_names=("4D-2C",),
    workload_names=("pagerank", "spmv", "bfs"),
)

CRASH_AT = 2  # spec index that raises on every attempt
HANG_AT = 5  # spec index whose simulation livelocks until the alarm fires

#: generous next to the sub-second healthy specs, tight enough that the
#: two hang attempts cost the smoke run ~20s.
SPEC_TIMEOUT_S = 10.0


def chaotic_execute(spec):
    """Fault-injecting hook: same simulations, two sabotaged points."""
    if spec == SPECS[CRASH_AT]:
        raise RuntimeError("chaos: injected crash")
    if spec == SPECS[HANG_AT]:
        # a hung *simulation*: the kernel's one thread computes forever,
        # so the event queue never drains; the worker's alarm must cut it
        # off inside Simulator.run, which names the thread
        NMPSystem(SystemConfig.named("4D-2C")).run([lambda: itertools.repeat(Compute(100))])
    return execute_spec(spec)


def run_chaos_sweep(cache_dir: str) -> None:
    bad = {CRASH_AT, HANG_AT}

    print(f"[chaos] cold sweep: {len(SPECS)} specs, 2 sabotaged ...")
    chaos = SweepRunner(
        jobs=2,
        cache=ResultsCache(cache_dir),
        execute=chaotic_execute,
        retries=1,
        spec_timeout=SPEC_TIMEOUT_S,
        strict=False,
    )
    results = chaos.run(SPECS)

    # the sweep completed: every healthy spec has an in-order result ...
    for index, result in enumerate(results):
        if index in bad:
            assert result is None, f"sabotaged spec {index} produced a result"
        else:
            assert result is not None, f"healthy spec {index} lost its result"
            assert result.workload == SPECS[index].workload
    # ... and exactly the sabotaged specs were quarantined, with retries
    quarantined = {SPECS.index(letter.spec) for letter in chaos.dead_letters}
    assert quarantined == bad, f"quarantined {quarantined}, expected {bad}"
    for letter in chaos.dead_letters:
        assert letter.attempts == 2, f"expected 2 attempts, saw {letter.attempts}"
        if SPECS.index(letter.spec) == HANG_AT:
            # the event loop's snapshot says *where* the hang was stuck
            assert "stalled at" in letter.diagnosis, letter
            assert "dimm0.core0.t0 <- delay " in letter.diagnosis, letter
        print(f"[chaos] dead-letter: {letter.summary()}")

    print("[chaos] warm rerun of the full grid (healthy specs cached) ...")
    warm = SweepRunner(
        jobs=2,
        cache=ResultsCache(cache_dir),
        execute=chaotic_execute,
        retries=0,
        spec_timeout=SPEC_TIMEOUT_S,
        strict=False,
    )
    warm.run(SPECS)
    hits, misses = warm.stats["cache.hits"], warm.stats["cache.misses"]
    rate = hits / (hits + misses)
    print(f"[chaos] warm run: {hits} hits / {misses} misses ({rate:.0%})")
    assert rate >= 0.90, f"warm hit rate {rate:.0%} < 90%"
    print("[chaos] ok: sweep survived the crash and the hang")


def main() -> None:
    if len(sys.argv) > 1:
        run_chaos_sweep(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory(prefix="dl-chaos-") as cache_dir:
            run_chaos_sweep(cache_dir)


if __name__ == "__main__":
    main()
