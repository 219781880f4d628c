"""Machine-speed calibration for end-to-end benchmarks.

Benchmark numbers from different machines (or the same machine under
load) are not directly comparable.  :func:`calibrate` therefore times a
fixed pure-Python workload — dict/heap/arithmetic operations shaped like
the simulator's own inner loops — whose throughput a benchmark report
records next to its wall times.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict

#: operations per calibration round (kept fixed forever: changing it
#: invalidates cross-run normalized comparisons).
ROUND_OPS = 50_000


def _calibration_round() -> int:
    """One fixed unit of simulator-shaped work; returns a checksum."""
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    table: Dict[int, int] = {}
    acc = 0
    for i in range(ROUND_OPS):
        push(heap, ((i * 2654435761) & 0xFFFF, i))
        table[i & 1023] = acc
        acc += table.get((i * 7) & 1023, 0) & 0xFFFF
        if i & 1:
            acc ^= pop(heap)[0]
    return acc


def calibrate(min_seconds: float = 0.2) -> Dict[str, float]:
    """Time calibration rounds for at least ``min_seconds``.

    Returns ``{"ops_per_sec": ..., "wall_s": ..., "rounds": ...}``.
    """
    _calibration_round()  # warm-up (bytecode caches, allocator)
    rounds = 0
    start = time.perf_counter()
    while True:
        _calibration_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            break
    return {
        "ops_per_sec": rounds * ROUND_OPS / elapsed,
        "wall_s": elapsed,
        "rounds": rounds,
    }
