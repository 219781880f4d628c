"""Hot-path microbenchmark harness (``python -m repro.perf``).

Measures the simulator's performance-critical inner loops — event-queue
churn, route lookups, packet delivery, and one end-to-end tiny
experiment — and writes ``BENCH_hotpath.json``.  Raw ops/sec are
machine-dependent, so every report also carries a calibration score (a
fixed pure-Python loop timed on the same machine) and *normalized*
throughput; the cached-vs-legacy route-lookup speedup ratio is
machine-independent and is what CI's perf-smoke job asserts against.
"""

from repro.perf.benches import BENCHES, run_benches
from repro.perf.calibrate import calibrate

__all__ = ["BENCHES", "run_benches", "calibrate"]
