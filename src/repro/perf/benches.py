"""The individual hot-path microbenchmarks.

Each benchmark returns ``{"name", "ops", "wall_s", "ops_per_sec"}`` plus
benchmark-specific extras.  The route-lookup bench also runs a faithful
re-implementation of the old per-call route computation, so the report
carries an in-PR speedup ratio that CI can assert without a recorded
machine-specific baseline.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional

from repro.interconnect.network import PacketNetwork
from repro.interconnect.topology import Topology
from repro.sim import Simulator, StatRegistry

Bench = Callable[[bool], Dict[str, object]]


def _result(name: str, ops: int, wall_s: float, **extra: object) -> Dict[str, object]:
    out: Dict[str, object] = {
        "name": name,
        "ops": ops,
        "wall_s": wall_s,
        "ops_per_sec": ops / wall_s if wall_s > 0 else 0.0,
    }
    out.update(extra)
    return out


# -- engine ------------------------------------------------------------------------


def bench_engine_churn(quick: bool) -> Dict[str, object]:
    """Raw event-loop throughput: timeout-driven ping-pong processes."""
    n = 30_000 if quick else 300_000
    sim = Simulator()

    def churn(delay: int, count: int):
        for _ in range(count):
            yield delay

    for lane, delay in enumerate((7, 11, 13, 17)):
        sim.process(churn(delay, n // 4), name=f"churn{lane}")
    start = time.perf_counter()
    sim.run()
    return _result("engine_churn", n, time.perf_counter() - start)


# -- routing -----------------------------------------------------------------------


def _legacy_route_lookup(topo: Topology, src: int, dst: int) -> int:
    """The pre-refactor lookup: per-call chain walk + per-call edge set."""
    path = [src]
    node = src
    while node != dst:
        node = topo.next_hop(node, dst)
        path.append(node)
    hops = 0
    for a, b in zip(path, path[1:]):
        key = (a, b) if a < b else (b, a)
        if key in set(topo.edges):  # the old _edge_set() built this per call
            hops += 1
    return hops


def bench_route_lookup(quick: bool) -> Dict[str, object]:
    """Cached path/hops/edge_key lookups vs the pre-refactor computation."""
    rounds = 30 if quick else 300
    topo = Topology("mesh", 16)
    pairs = [(a, b) for a in range(topo.n) for b in range(topo.n) if a != b]
    n = rounds * len(pairs)

    start = time.perf_counter()
    total = 0
    for _ in range(rounds):
        for a, b in pairs:
            path = topo.path(a, b)
            total += topo.hops(a, b)
            total += len(topo.edge_key(path[0], path[1]))
    cached_s = time.perf_counter() - start

    start = time.perf_counter()
    legacy_total = 0
    for _ in range(rounds):
        for a, b in pairs:
            legacy_total += _legacy_route_lookup(topo, a, b)
    legacy_s = time.perf_counter() - start

    return _result(
        "route_lookup",
        n,
        cached_s,
        checksum=total,
        legacy_wall_s=legacy_s,
        legacy_ops_per_sec=n / legacy_s if legacy_s > 0 else 0.0,
        speedup=legacy_s / cached_s if cached_s > 0 else 0.0,
    )


# -- network -----------------------------------------------------------------------


def _make_network(sim: Simulator, topo: Topology) -> PacketNetwork:
    return PacketNetwork(
        sim,
        topo,
        bandwidth_gbps=25.0,
        hop_latency_ps=10_000,
        wire_latency_ps=5_000,
        stats=StatRegistry(),
        name="bench",
    )


def bench_network_p2p(quick: bool) -> Dict[str, object]:
    """Store-and-forward point-to-point packets over a 4x4 mesh."""
    n = 1_500 if quick else 10_000
    sim = Simulator()
    topo = Topology("mesh", 16)
    net = _make_network(sim, topo)
    rng = random.Random(7)
    pairs = [(a, b) for a in range(topo.n) for b in range(topo.n) if a != b]

    def driver():
        for i in range(n):
            src, dst = pairs[rng.randrange(len(pairs))]
            yield net.send(src, dst, 256)

    sim.process(driver(), name="p2p")
    start = time.perf_counter()
    sim.run()
    return _result("network_p2p", n, time.perf_counter() - start)


def bench_network_broadcast(quick: bool) -> Dict[str, object]:
    """Pipelined whole-group floods from rotating roots."""
    n = 300 if quick else 2_000
    sim = Simulator()
    topo = Topology("mesh", 16)
    net = _make_network(sim, topo)

    def driver():
        for i in range(n):
            yield net.broadcast(i % topo.n, 1024)

    sim.process(driver(), name="bc")
    start = time.perf_counter()
    sim.run()
    return _result("network_broadcast", n, time.perf_counter() - start)


# -- end to end --------------------------------------------------------------------


def bench_headline_tiny(quick: bool) -> Dict[str, object]:
    """One full tiny-size DIMM-Link experiment through the runner."""
    # imported here: the experiments layer pulls in the whole stack
    from repro.experiments.runner import RunSpec, execute_spec

    spec = RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", mechanism="dimm_link"
    )
    start = time.perf_counter()
    result = execute_spec(spec)
    wall = time.perf_counter() - start
    return _result("headline_tiny", 1, wall, simulated_ps=result.time_ps)


BENCHES: Dict[str, Bench] = {
    "engine_churn": bench_engine_churn,
    "route_lookup": bench_route_lookup,
    "network_p2p": bench_network_p2p,
    "network_broadcast": bench_network_broadcast,
    "headline_tiny": bench_headline_tiny,
}


def run_benches(
    quick: bool = False, only: Optional[List[str]] = None
) -> List[Dict[str, object]]:
    """Run the selected benchmarks in declaration order."""
    names = list(BENCHES) if not only else list(only)
    results = []
    for name in names:
        results.append(BENCHES[name](quick))
    return results
