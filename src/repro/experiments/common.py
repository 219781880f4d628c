"""Shared experiment plumbing: workload registry, system runners.

Every figure/table module builds on these helpers:

* :func:`build_workload` — Table IV workloads at three size presets
  (``tiny`` for unit tests/benches, ``small`` for examples, ``large`` for
  longer runs),
* :func:`run_nmp` / :func:`run_cpu` — execute a workload on a configured
  system,
* :func:`run_optimized` — the DL-opt flow: profile traffic, solve the
  distance-aware placement (:func:`optimized_placement`), run, and
  charge the profiling overhead (:func:`charge_profiling`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.host.cpu import HostCPUSystem
from repro.mapping.placement import distance_aware_placement
from repro.mapping.profile import DEFAULT_PROFILE_FRACTION, profile_traffic
from repro.nmp.results import RunResult
from repro.nmp.system import NMPSystem
from repro.workloads.apsp import BlockedFloydWarshall
from repro.workloads.base import Workload
from repro.workloads.bfs import BFS
from repro.workloads.dlrm import DLRMEmbedding
from repro.workloads.hotpage import HotPage
from repro.workloads.hotspot import Hotspot
from repro.workloads.kmeans import KMeans
from repro.workloads.microbench import UniformRandom
from repro.workloads.nw import NeedlemanWunsch
from repro.workloads.pagerank import PageRank, PageRankBC
from repro.workloads.spmv import SpMV, SpMVBC
from repro.workloads.sssp import SSSP, SSSPBC
from repro.workloads.tspow import TSPow

#: the Fig. 10 point-to-point benchmark suite (Table IV).
P2P_WORKLOADS = ("bfs", "hotspot", "kmeans", "nw", "pagerank", "sssp")
#: the Fig. 12 broadcast suite.
BC_WORKLOADS = ("pagerank_bc", "sssp_bc", "spmv_bc")

_SIZES = ("tiny", "small", "large")

_GRAPH_SCALE = {"tiny": 9, "small": 11, "large": 12}
#: traffic multiplier bridging scaled graphs to LiveJournal-size volumes.
_BYTE_SCALE = {"tiny": 4, "small": 24, "large": 48}
_ITERS = {"tiny": 2, "small": 4, "large": 8}

#: DLRM embedding-serving shapes per size preset (overridable via
#: ``overrides`` — the sweep experiments vary ``batch_size``).
_DLRM_PRESETS = {
    "tiny": dict(
        tables=4, rows=128, dim=8, pooling=4, batches_per_thread=2, batch_size=8
    ),
    "small": dict(
        tables=8, rows=512, dim=16, pooling=8, batches_per_thread=4, batch_size=32
    ),
    "large": dict(
        tables=16, rows=2048, dim=32, pooling=16, batches_per_thread=8, batch_size=64
    ),
}

#: blocked Floyd–Warshall shapes per size preset (``n``/``block``
#: overridable — the APSP experiment sweeps graph size).
_APSP_PRESETS = {
    "tiny": dict(n=48, block=12, density=0.25),
    "small": dict(n=96, block=12, density=0.25),
    "large": dict(n=192, block=16, density=0.25),
}

#: workloads accepting parameter overrides, with their preset tables.
_PARAMETERIZED = {"dlrm": _DLRM_PRESETS, "apsp": _APSP_PRESETS}

#: hotpage (hot-shard) shapes per size preset.
_HOTPAGE_PRESETS = {
    "tiny": dict(rounds=6, private_pages=8, shared_pages=2),
    "small": dict(rounds=12, private_pages=16, shared_pages=2),
    "large": dict(rounds=24, private_pages=32, shared_pages=4),
}

#: streaming R-MAT scales (``pagerank_stream``): tiny stays test-fast,
#: large crosses 1M vertices — the LiveJournal-scale paging regime the
#: in-RAM generator cannot reach.
_STREAM_SCALE = {"tiny": 12, "small": 16, "large": 20}

#: workloads whose op streams can carry page ids (dynamic placement).
PAGED_WORKLOADS = frozenset(
    {
        "bfs",
        "sssp",
        "pagerank",
        "spmv",
        "pagerank_bc",
        "sssp_bc",
        "spmv_bc",
        "hotspot",
        "hotpage",
        "pagerank_stream",
    }
)


def build_workload(
    name: str,
    size: str = "small",
    seed: int = 42,
    overrides: Optional[Dict[str, object]] = None,
    paged: bool = False,
) -> Workload:
    """Instantiate a Table IV workload, or the ``uniform_random`` IDC
    stress kernel, at a size preset.

    ``overrides`` tunes individual shape parameters of the parameterized
    workloads (``dlrm``, ``apsp``) on top of their size preset — unknown
    keys, and any override on a non-parameterized workload, raise
    :class:`~repro.errors.ConfigError` so a typo can't silently run the
    preset shape.

    ``paged=True`` makes the op streams carry page ids so a page table
    can resolve (and migrate) their data; only the workloads in
    :data:`PAGED_WORKLOADS` support it.  Off by default — unpaged ops
    are byte-identical to the pre-placement-refactor streams.
    """
    if size not in _SIZES:
        raise ConfigError(f"unknown size {size!r}; choose from {_SIZES}")
    if paged and name not in PAGED_WORKLOADS:
        raise ConfigError(
            f"workload {name!r} does not support page-granularity placement; "
            f"choose from {sorted(PAGED_WORKLOADS)}"
        )
    if name in _PARAMETERIZED:
        kwargs = dict(_PARAMETERIZED[name][size])
        for key, value in sorted((overrides or {}).items()):
            if key not in kwargs:
                raise ConfigError(
                    f"unknown {name} parameter {key!r}; "
                    f"choose from {sorted(kwargs)}"
                )
            kwargs[key] = value
        if name == "dlrm":
            return DLRMEmbedding(seed=seed, **kwargs)
        return BlockedFloydWarshall(seed=seed, **kwargs)
    if overrides:
        raise ConfigError(
            f"workload {name!r} does not accept parameter overrides "
            f"(got {sorted(overrides)})"
        )
    scale = _GRAPH_SCALE[size]
    bscale = _BYTE_SCALE[size]
    iters = _ITERS[size]
    grid = {"tiny": 128, "small": 256, "large": 512}[size]
    seq = {"tiny": 1024, "small": 2048, "large": 4096}[size]
    points = {"tiny": 8192, "small": 32768, "large": 131072}[size]
    samples = {"tiny": 2048, "small": 8192, "large": 32768}[size]
    uniform_ops = {"tiny": 20, "small": 60, "large": 200}[size]
    factories = {
        "bfs": lambda: BFS(scale=scale, seed=seed, byte_scale=bscale),
        "sssp": lambda: SSSP(scale=scale, seed=seed, rounds=iters, byte_scale=bscale),
        "pagerank": lambda: PageRank(scale=scale, seed=seed, iterations=iters, byte_scale=bscale),
        "spmv": lambda: SpMV(scale=scale, seed=seed, iterations=max(1, iters // 2), byte_scale=bscale),
        "pagerank_bc": lambda: PageRankBC(scale=scale, seed=seed, iterations=iters, byte_scale=bscale),
        "sssp_bc": lambda: SSSPBC(scale=scale, seed=seed, rounds=iters, byte_scale=bscale),
        "spmv_bc": lambda: SpMVBC(scale=scale, seed=seed, iterations=max(1, iters // 2), byte_scale=bscale),
        "hotspot": lambda: Hotspot(rows=grid, cols=grid, iterations=iters),
        "hotpage": lambda: HotPage(**_HOTPAGE_PRESETS[size]),
        "pagerank_stream": lambda: PageRank(
            scale=_STREAM_SCALE[size],
            seed=seed,
            iterations=max(2, iters // 2),
            byte_scale=1,
            streaming=True,
        ),
        "kmeans": lambda: KMeans(points=points, iterations=max(2, iters // 2)),
        "nw": lambda: NeedlemanWunsch(sequence_length=seq, block=128),
        "ts_pow": lambda: TSPow(samples_per_thread=samples, chunks=3 * iters),
        "uniform_random": lambda: UniformRandom(
            ops_per_thread=uniform_ops,
            remote_fraction=0.6,
            write_fraction=0.3,
            nbytes=512,
            seed=seed,
        ),
    }
    try:
        workload = factories[name]()
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; choose from {sorted(factories)}"
        ) from None
    if name == "pagerank_stream":
        workload.name = "pagerank_stream"
    if paged:
        workload.paged = True
    return workload


def threads_for(config: SystemConfig) -> int:
    """The paper runs four threads per DIMM."""
    return config.num_dimms * config.nmp.cores_per_dimm


def run_cpu(
    config: SystemConfig, workload: Workload, num_threads: Optional[int] = None
) -> RunResult:
    """Run a workload on the 16-core host-CPU baseline."""
    threads = num_threads or threads_for(config)
    system = HostCPUSystem(config)
    factories = workload.thread_factories(threads, config.num_dimms)
    return system.run(factories, workload_name=workload.name)


def run_nmp(
    config: SystemConfig,
    workload: Workload,
    mechanism: str = "dimm_link",
    polling: Optional[str] = None,
    sync_mode: str = "hierarchical",
    num_threads: Optional[int] = None,
) -> RunResult:
    """Run a workload on an NMP system with the natural placement."""
    threads = num_threads or threads_for(config)
    system = NMPSystem(config, idc=mechanism, polling=polling, sync_mode=sync_mode)
    factories = workload.thread_factories(threads, config.num_dimms)
    return system.run(factories, workload_name=workload.name)


def optimized_placement(
    config: SystemConfig, workload: Workload, num_threads: int
) -> List[int]:
    """DIMM-Link-opt's thread placement: profile traffic, solve Algorithm 1."""
    factories = workload.thread_factories(num_threads, config.num_dimms)
    traffic = profile_traffic(factories, config.num_dimms)
    return distance_aware_placement(traffic, config)


def charge_profiling(
    result: RunResult, profile_fraction: float = DEFAULT_PROFILE_FRACTION
) -> RunResult:
    """Charge DIMM-Link-opt's profiling phase to ``result`` (in place)."""
    result.profile_ps = int(result.time_ps * profile_fraction)
    return result


def run_optimized(
    config: SystemConfig,
    workload: Workload,
    polling: Optional[str] = "proxy",
    sync_mode: str = "hierarchical",
    num_threads: Optional[int] = None,
    profile_fraction: float = DEFAULT_PROFILE_FRACTION,
) -> RunResult:
    """DIMM-Link-opt: profile, solve Algorithm 1, run, charge profiling."""
    threads = num_threads or threads_for(config)
    placement = optimized_placement(config, workload, threads)
    system = NMPSystem(config, idc="dimm_link", polling=polling, sync_mode=sync_mode)
    factories = workload.thread_factories(threads, config.num_dimms)
    result = system.run(factories, placement=placement, workload_name=workload.name)
    return charge_profiling(result, profile_fraction)
