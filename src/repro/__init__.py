"""DIMM-Link (HPCA 2023) reproduction.

A discrete-event model of DIMM-based near-memory processing systems with
four inter-DIMM communication mechanisms — CPU forwarding (MCN/UPMEM), a
dedicated bus (AIM), intra-channel broadcast (ABC-DIMM), and the paper's
DIMM-Link interconnect — plus the workloads, task-mapping optimizer,
energy model, and experiment harnesses that regenerate every table and
figure of the paper's evaluation.

Quickstart::

    from repro import SystemConfig, NMPSystem, build_workload

    config = SystemConfig.named("16D-8C")
    system = NMPSystem(config, idc="dimm_link")
    workload = build_workload("pagerank", "tiny")
    result = system.run(workload.thread_factories(64, 16))
    print(result.time_us, result.traffic_breakdown)
"""

from repro.config import (
    ChannelConfig,
    HostConfig,
    LinkConfig,
    NMPConfig,
    PAPER_CONFIG_NAMES,
    SystemConfig,
)
from repro.energy import EnergyParams, energy_report
from repro.errors import (
    ConfigError,
    FaultError,
    LinkFailure,
    MappingError,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
    WorkloadError,
)
from repro.experiments.common import (
    build_workload,
    run_cpu,
    run_nmp,
    run_optimized,
    threads_for,
)
from repro.faults import FaultSchedule, LinkDown
from repro.host.cpu import HostCPUSystem
from repro.idc import make_mechanism, mechanism_names
from repro.mapping import distance_aware_placement, profile_traffic
from repro.nmp.results import RunResult
from repro.nmp.system import NMPSystem

__version__ = "1.0.0"

__all__ = [
    "ChannelConfig",
    "HostConfig",
    "LinkConfig",
    "NMPConfig",
    "PAPER_CONFIG_NAMES",
    "SystemConfig",
    "EnergyParams",
    "energy_report",
    "ConfigError",
    "FaultError",
    "LinkFailure",
    "MappingError",
    "ProtocolError",
    "ReproError",
    "RoutingError",
    "SimulationError",
    "WorkloadError",
    "FaultSchedule",
    "LinkDown",
    "build_workload",
    "run_cpu",
    "run_nmp",
    "run_optimized",
    "threads_for",
    "HostCPUSystem",
    "make_mechanism",
    "mechanism_names",
    "distance_aware_placement",
    "profile_traffic",
    "RunResult",
    "NMPSystem",
]
