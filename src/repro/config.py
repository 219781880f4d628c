"""System configuration (the paper's Table V, as dataclasses).

Configurations are named like the paper: ``"4D-2C"`` means 4 NMP DIMMs over
2 memory channels.  :func:`SystemConfig.named` parses those strings and
applies the paper's grouping rule (one DL group for 4D-2C, two groups —
one per CPU side — otherwise).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigError

#: DDR4-2400 channel bandwidth in GB/s (64-bit bus at 2400 MT/s).
DDR4_2400_CHANNEL_GBPS = 19.2


@dataclass(frozen=True)
class HostConfig:
    """The host CPU used both as baseline and as inter-group forwarder."""

    cores: int = 16
    freq_ghz: float = 3.0
    #: issue width used by the baseline-CPU compute model (IPC ceiling).
    ipc: float = 2.0
    #: average time the host needs to decode+forward one DL packet
    #: (stands in for the paper's GEM5-profiled forwarding cost: register
    #: read decode, destination lookup, uncached MMIO write setup).
    forward_latency_ns: float = 250.0
    #: per-channel polling visit period: each channel's polling loop reads
    #: one of its DIMMs' request registers every ``poll_visit_ns`` (the
    #: turnaround time of an isolated register read); channels poll in
    #: parallel through the memory controller queues.
    poll_visit_ns: float = 400.0
    #: bus busy time per polling read (command + 64B data on the bus).
    poll_busy_ns: float = 130.0
    #: bytes read from a DIMM's polling register per poll.
    poll_read_bytes: int = 64
    #: minimum interval between re-polls of the same proxy DIMM (the
    #: polling-proxy loop is deliberately slower since it visits few
    #: targets; keeps proxy-channel occupancy low, Fig. 15-(b)).
    proxy_repoll_ns: float = 600.0
    #: interrupt (ALERT_N) delivery + context-switch latency.
    interrupt_latency_ns: float = 1500.0
    #: host LLC per-access latency used by the CPU baseline memory model.
    llc_latency_ns: float = 12.0
    #: host LLC hit rate assumed for baseline runs of the NMP workloads
    #: (low: the kernels stream working sets far larger than the LLC).
    llc_hit_rate: float = 0.15
    #: fraction of peak channel bandwidth the host sustains on the
    #: irregular 64B-granule access patterns of these kernels (row misses,
    #: rank turnarounds); the NMP runtime coalesces accesses DIMM-side
    #: instead, which is a structural advantage of near-memory execution.
    channel_efficiency: float = 0.5


@dataclass(frozen=True)
class NMPConfig:
    """Per-DIMM near-memory processor (centralized buffer chip, Sec. II-A)."""

    cores_per_dimm: int = 4
    freq_ghz: float = 2.5
    #: outstanding remote/local request window per core (MSHR-like).
    outstanding_window: int = 16
    #: shared L2 size — only used for the hit-rate heuristic below.
    l2_kb: int = 128
    #: fraction of *local* accesses served by the NMP cache hierarchy.
    local_hit_rate: float = 0.25
    #: latency of an NMP cache hit.
    cache_latency_ns: float = 4.0


@dataclass(frozen=True)
class LinkConfig:
    """One DIMM-Link SerDes link (defaults follow GRS, Table II)."""

    bandwidth_gbps: float = 25.0
    #: per-hop router traversal + serialisation latency.
    hop_latency_ns: float = 10.0
    #: SerDes propagation latency across the bridge segment.
    wire_latency_ns: float = 2.0
    #: energy per bit moved on the link (GRS: 1.17 pJ/b).
    energy_pj_per_bit: float = 1.17

    def scaled(self, bandwidth_gbps: float) -> "LinkConfig":
        """A copy with a different link bandwidth (Fig. 16 sweeps)."""
        return dataclasses.replace(self, bandwidth_gbps=bandwidth_gbps)


@dataclass(frozen=True)
class ChannelConfig:
    """A host memory channel (shared bus between its DIMMs and the host)."""

    bandwidth_gbps: float = DDR4_2400_CHANNEL_GBPS
    #: command/addressing latency added per bus transaction.
    bus_latency_ns: float = 7.5


@dataclass
class SystemConfig:
    """Full DIMM-NMP system description.

    ``groups`` lists the DIMM ids in each DL group, in physical
    (bridge-adjacency) order.
    """

    num_dimms: int = 16
    num_channels: int = 8
    ranks_per_dimm: int = 4
    topology: str = "half_ring"
    host: HostConfig = field(default_factory=HostConfig)
    nmp: NMPConfig = field(default_factory=NMPConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    groups: List[List[int]] = field(default_factory=list)
    dram_preset: str = "DDR4_2400_LRDIMM"

    def __post_init__(self) -> None:
        if self.num_dimms <= 0:
            raise ConfigError(f"num_dimms must be positive, got {self.num_dimms}")
        if self.num_channels <= 0:
            raise ConfigError(
                f"num_channels must be positive, got {self.num_channels}"
            )
        if self.num_dimms % self.num_channels != 0:
            raise ConfigError(
                f"{self.num_dimms} DIMMs not divisible across "
                f"{self.num_channels} channels"
            )
        if self.topology not in ("half_ring", "ring", "mesh", "torus"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if not self.groups:
            self.groups = default_groups(self.num_dimms)
        flat = [d for group in self.groups for d in group]
        if sorted(flat) != list(range(self.num_dimms)):
            raise ConfigError(f"groups {self.groups} do not cover all DIMMs")

    @property
    def dimms_per_channel(self) -> int:
        """DIMMs sharing each memory channel (DPC)."""
        return self.num_dimms // self.num_channels

    @property
    def name(self) -> str:
        """Paper-style short name, e.g. ``16D-8C``."""
        return f"{self.num_dimms}D-{self.num_channels}C"

    def channel_of(self, dimm_id: int) -> int:
        """The memory channel a DIMM sits on (channel-major layout)."""
        self._check_dimm(dimm_id)
        return dimm_id // self.dimms_per_channel

    def dimms_on_channel(self, channel_id: int) -> List[int]:
        """All DIMM ids on a channel."""
        if not 0 <= channel_id < self.num_channels:
            raise ConfigError(f"channel {channel_id} out of range")
        dpc = self.dimms_per_channel
        return list(range(channel_id * dpc, (channel_id + 1) * dpc))

    def group_of(self, dimm_id: int) -> int:
        """Index of the DL group containing the DIMM."""
        self._check_dimm(dimm_id)
        for index, group in enumerate(self.groups):
            if dimm_id in group:
                return index
        raise ConfigError(f"DIMM {dimm_id} not in any group")

    def position_in_group(self, dimm_id: int) -> Tuple[int, int]:
        """(group index, position along the bridge) for a DIMM."""
        group_index = self.group_of(dimm_id)
        return group_index, self.groups[group_index].index(dimm_id)

    def master_dimm(self, group_index: int) -> int:
        """The paper's heuristic master/proxy: the middle DIMM of a group."""
        group = self.groups[group_index]
        return group[len(group) // 2]

    def _check_dimm(self, dimm_id: int) -> None:
        if not 0 <= dimm_id < self.num_dimms:
            raise ConfigError(f"DIMM {dimm_id} out of range")

    @classmethod
    def named(cls, name: str, **overrides: object) -> "SystemConfig":
        """Build a config from a paper-style ``<N>D-<C>C`` name."""
        match = re.fullmatch(r"(\d+)D-(\d+)C", name.strip(), flags=re.IGNORECASE)
        if not match:
            raise ConfigError(f"config name {name!r} is not of the form '<N>D-<C>C'")
        num_dimms, num_channels = int(match.group(1)), int(match.group(2))
        return cls(num_dimms=num_dimms, num_channels=num_channels, **overrides)  # type: ignore[arg-type]


def default_groups(num_dimms: int) -> List[List[int]]:
    """The paper's grouping: one group for <=4 DIMMs, else two (per side)."""
    if num_dimms <= 4:
        return [list(range(num_dimms))]
    half = num_dimms // 2
    return [list(range(half)), list(range(half, num_dimms))]


#: The four paper configurations used in Figs. 10/16.
PAPER_CONFIG_NAMES = ("4D-2C", "8D-4C", "12D-6C", "16D-8C")
