"""DL-Bridge: the physical inter-DIMM network of each DL group.

A :class:`DLBridge` instantiates one :class:`~repro.interconnect.network.
PacketNetwork` per DL group, with the group's DIMMs mapped to group-local
positions.  The bridge is the Fig. 2 PCB with its bidirectional SerDes
links; topology defaults to the shipping half-ring chain and can be any of
Fig. 17's alternatives.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.errors import RoutingError
from repro.interconnect.network import PacketNetwork
from repro.interconnect.topology import Topology
from repro.sim.engine import SimEvent, Simulator
from repro.sim.stats import StatRegistry
from repro.sim.time import ns


class DLBridge:
    """All DL-group networks of a system plus the DIMM<->position maps."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatRegistry,
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats
        self.networks: List[PacketNetwork] = []
        self._position: Dict[int, Tuple[int, int]] = {}
        link = config.link
        for group_index, group in enumerate(config.groups):
            topology = Topology(config.topology, len(group))
            network = PacketNetwork(
                sim,
                topology,
                bandwidth_gbps=link.bandwidth_gbps,
                hop_latency_ps=ns(link.hop_latency_ns),
                wire_latency_ps=ns(link.wire_latency_ns),
                stats=stats,
                name=f"grp{group_index}",
            )
            self.networks.append(network)
            for position, dimm_id in enumerate(group):
                self._position[dimm_id] = (group_index, position)

    def locate(self, dimm_id: int) -> Tuple[int, int]:
        """(group index, group-local position) of a DIMM."""
        try:
            return self._position[dimm_id]
        except KeyError:
            raise RoutingError(f"DIMM {dimm_id} is not on any DL bridge") from None

    def same_group(self, a: int, b: int) -> bool:
        """Whether two DIMMs share a DL group (can route without the host)."""
        return self.locate(a)[0] == self.locate(b)[0]

    def network_of(self, dimm_id: int) -> PacketNetwork:
        """The group network serving a DIMM."""
        return self.networks[self.locate(dimm_id)[0]]

    def hops(self, a: int, b: int) -> int:
        """Intra-group hop count (raises if not in the same group)."""
        group_a, pos_a = self.locate(a)
        group_b, pos_b = self.locate(b)
        if group_a != group_b:
            raise RoutingError(f"DIMMs {a} and {b} are in different groups")
        return self.networks[group_a].hops(pos_a, pos_b)

    def send(self, src_dimm: int, dst_dimm: int, wire_bytes: int) -> SimEvent:
        """Route a packet between two same-group DIMMs."""
        group, src_pos = self.locate(src_dimm)
        _group, dst_pos = self.locate(dst_dimm)
        return self.networks[group].send(src_pos, dst_pos, wire_bytes)

    def stream(self, src_dimm: int, dst_dimm: int, wire_bytes: int) -> SimEvent:
        """Pipelined bulk transfer between two same-group DIMMs."""
        group, src_pos = self.locate(src_dimm)
        _group, dst_pos = self.locate(dst_dimm)
        return self.networks[group].stream(src_pos, dst_pos, wire_bytes)

    def broadcast(self, root_dimm: int, wire_bytes: int) -> SimEvent:
        """Flood a packet through the root DIMM's group."""
        group, root_pos = self.locate(root_dimm)
        return self.networks[group].broadcast(root_pos, wire_bytes)

    def total_link_busy_ps(self) -> int:
        """Aggregate busy time over every link of every group."""
        return sum(network.total_busy_ps() for network in self.networks)

    # -- fault application (driven by repro.faults.FaultInjector) --------------------

    def fail_link_between(self, dimm_a: int, dimm_b: int) -> bool:
        """Physically kill the bridge link between two adjacent DIMMs."""
        group_a, pos_a = self.locate(dimm_a)
        group_b, pos_b = self.locate(dimm_b)
        if group_a != group_b:
            raise RoutingError(
                f"DIMMs {dimm_a} and {dimm_b} share no bridge link "
                f"(different groups)"
            )
        return self.networks[group_a].fail_link(pos_a, pos_b)

    def finalize_stats(self) -> float:
        """Flush per-link availability stats; return the worst availability."""
        return min(
            (network.finalize_stats() for network in self.networks), default=1.0
        )
