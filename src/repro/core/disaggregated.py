"""DIMM-Link on disaggregated memory (Sec. VI "future work").

The paper argues DIMM-Link also fits disaggregated memory: DIMMs are
organised as *memory blades* attached over PCIe/CXL/Ethernet, DIMM-Link
augments the *intra-blade* IDC capability, and the existing fabric
protocol (CXL.mem or RDMA) carries *inter-blade* transfers.

This module implements that organisation: each blade is a full
:class:`~repro.nmp.system.NMPSystem` (DL bridge, local MCs, DRAM)
embedded in one shared simulator, blades are joined by a fabric with a
technology-dependent bandwidth/latency point, and
:meth:`DisaggregatedMemory.transfer` routes between any two DIMMs in the
cluster — DL hops inside a blade, the fabric between blades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError, RoutingError
from repro.protocol.packet import wire_bytes_for_transfer
from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns


@dataclass(frozen=True)
class FabricTech:
    """An inter-blade interconnect technology."""

    name: str
    bandwidth_gbps: float
    latency_ns: float
    #: per-transfer software/protocol overhead at each endpoint.
    endpoint_overhead_ns: float


#: CXL 3.0 x8-ish link with hardware coherence (lowest latency).
CXL = FabricTech("cxl", bandwidth_gbps=64.0, latency_ns=300.0, endpoint_overhead_ns=80.0)
#: one-sided RDMA over 200G fabric.
RDMA = FabricTech("rdma", bandwidth_gbps=25.0, latency_ns=1500.0, endpoint_overhead_ns=600.0)
#: commodity Ethernet with a software stack.
ETHERNET = FabricTech(
    "ethernet", bandwidth_gbps=12.5, latency_ns=8000.0, endpoint_overhead_ns=4000.0
)

FABRICS: Dict[str, FabricTech] = {f.name: f for f in (CXL, RDMA, ETHERNET)}


def fabric(name: str) -> FabricTech:
    """Look up an inter-blade fabric technology."""
    try:
        return FABRICS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fabric {name!r}; available: {sorted(FABRICS)}"
        ) from None


class DisaggregatedMemory:
    """A cluster of DIMM-NMP memory blades joined by a fabric."""

    def __init__(
        self,
        num_blades: int = 2,
        blade_config: str = "8D-4C",
        fabric_name: str = "cxl",
    ) -> None:
        if num_blades <= 0:
            raise ConfigError("need at least one blade")
        from repro.nmp.system import NMPSystem  # local import: avoids a cycle

        self.sim = Simulator()
        self.stats = StatRegistry()
        self.fabric_tech = fabric(fabric_name)
        self.blades: List[NMPSystem] = [
            NMPSystem(
                SystemConfig.named(blade_config),
                idc="dimm_link",
                sim=self.sim,
                stats=self.stats.scope(f"blade{index}"),
            )
            for index in range(num_blades)
        ]
        self.dimms_per_blade = self.blades[0].config.num_dimms
        # full-duplex fabric port per blade
        self._ports: List[Tuple[BandwidthResource, BandwidthResource]] = [
            (
                BandwidthResource(
                    self.sim,
                    self.fabric_tech.bandwidth_gbps,
                    latency_ps=ns(self.fabric_tech.latency_ns),
                    name=f"blade{index}.tx",
                ),
                BandwidthResource(
                    self.sim,
                    self.fabric_tech.bandwidth_gbps,
                    latency_ps=ns(self.fabric_tech.latency_ns),
                    name=f"blade{index}.rx",
                ),
            )
            for index in range(num_blades)
        ]

    def locate(self, global_dimm: int) -> Tuple[int, int]:
        """Global DIMM id -> (blade, blade-local DIMM)."""
        blade, local = divmod(global_dimm, self.dimms_per_blade)
        if blade >= len(self.blades):
            raise RoutingError(f"global DIMM {global_dimm} beyond the cluster")
        return blade, local

    def transfer(self, src_dimm: int, dst_dimm: int, nbytes: int) -> SimEvent:
        """Move ``nbytes`` between any two DIMMs in the cluster.

        Same blade: a DIMM-Link remote write.  Different blades: DL to the
        source blade's port DIMM, the fabric, then DL to the destination.
        """
        src_blade, src_local = self.locate(src_dimm)
        dst_blade, dst_local = self.locate(dst_dimm)
        if src_blade == dst_blade:
            self.stats.add("disagg.intra_blade_bytes", nbytes)
            return self.blades[src_blade].idc.remote_write(
                src_local, dst_local, 0, nbytes
            )
        done = self.sim.event(name="disagg.transfer")
        crossing = _Crossing(src_blade, src_local, dst_blade, dst_local, nbytes, done)
        self.sim.schedule(0, self._inter_blade, crossing)
        return done

    # An inter-blade transfer is a callback chain over a :class:`_Crossing`:
    # DL to the source blade's fabric-port DIMM (its group master), the
    # endpoint overhead, the source port's tx and the destination port's
    # rx, the overhead again, DL from the destination port DIMM, and the
    # DRAM write.  A DL leg that fails raises out of the event loop.

    def _inter_blade(self, crossing: "_Crossing") -> None:
        crossing.wire = wire_bytes_for_transfer(crossing.nbytes)
        src = self.blades[crossing.src_blade]
        port_out = src.config.master_dimm(src.config.group_of(crossing.src_local))
        if port_out != crossing.src_local:
            crossing.wait = src.idc.bridge.stream(
                crossing.src_local, port_out, crossing.wire
            )
            crossing.wait.then(self._left_blade, crossing)
        else:
            self._left_blade(crossing)

    def _left_blade(self, crossing: "_Crossing") -> None:
        if crossing.wait is not None and crossing.wait.failed:
            raise crossing.wait.value
        overhead = ns(self.fabric_tech.endpoint_overhead_ns)
        self.sim.schedule(overhead, self._transmit, crossing)

    def _transmit(self, crossing: "_Crossing") -> None:
        tx = self._ports[crossing.src_blade][0]
        tx.transfer(crossing.wire).then(self._receive, crossing)

    def _receive(self, crossing: "_Crossing") -> None:
        rx = self._ports[crossing.dst_blade][1]
        rx.transfer(crossing.wire).then(self._received, crossing)

    def _received(self, crossing: "_Crossing") -> None:
        overhead = ns(self.fabric_tech.endpoint_overhead_ns)
        self.sim.schedule(overhead, self._enter_blade, crossing)

    def _enter_blade(self, crossing: "_Crossing") -> None:
        dst = self.blades[crossing.dst_blade]
        port_in = dst.config.master_dimm(dst.config.group_of(crossing.dst_local))
        if port_in != crossing.dst_local:
            crossing.wait = dst.idc.bridge.stream(
                port_in, crossing.dst_local, crossing.wire
            )
            crossing.wait.then(self._store, crossing)
        else:
            crossing.wait = None
            self._store(crossing)

    def _store(self, crossing: "_Crossing") -> None:
        if crossing.wait is not None and crossing.wait.failed:
            raise crossing.wait.value
        dst = self.blades[crossing.dst_blade]
        mc = dst.dimms[crossing.dst_local].mc
        mc.local_access(0, crossing.nbytes, True).then(self._stored, crossing)

    def _stored(self, crossing: "_Crossing") -> None:
        self.stats.add("disagg.inter_blade_bytes", crossing.nbytes)
        crossing.done.succeed(crossing.nbytes)

    def measure_bandwidth(self, src_dimm: int, dst_dimm: int, nbytes: int) -> float:
        """Achieved GB/s for one transfer (drains the simulator)."""
        start = self.sim.now
        done = []
        self.transfer(src_dimm, dst_dimm, nbytes).add_callback(
            lambda ev: done.append(self.sim.now)
        )
        self.sim.run()
        if not done:
            raise RoutingError("transfer did not complete")
        elapsed = done[0] - start
        return nbytes * 1000 / elapsed


class _Crossing:
    """One inter-blade transfer in flight; ``wait`` is its current DL leg."""

    __slots__ = (
        "src_blade", "src_local", "dst_blade", "dst_local", "nbytes", "done",
        "wire", "wait",
    )

    def __init__(self, src_blade, src_local, dst_blade, dst_local, nbytes, done):
        self.src_blade = src_blade
        self.src_local = src_local
        self.dst_blade = dst_blade
        self.dst_local = dst_local
        self.nbytes = nbytes
        self.done = done
        self.wait = None
