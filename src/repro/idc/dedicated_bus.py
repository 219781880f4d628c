"""Dedicated-bus IDC (AIM [11], Table I column 4).

All DIMMs share one extra multi-drop bus; NMP cores transfer data on it
without host involvement.  The bus's bandwidth matches a memory channel
(Sec. V-B), so per-DIMM bandwidth shrinks as β / #DIMM under contention —
the unscalability the paper highlights.  Broadcast is a single bus
transfer that every DIMM snoops (AIM-BC in Fig. 12).
"""

from __future__ import annotations

from repro.idc.base import IDCMechanism
from repro.protocol.packet import FLIT_BYTES, wire_bytes_for_transfer
from repro.sim.engine import Join, SimEvent
from repro.sim.resource import BandwidthResource
from repro.sim.time import ns

#: wire size of a snooped command packet.
CONTROL_WIRE_BYTES = FLIT_BYTES


class DedicatedBusIDC(IDCMechanism):
    """AIM-style dedicated inter-DIMM bus."""

    name = "aim"

    def attach(self, system) -> None:
        super().attach(system)
        self.sim = system.sim
        self.stats = system.stats
        channel = system.config.channel
        self.bus = BandwidthResource(
            system.sim,
            bytes_per_ns=channel.bandwidth_gbps,
            latency_ps=ns(channel.bus_latency_ns),
            name="aim.bus",
        )

    def _bus_transfer(self, wire_bytes: int) -> SimEvent:
        self.stats.add("idc.dedicated_bus_bytes", wire_bytes)
        return self.bus.transfer(wire_bytes)

    # Every operation is a callback chain, one callback per simulator slot,
    # over a ``(src, dst, offset, nbytes, done)`` tuple.

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "aim.read")
        self.sim.schedule(0, self._read, (src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _read(self, op) -> None:
        # the read command is broadcast; the owner snoops and replies
        self._bus_transfer(CONTROL_WIRE_BYTES).then(self._read_access, op)

    def _read_access(self, op) -> None:
        mc = self.system.dimms[op[1]].mc
        mc.local_access(op[2], op[3], False).then(self._read_respond, op)

    def _read_respond(self, op) -> None:
        self._bus_transfer(wire_bytes_for_transfer(op[3])).then(self._done, op)

    def _done(self, op) -> None:
        self.stats.add("idc.bus_payload_bytes", op[3])
        op[4].succeed(op[3])

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "aim.write")
        self.sim.schedule(0, self._write, (src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _write(self, op) -> None:
        self._bus_transfer(wire_bytes_for_transfer(op[3])).then(self._write_store, op)

    def _write_store(self, op) -> None:
        mc = self.system.dimms[op[1]].mc
        mc.local_access(op[2], op[3], True).then(self._done, op)

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        """AIM-BC: one bus transfer reaches every snooping DIMM."""
        self._require_system()
        done = SimEvent(self.sim, "aim.bc")
        self.sim.schedule(0, self._broadcast, (src_dimm, -1, offset, nbytes, done))
        return done

    def _broadcast(self, op) -> None:
        self._bus_transfer(wire_bytes_for_transfer(op[3])).then(
            self._broadcast_store, op
        )

    def _broadcast_store(self, op) -> None:
        num_dimms = self.system.config.num_dimms
        dimms = self.system.dimms
        writes = [
            dimms[dst].mc.local_access(op[2], op[3], True)
            for dst in range(num_dimms)
            if dst != op[0]
        ]
        self.stats.add("idc.bus_payload_bytes", op[3] * (num_dimms - 1))
        join = Join(self.sim, len(writes) + 1, self._broadcast_done, op)
        for write in writes:
            write.add_callback(join.ok)
        join.ok()

    def _broadcast_done(self, op) -> None:
        self.stats.add("idc.broadcast_ops")
        op[4].succeed(op[3])

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        done = SimEvent(self.sim, "aim.msg")
        self.sim.schedule(0, self._message, (src_dimm, dst_dimm, 0, nbytes, done))
        return done

    def _message(self, op) -> None:
        self._bus_transfer(CONTROL_WIRE_BYTES).then(self._message_done, op)

    def _message_done(self, op) -> None:
        self.stats.add("idc.messages")
        op[4].succeed(op[3])
