"""CPU-forwarding IDC (MCN [3] / UPMEM [32], Table I column 2).

Every inter-DIMM transfer goes through the host: the requesting DIMM
registers a request in a memory-mapped register, the host's polling loop
notices it, reads the packet over the source channel, and writes it over
the destination channel.  Reads additionally pay the return trip for the
data.  ``MCN-BC`` (Fig. 12's baseline) emulates broadcast with one host
read plus a per-destination write.
"""

from __future__ import annotations

from repro.idc.base import IDCMechanism
from repro.protocol.packet import FLIT_BYTES, wire_bytes_for_transfer
from repro.sim.engine import Join, SimEvent
from repro.sim.time import ns

#: wire size of a request/notification packet.
CONTROL_WIRE_BYTES = FLIT_BYTES


class CPUForwardingIDC(IDCMechanism):
    """MCN-style host-forwarded inter-DIMM communication."""

    name = "mcn"

    def attach(self, system) -> None:
        super().attach(system)
        self.sim = system.sim
        self.stats = system.stats

    # Every operation is a callback chain, one callback per simulator slot,
    # over a ``(src, dst, offset, nbytes, done)`` tuple.

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "mcn.read")
        self.sim.schedule(0, self._read, (src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _read(self, op) -> None:
        self.system.forwarder.forward(op[0], op[1], CONTROL_WIRE_BYTES).then(
            self._read_access, op
        )

    def _read_access(self, op) -> None:
        mc = self.system.dimms[op[1]].mc
        mc.local_access(op[2], op[3], False).then(self._read_respond, op)

    def _read_respond(self, op) -> None:
        wire = wire_bytes_for_transfer(op[3])
        self.system.forwarder.forward(op[1], op[0], wire, notice_dimm=-1).then(
            self._done, op
        )

    def _done(self, op) -> None:
        self.stats.add("idc.forwarded_bytes", op[3])
        op[4].succeed(op[3])

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "mcn.write")
        self.sim.schedule(0, self._write, (src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _write(self, op) -> None:
        wire = wire_bytes_for_transfer(op[3])
        self.system.forwarder.forward(op[0], op[1], wire).then(self._write_store, op)

    def _write_store(self, op) -> None:
        mc = self.system.dimms[op[1]].mc
        mc.local_access(op[2], op[3], True).then(self._done, op)

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        """MCN-BC: one host read, then one write per destination DIMM."""
        self._require_system()
        done = SimEvent(self.sim, "mcn.bc")
        self.sim.schedule(0, self._broadcast, (src_dimm, -1, offset, nbytes, done))
        return done

    def _broadcast(self, op) -> None:
        self.system.polling.notice(op[0]).then(self._broadcast_read, op)

    def _broadcast_read(self, op) -> None:
        system = self.system
        src_channel = system.channels[system.config.channel_of(op[0])]
        wire = wire_bytes_for_transfer(op[3])
        src_channel.transfer(wire, kind="fwd").then(self._broadcast_copy, op)

    def _broadcast_copy(self, op) -> None:
        forward_ps = ns(self.system.config.host.forward_latency_ns)
        self.sim.schedule(forward_ps, self._broadcast_deliver, op)

    def _broadcast_deliver(self, op) -> None:
        config = self.system.config
        destinations = [dst for dst in range(config.num_dimms) if dst != op[0]]
        join = Join(self.sim, len(destinations) + 1, self._broadcast_done, op)
        for dst in destinations:
            self.sim.schedule(0, self._deliver, (op, dst, join))
        join.ok()

    # every per-DIMM copy consumes the host forwarding engine

    def _deliver(self, delivery) -> None:
        wire = wire_bytes_for_transfer(delivery[0][3])
        self.system.forwarder.engine.transfer(wire).then(
            self._deliver_write, delivery
        )

    def _deliver_write(self, delivery) -> None:
        config = self.system.config
        wire = wire_bytes_for_transfer(delivery[0][3])
        channel = self.system.channels[config.channel_of(delivery[1])]
        channel.transfer(wire, kind="fwd").then(self._deliver_store, delivery)

    def _deliver_store(self, delivery) -> None:
        op, dst, _join = delivery
        mc = self.system.dimms[dst].mc
        mc.local_access(op[2], op[3], True).then(self._delivered, delivery)

    def _delivered(self, delivery) -> None:
        self.stats.add("idc.forwarded_bytes", delivery[0][3])
        delivery[2].ok()

    def _broadcast_done(self, op) -> None:
        self.stats.add("idc.broadcast_ops")
        op[4].succeed(op[3])

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "mcn.msg")
        self.sim.schedule(0, self._message, (src_dimm, dst_dimm, expected, nbytes, done))
        return done

    def _message(self, op) -> None:
        self.system.forwarder.forward(
            op[0], op[1], CONTROL_WIRE_BYTES, notice_dimm=-1 if op[2] else None
        ).then(self._message_done, op)

    def _message_done(self, op) -> None:
        self.stats.add("idc.messages")
        op[4].succeed(op[3])
