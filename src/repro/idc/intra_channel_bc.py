"""Intra-channel broadcast IDC (ABC-DIMM [76], Table I column 3).

ABC-DIMM exploits the multi-drop structure of a memory channel: a single
host-issued broadcast-read delivers data to every DIMM on the source
channel simultaneously, and a broadcast-write per destination channel
reaches all of that channel's DIMMs at once.  Point-to-point transfers and
inter-channel hops still use CPU forwarding, so this mechanism subclasses
:class:`~repro.idc.cpu_forwarding.CPUForwardingIDC` and overrides only
the broadcast path.
"""

from __future__ import annotations

from repro.idc.cpu_forwarding import CPUForwardingIDC
from repro.protocol.packet import wire_bytes_for_transfer
from repro.sim.engine import Join, SimEvent


class IntraChannelBroadcastIDC(CPUForwardingIDC):
    """ABC-DIMM-style channel-wise broadcast over CPU forwarding."""

    name = "abc"

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "abc.bc")
        self.sim.schedule(0, self._broadcast, (src_dimm, -1, offset, nbytes, done))
        return done

    # The host notices the request, issues the customized broadcast-read
    # command, and waits its forwarding latency exactly as MCN-BC does;
    # only the delivery differs.  One broadcast-read reaches the host AND
    # the source channel's other DIMMs simultaneously.

    def _broadcast_deliver(self, op) -> None:
        config = self.system.config
        src_channel_id = config.channel_of(op[0])
        local = [d for d in config.dimms_on_channel(src_channel_id) if d != op[0]]
        remote = [ch for ch in range(config.num_channels) if ch != src_channel_id]
        join = Join(self.sim, len(local) + len(remote) + 1, self._broadcast_done, op)
        for dst in local:
            self.sim.schedule(0, self._store_on_channel, (op, dst, join))
        for channel_id in remote:
            self.sim.schedule(0, self._to_channel, (op, channel_id, join))
        join.ok()

    def _store_on_channel(self, branch) -> None:
        op, dst, _join = branch
        mc = self.system.dimms[dst].mc
        mc.local_access(op[2], op[3], True).then(self._stored_on_channel, branch)

    def _stored_on_channel(self, branch) -> None:
        self.stats.add("idc.channel_bc_bytes", branch[0][3])
        branch[2].ok()

    def _to_channel(self, branch) -> None:
        # the host copies the payload once per destination channel
        wire = wire_bytes_for_transfer(branch[0][3])
        self.system.forwarder.engine.transfer(wire).then(self._channel_write, branch)

    def _channel_write(self, branch) -> None:
        # one broadcast-write serves every DIMM of the channel
        wire = wire_bytes_for_transfer(branch[0][3])
        channel = self.system.channels[branch[1]]
        channel.transfer(wire, kind="fwd").then(self._channel_store, branch)

    def _channel_store(self, branch) -> None:
        op, channel_id, join = branch
        receivers = self.system.config.dimms_on_channel(channel_id)
        dimms = self.system.dimms
        stores = [dimms[d].mc.local_access(op[2], op[3], True) for d in receivers]
        self.stats.add("idc.forwarded_bytes", op[3] * len(receivers))
        stored = Join(self.sim, len(stores) + 1, join.ok)
        for store in stores:
            store.add_callback(stored.ok)
        stored.ok()
