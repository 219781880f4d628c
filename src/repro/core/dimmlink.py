"""The DIMM-Link IDC mechanism (the paper's contribution, Sec. III).

Executes hybrid routing (Sec. III-C, Fig. 5) on the event simulator:

* intra-group transfers move as DL packets over the group's bridge
  network (packetize -> route -> decode -> local DRAM at the far end),
* inter-group transfers are registered with the polling proxy (when the
  polling strategy uses one), noticed by the host, and forwarded through
  the memory channels by the FWD controller,
* broadcasts flood the source group and are host-forwarded once per
  remote group to that group's gateway (master) DIMM, which floods it on.

Traffic is classified into ``idc.intra_group_bytes`` vs.
``idc.forwarded_bytes`` for Fig. 11's breakdown.

Degraded-mode failover
----------------------

The hybrid-routing design makes the host path a *functional superset* of
the bridge: any intra-group transfer can also travel through the memory
channels.  The packet network fails a transfer's event with
:class:`~repro.errors.LinkFailure` once its bounded retry/backoff loop
gives up, or when no live route remains; the step after every DL wait
reads that failure and, in the same simulator slot, re-issues the whole
operation through host CPU-forwarding.  The escalations are counted as
``dl.rerouted_to_host`` / ``dl.rerouted_bytes`` so resilience
experiments can see exactly how much traffic fell back.

Every operation is a callback chain over an :class:`_Op` record, one
callback per simulator slot: ``Simulator.schedule`` for a controller
latency, ``SimEvent.then`` for a transfer, DRAM access or host forward,
and a plain call where nothing is waited on (a proxy registration with
no packet to send).  Broadcast branches count down a
:class:`~repro.sim.engine.Join`.
"""

from __future__ import annotations

from repro.core.bridge import DLBridge
from repro.core.controller import DLController
from repro.idc.base import IDCMechanism
from repro.protocol.packet import FLIT_BYTES
from repro.sim.engine import Join, SimEvent

#: wire size of a single-flit control packet (read request, sync message).
CONTROL_WIRE_BYTES = FLIT_BYTES
#: payload sizes at or above this stream through the bridge (pipelined)
#: instead of store-and-forward per hop.
STREAM_THRESHOLD = 2048

_INTRA_BYTES = "idc.intra_group_bytes"
_FORWARDED_BYTES = "idc.forwarded_bytes"


class _Op:
    """One read, write, message or broadcast in flight.

    ``wait`` is the event the next step resumes after (its ``failed``
    flag is the failover signal), ``bridged`` whether the data is still
    on the DL path, and ``after`` the step a proxy registration returns
    to.
    """

    __slots__ = (
        "src", "dst", "offset", "nbytes", "done", "wire", "wait", "after",
        "bridged", "expected", "join", "gateways",
    )

    def __init__(self, src: int, dst: int, offset: int, nbytes: int, done: SimEvent):
        self.src = src
        self.dst = dst
        self.offset = offset
        self.nbytes = nbytes
        self.done = done


class _Flood:
    """One group flood of a broadcast, rooted at ``root``."""

    __slots__ = ("op", "root", "peers", "wait")

    def __init__(self, op: _Op, root: int) -> None:
        self.op = op
        self.root = root


class DIMMLinkIDC(IDCMechanism):
    """DIMM-Link inter-DIMM communication."""

    name = "dimm_link"

    def attach(self, system) -> None:
        super().attach(system)
        self.bridge = DLBridge(system.sim, system.config, system.stats)
        self.controllers = [
            DLController(d, system.stats.scope(f"dimm{d}"))
            for d in range(system.config.num_dimms)
        ]
        self.sim = system.sim
        self.stats = system.stats

    # -- helpers -------------------------------------------------------------------

    def _dl_transfer(self, src: int, dst: int, wire_bytes: int) -> SimEvent:
        if wire_bytes >= STREAM_THRESHOLD:
            return self.bridge.stream(src, dst, wire_bytes)
        return self.bridge.send(src, dst, wire_bytes)

    def _start(self, op: _Op, step) -> None:
        """Begin an operation: its source controller packetizes, then
        ``step(op)`` runs."""
        op.after = step
        self.sim.schedule(0, self._packetize, op)

    def _packetize(self, op: _Op) -> None:
        self.sim.schedule(self.controllers[op.src].packetize_ps, op.after, op)

    def _register_at_proxy(self, op: _Op, after) -> None:
        """Send the forwarding request to the group's polling proxy, then
        run ``after(op)``.

        With nothing to send (no proxy, or the source is its own proxy)
        ``after`` runs at once, in the same slot.  If the bridge can no
        longer reach the proxy, the registration is skipped: the host's
        polling loop still visits the DIMM's own request register
        directly, just on the slower non-proxy cadence — which the
        polling model already charges through ``notice``.
        """
        polling = self.system.polling
        if not getattr(polling, "uses_proxy", False):
            after(op)
            return
        proxy = polling.proxy_of(op.src)
        if proxy != op.src:
            op.after = after
            op.wait = self.bridge.send(op.src, proxy, CONTROL_WIRE_BYTES)
            op.wait.then(self._registered, op)
            return
        self.stats.add("idc.proxy_registrations")
        after(op)

    def _registered(self, op: _Op) -> None:
        if op.wait.failed:
            self.stats.add("dl.proxy_unreachable")
        else:
            self.stats.add("idc.proxy_registrations")
        op.after(op)

    def _count_reroute(self, nbytes: int, operations: int = 1) -> None:
        """Account one degraded-mode escalation to host forwarding."""
        self.stats.add("dl.rerouted_to_host", operations)
        self.stats.add("dl.rerouted_bytes", nbytes)
        if self.sim.trace.enabled:
            self.sim.trace.instant(
                "idc", "reroute_to_host", "idc.dimm_link", bytes=nbytes
            )

    # -- IDCMechanism ---------------------------------------------------------------

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "dl.read")
        self._start(_Op(src_dimm, dst_dimm, offset, nbytes, done), self._read_packetized)
        self.trace_op(done, "remote_read", src=src_dimm, dst=dst_dimm, bytes=nbytes)
        return done

    # A read: the request crosses to the owner (a DL control packet inside
    # the group, a host forward between groups), the owner decodes it and
    # reads its DRAM, and the response crosses back.  A DL response pays
    # the owner's packetize latency first; a forwarded one is expected by
    # the host, so it skips the polling notice.

    def _read_packetized(self, op: _Op) -> None:
        self.controllers[op.src].packetize(0)
        if self.bridge.same_group(op.src, op.dst):
            op.bridged = True
            op.wait = self.bridge.send(op.src, op.dst, CONTROL_WIRE_BYTES)
            op.wait.then(self._read_requested, op)
        else:
            self._forwarded_read(op)

    def _forwarded_read(self, op: _Op) -> None:
        """Host-forwarded read (inter-group path and failover path)."""
        op.bridged = False
        self._register_at_proxy(op, self._read_forward_request)

    def _read_forward_request(self, op: _Op) -> None:
        op.wait = self.system.forwarder.forward(op.src, op.dst, CONTROL_WIRE_BYTES)
        op.wait.then(self._read_requested, op)

    def _read_requested(self, op: _Op) -> None:
        if op.wait.failed:
            self._fail_over_read(op)
            return
        self.sim.schedule(self.controllers[op.dst].decode_ps, self._read_access, op)

    def _read_access(self, op: _Op) -> None:
        mc = self.system.dimms[op.dst].mc
        mc.local_access(op.offset, op.nbytes, False).then(self._read_accessed, op)

    def _read_accessed(self, op: _Op) -> None:
        if op.bridged:
            self.sim.schedule(
                self.controllers[op.dst].packetize_ps, self._read_respond, op
            )
        else:
            self._read_respond(op)

    def _read_respond(self, op: _Op) -> None:
        wire = self.controllers[op.dst].packetize(op.nbytes)
        if op.bridged:
            op.wait = self._dl_transfer(op.dst, op.src, wire)
        else:
            # the host expects the response after forwarding the request
            op.wait = self.system.forwarder.forward(
                op.dst, op.src, wire, notice_dimm=-1
            )
        op.wait.then(self._read_responded, op)

    def _read_responded(self, op: _Op) -> None:
        if op.wait.failed:
            self._fail_over_read(op)
            return
        self.sim.schedule(self.controllers[op.src].decode_ps, self._read_done, op)

    def _read_done(self, op: _Op) -> None:
        self.controllers[op.src].receive(op.nbytes)
        self.stats.add(_INTRA_BYTES if op.bridged else _FORWARDED_BYTES, op.nbytes)
        op.done.succeed(op.nbytes)

    def _fail_over_read(self, op: _Op) -> None:
        # hybrid-routing failover: re-issue the whole read through the
        # host (the request may have died at any stage; the forwarded
        # retry is self-contained either way)
        self._count_reroute(op.nbytes)
        self._forwarded_read(op)

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "dl.write")
        self._start(_Op(src_dimm, dst_dimm, offset, nbytes, done), self._write_packetized)
        self.trace_op(done, "remote_write", src=src_dimm, dst=dst_dimm, bytes=nbytes)
        return done

    # A write: the data crosses (over the bridge inside the group, through
    # the host between groups), then the owner decodes it and writes DRAM.

    def _write_packetized(self, op: _Op) -> None:
        op.wire = self.controllers[op.src].packetize(op.nbytes)
        if self.bridge.same_group(op.src, op.dst):
            op.bridged = True
            op.wait = self._dl_transfer(op.src, op.dst, op.wire)
            op.wait.then(self._write_sent, op)
        else:
            self._forwarded_write(op)

    def _forwarded_write(self, op: _Op) -> None:
        """Host-forwarded write (inter-group path and failover path)."""
        op.bridged = False
        self._register_at_proxy(op, self._write_forward)

    def _write_forward(self, op: _Op) -> None:
        op.wait = self.system.forwarder.forward(op.src, op.dst, op.wire)
        op.wait.then(self._write_sent, op)

    def _write_sent(self, op: _Op) -> None:
        if op.wait.failed:
            self._count_reroute(op.nbytes)
            self._forwarded_write(op)
            return
        self.sim.schedule(self.controllers[op.dst].decode_ps, self._write_decoded, op)

    def _write_decoded(self, op: _Op) -> None:
        self.controllers[op.dst].receive(op.nbytes)
        mc = self.system.dimms[op.dst].mc
        mc.local_access(op.offset, op.nbytes, True).then(self._write_done, op)

    def _write_done(self, op: _Op) -> None:
        self.stats.add(_INTRA_BYTES if op.bridged else _FORWARDED_BYTES, op.nbytes)
        op.done.succeed(op.nbytes)

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "dl.broadcast")
        self._start(_Op(src_dimm, -1, offset, nbytes, done), self._broadcast_packetized)
        self.trace_op(done, "broadcast", src=src_dimm, bytes=nbytes)
        return done

    # A broadcast floods the source's own group and, once the request is
    # registered at the proxy, host-forwards one copy to the gateway
    # (master) DIMM of every other group, which floods its group in turn.
    # The floods and the forwarded copies are the branches of ``op.join``,
    # which also counts one hold released when the last branch has been
    # started.

    def _broadcast_packetized(self, op: _Op) -> None:
        config = self.system.config
        op.wire = self.controllers[op.src].packetize(op.nbytes)
        op.join = Join(self.sim, 2, self._broadcast_done, (op.done, op.nbytes))
        self.sim.schedule(0, self._flood, _Flood(op, op.src))
        op.gateways = [
            config.master_dimm(g)
            for g in range(len(config.groups))
            if g != config.group_of(op.src)
        ]
        if op.gateways:
            self._register_at_proxy(op, self._to_gateways)
        else:
            self._to_gateways(op)

    def _to_gateways(self, op: _Op) -> None:
        op.join.pending += len(op.gateways)
        for index, gateway in enumerate(op.gateways):
            copy = (op, op.src, gateway, index == 0, self._flood, _Flood(op, gateway))
            self.sim.schedule(0, self._host_copy, copy)
        op.join.ok()

    # A host-forwarded copy of the broadcast payload is a chain over
    # ``(op, src, dst, first, step, arg)``: the forward (only the first
    # copy of a burst waits for the host's polling notice), the receiver's
    # decode, its DRAM write, then ``step(arg)`` — a gateway's group
    # flood, or a fallback peer's branch end.

    def _host_copy(self, copy) -> None:
        op, src, dst, first, _step, _arg = copy
        self.system.forwarder.forward(
            src, dst, op.wire, notice_dimm=None if first else -1
        ).then(self._copy_forwarded, copy)

    def _copy_forwarded(self, copy) -> None:
        self.stats.add(_FORWARDED_BYTES, copy[0].nbytes)
        self.sim.schedule(self.controllers[copy[2]].decode_ps, self._copy_decoded, copy)

    def _copy_decoded(self, copy) -> None:
        op, _src, dst, _first, step, arg = copy
        mc = self.system.dimms[dst].mc
        mc.local_access(op.offset, op.nbytes, True).then(step, arg)

    def _flood(self, flood: _Flood) -> None:
        """Flood the root's group; receivers then store the data locally.

        If the flood cannot reach every group member over the bridge (a
        dead link severed the broadcast tree), the whole group delivery
        falls back to per-peer host forwarding.
        """
        group_index, _pos = self.bridge.locate(flood.root)
        flood.peers = [
            d for d in self.system.config.groups[group_index] if d != flood.root
        ]
        flood.wait = self.bridge.broadcast(flood.root, flood.op.wire)
        flood.wait.then(self._flooded, flood)

    def _flooded(self, flood: _Flood) -> None:
        op, peers = flood.op, flood.peers
        # the flood ends when every peer has stored the data
        join = Join(self.sim, len(peers) + 1, op.join.ok)
        if flood.wait.failed:
            self._count_reroute(op.nbytes * len(peers), operations=len(peers))
            for index, peer in enumerate(peers):
                copy = (op, flood.root, peer, index == 0, join.ok, None)
                self.sim.schedule(0, self._host_copy, copy)
        else:
            dimms = self.system.dimms
            writes = [
                dimms[d].mc.local_access(op.offset, op.nbytes, True) for d in peers
            ]
            self.stats.add(_INTRA_BYTES, op.nbytes * len(peers))
            for write in writes:
                write.add_callback(join.ok)
        join.ok()

    def _broadcast_done(self, result) -> None:
        done, nbytes = result
        self.stats.add("idc.broadcast_ops")
        done.succeed(nbytes)

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "dl.msg")
        op = _Op(src_dimm, dst_dimm, 0, nbytes, done)
        op.expected = expected
        self._start(op, self._message_packetized)
        return done

    def _message_packetized(self, op: _Op) -> None:
        if self.bridge.same_group(op.src, op.dst):
            op.wait = self.bridge.send(op.src, op.dst, CONTROL_WIRE_BYTES)
            op.wait.then(self._message_sent, op)
        else:
            self._forwarded_message(op)

    def _forwarded_message(self, op: _Op) -> None:
        if op.expected:
            self._message_forward(op)
        else:
            self._register_at_proxy(op, self._message_forward)

    def _message_forward(self, op: _Op) -> None:
        op.wait = self.system.forwarder.forward(
            op.src,
            op.dst,
            CONTROL_WIRE_BYTES,
            notice_dimm=-1 if op.expected else None,
        )
        op.wait.then(self._message_sent, op)

    def _message_sent(self, op: _Op) -> None:
        if op.wait.failed:
            self._count_reroute(CONTROL_WIRE_BYTES)
            self._forwarded_message(op)
            return
        self.sim.schedule(self.controllers[op.dst].decode_ps, self._message_done, op)

    def _message_done(self, op: _Op) -> None:
        self.stats.add("idc.messages")
        op.done.succeed(op.nbytes)

    def finalize_stats(self) -> None:
        self.stats.set("dl.link_availability_min", self.bridge.finalize_stats())
