"""Differential tests for inter-DIMM traffic as callback chains.

Below the cores, every per-operation process is now a callback chain over
``SimEvent.then`` and ``Simulator.schedule``: the IDC operations of all
four mechanisms, ``PacketNetwork``'s routes, streams and floods, the
barrier service's arrivals and releases, the two interrupt-driven polling
notices, both cores' page migrations and the disaggregated inter-blade
transfer.  The referees below are the generator processes they replaced,
kept verbatim as subclasses that :func:`_as_reference` swaps into a built
system; they run on :mod:`tests.genproc`.

Twin systems — one with every reference swapped in — run the same seeded
programs on 8D-4C and 12D-4C: local and remote reads and writes of 8 B to
9 KB (so both ``send`` and ``stream`` run), broadcasts, barriers in both
sync modes (unexpected arrival and expected release messages) and
next-touch page migrations, for every mechanism under every polling
strategy it accepts.  Link-failure schedules add one link dying mid-run,
every link dying, floods cut by dead links, and sends and streams that
exhaust their retries.  Every operation's completion time and outcome,
every watchdog report, the stats and their key order, the trace spans and
instants, the final time and the final ``_seq`` must be identical.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
from typing import Dict

import pytest

from repro.config import HostConfig, LinkConfig, SystemConfig
from repro.core.dimmlink import CONTROL_WIRE_BYTES, DIMMLinkIDC
from repro.core.disaggregated import DisaggregatedMemory
from repro.core.sync import (
    LOCAL_SYNC_PS,
    MASTER_PROC_PS,
    SYNC_MSG_BYTES,
    SyncManager,
    _Generation,
)
from repro.dram.address import page_home, page_id, page_offset
from repro.errors import LinkFailure, RoutingError, SimulationError
from repro.faults import FaultSchedule, LinkDown
from repro.host import cpu as host_cpu
from repro.host.cpu import HostCore, HostCPUSystem
from repro.host.polling import InterruptPolling, ProxyInterruptPolling
from repro.idc.cpu_forwarding import CPUForwardingIDC
from repro.idc.dedicated_bus import DedicatedBusIDC
from repro.idc.intra_channel_bc import IntraChannelBroadcastIDC
from repro.interconnect.network import MAX_RETRIES, PacketNetwork
from repro.mapping.pagetable import NextTouchPolicy, PageTable
from repro.nmp import system as nmp_system
from repro.nmp.core import NMPCore
from repro.nmp.system import NMPSystem
from repro.protocol.packet import wire_bytes_for_transfer
from repro.sim.engine import SimEvent, Simulator
from repro.sim.time import ns
from repro.trace import TraceRecorder
from repro.workloads.ops import Barrier, Broadcast, Compute, Flush, Read, Write
from tests.genproc import AllOf, Process

# -- referees: the generator processes ----------------------------------------------


class RefPacketNetwork(PacketNetwork):
    """``PacketNetwork`` with its generator processes (interconnect/network.py)."""

    def send(self, src: int, dst: int, wire_bytes: int) -> SimEvent:
        """Route one packet ``src -> dst``; event fires on delivery.

        On an unrecoverable failure (retry exhaustion or no live route)
        the event *fails* with :class:`LinkFailure` — callers waiting on
        it catch the exception at their ``yield``.
        """
        if src == dst:
            event = self.sim.event(name=self._n_send_self)
            self.sim.schedule(0, event.succeed, wire_bytes)
            return event
        done = self.sim.event(name=self._n_send)
        Process(
            self.sim, self._route_proc(src, dst, wire_bytes, done), name=self._n_route
        )
        return done

    def _hop_with_retry(self, a: int, b: int, wire_bytes: int):
        """Deliver one hop ``a -> b`` under the bounded retry/backoff loop.

        A physically dead link returns no ACK: every attempt is an ACK
        timeout, reported to the watchdog, then a backoff.  Raises
        :class:`LinkFailure` once :data:`MAX_RETRIES` is exhausted or the
        link gets marked down under us.
        """
        edge = self.topology.edge_key(a, b)
        state = self._state[edge]
        attempt = 0
        while True:
            if state.marked_down:
                raise LinkFailure(f"{self.name}: link {a}<->{b} is down")
            if state.up:
                yield self.link(a, b).transfer(wire_bytes)
                self.watchdog.report_success(edge)
                return
            self.stats.add("dl.ack_timeouts")
            self.watchdog.report_timeout(edge)
            attempt += 1
            if attempt > MAX_RETRIES:
                raise LinkFailure(
                    f"{self.name}: link {a}<->{b} gave up after "
                    f"{MAX_RETRIES} retries"
                )
            backoff = self._backoff_ps(attempt)
            self.stats.add("dl.retransmissions")
            self.stats.add("dl.backoff_ps", backoff)
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "network",
                    "retry",
                    f"{self.name}.link{a}-{b}",
                    attempt=attempt,
                    backoff_ps=backoff,
                )
            yield backoff

    def _route_proc(self, src: int, dst: int, wire_bytes: int, done: SimEvent):
        """Adaptive store-and-forward routing: re-resolve the next hop at
        every step so mid-flight route recomputation takes effect."""
        trace = self.sim.trace
        span = (
            trace.begin(
                "network",
                "packet",
                f"{self.name}.route",
                src=src,
                dst=dst,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )
        try:
            node = src
            steps = 0
            while node != dst:
                nxt = self._next_hop_or_fail(node, dst)
                yield from self._hop_with_retry(node, nxt, wire_bytes)
                yield self.hop_latency_ps
                self.stats.add("dl.hop_bytes", wire_bytes)
                self.stats.add("dl.hops")
                node = nxt
                steps += 1
                if steps > 2 * self.topology.n:
                    raise LinkFailure(
                        f"{self.name}: routing loop {src}->{dst} under churn"
                    )
        except LinkFailure as exc:
            self.stats.add("dl.send_failures")
            trace.end(span, status="failed")
            done.fail(exc)
            return
        self.stats.add("dl.packets")
        trace.end(span, status="delivered", hops=steps)
        done.succeed(wire_bytes)

    def stream(self, src: int, dst: int, wire_bytes: int) -> SimEvent:
        """Pipelined bulk transfer ``src -> dst``.

        Models wormhole-style pipelining of a long packet train: every link
        on the path is occupied for the full train duration concurrently,
        and delivery completes when the slowest link finishes plus the
        residual per-hop latencies.  Used for transfers large enough that
        per-packet store-and-forward simulation would be wasteful.

        A physically dead link on the path stalls the train: the head
        flits vanish, the sender times out, and the whole train is
        re-issued (with backoff) over whatever route is then live.  Like
        :meth:`send`, the returned event fails with :class:`LinkFailure`
        on exhaustion.
        """
        if src == dst:
            event = self.sim.event(name=self._n_stream_self)
            self.sim.schedule(0, event.succeed, wire_bytes)
            return event
        done = self.sim.event(name=self._n_stream)
        Process(
            self.sim, self._stream_proc(src, dst, wire_bytes, done),
            name=self._n_stream_route,
        )
        return done

    def _stream_proc(self, src: int, dst: int, wire_bytes: int, done: SimEvent):
        trace = self.sim.trace
        span = (
            trace.begin(
                "network",
                "stream",
                f"{self.name}.stream",
                src=src,
                dst=dst,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )
        attempt = 0
        while True:
            try:
                path = self.topology.path(src, dst)
            except RoutingError as exc:
                self.stats.add("dl.unroutable")
                self.stats.add("dl.send_failures")
                trace.end(span, status="failed")
                done.fail(LinkFailure(f"{self.name}: no live route {src}->{dst}"))
                return
            edge_key = self.topology.edge_key
            keys = [edge_key(a, b) for a, b in zip(path, path[1:])]
            dead = [key for key in keys if not self._state[key].up]
            if not dead:
                transfers = [
                    self.link(a, b).transfer(wire_bytes)
                    for a, b in zip(path, path[1:])
                ]
                hops = len(transfers)
                yield AllOf(transfers)
                yield self.hop_latency_ps * hops
                self.stats.add("dl.hop_bytes", wire_bytes * hops)
                self.stats.add("dl.hops", hops)
                self.stats.add("dl.packets")
                trace.end(span, status="delivered", hops=hops)
                done.succeed(wire_bytes)
                return
            for edge in dead:
                self.stats.add("dl.ack_timeouts")
                self.watchdog.report_timeout(edge)
            attempt += 1
            if attempt > MAX_RETRIES:
                self.stats.add("dl.send_failures")
                trace.end(span, status="failed")
                done.fail(
                    LinkFailure(
                        f"{self.name}: stream {src}->{dst} gave up after "
                        f"{MAX_RETRIES} retries"
                    )
                )
                return
            backoff = self._backoff_ps(attempt)
            self.stats.add("dl.retransmissions")
            self.stats.add("dl.backoff_ps", backoff)
            yield backoff

    def broadcast(self, root: int, wire_bytes: int) -> SimEvent:
        """Flood ``wire_bytes`` from ``root`` to every node; fires when all
        nodes have received the packet.

        The flood pipelines wormhole-style: a node forwards flits as they
        arrive, so a child finishes receiving one hop latency after its
        parent (or when its inbound link finishes serialising, whichever
        is later) — a chain flood costs one serialisation plus per-hop
        latencies, not hops x payload.

        If the flood cannot reach every node (a partitioned group, or a
        tree link dying under the flood), the event fails with
        :class:`LinkFailure`; the IDC layer then re-issues the whole group
        delivery through the host.
        """
        done = self.sim.event(name=self._n_broadcast)
        try:
            tree = self.topology.broadcast_tree(root)
        except RoutingError as exc:
            self.stats.add("dl.unroutable")
            failure = LinkFailure(f"{self.name}: flood from {root} cut off")
            failure.__cause__ = exc
            self.sim.schedule(0, done.fail, failure)
            return done
        if not tree:
            self.sim.schedule(0, done.succeed, 0)
            return done
        arrival: Dict[int, SimEvent] = {root: self.sim.event()}
        arrival[root].succeed(None)

        def forward(parent: int, child: int):
            # the link reserves its occupancy as soon as the parent begins
            # receiving (flits stream through); completion needs both the
            # serialisation to finish and the parent's data to be there
            edge = self.topology.edge_key(parent, child)
            state = self._state[edge]
            if state.up and not state.marked_down:
                transfer = self.link(parent, child).transfer(wire_bytes)
                yield AllOf([arrival[parent], transfer])
                self.watchdog.report_success(edge)
            else:
                # dead link: drop to the per-hop retry/backoff loop
                # (raises LinkFailure on exhaustion)
                yield arrival[parent]
                yield from self._hop_with_retry(parent, child, wire_bytes)
            yield self.hop_latency_ps
            self.stats.add("dl.hop_bytes", wire_bytes)
            self.stats.add("dl.hops")
            arrival[child].succeed(None)

        children = []
        for parent, child in tree:
            arrival.setdefault(child, self.sim.event())
            children.append(
                Process(self.sim, forward(parent, child), name=self._n_bc)
            )

        trace = self.sim.trace
        span = (
            trace.begin(
                "network",
                "broadcast",
                f"{self.name}.broadcast",
                root=root,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )

        def finish():
            try:
                yield AllOf(children)
            except LinkFailure as exc:
                self.stats.add("dl.send_failures")
                trace.end(span, status="failed")
                done.fail(exc)
                return
            self.stats.add("dl.broadcasts")
            trace.end(span, status="delivered")
            done.succeed(wire_bytes)

        Process(self.sim, finish(), name=self._n_bc_finish)
        return done


class RefDIMMLinkIDC(DIMMLinkIDC):
    """``DIMMLinkIDC`` with its generator processes (core/dimmlink.py)."""

    def _register_at_proxy(self, src: int):
        """Send the forwarding request to the group's polling proxy.

        If the bridge can no longer reach the proxy, the registration is
        skipped: the host's polling loop still visits the DIMM's own
        request register directly, just on the slower non-proxy cadence —
        which the polling model already charges through ``notice``.
        """
        polling = self._require_system().polling
        if not getattr(polling, "uses_proxy", False):
            return
        proxy = polling.proxy_of(src)
        if proxy != src:
            try:
                yield self.bridge.send(src, proxy, CONTROL_WIRE_BYTES)
            except LinkFailure:
                self.stats.add("dl.proxy_unreachable")
                return
        self.stats.add("idc.proxy_registrations")

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="dl.read")
        if self.bridge.same_group(src_dimm, dst_dimm):
            Process(
                self.sim, self._intra_read(src_dimm, dst_dimm, offset, nbytes, done),
                name="dl.read",
            )
        else:
            Process(
                self.sim, self._inter_read(system, src_dimm, dst_dimm, offset, nbytes, done),
                name="dl.read.fwd",
            )
        self.trace_op(done, "remote_read", src=src_dimm, dst=dst_dimm, bytes=nbytes)
        return done

    def _intra_read(self, src, dst, offset, nbytes, done: SimEvent):
        system = self._require_system()
        src_ctl, dst_ctl = self.controllers[src], self.controllers[dst]
        yield src_ctl.packetize_ps
        src_ctl.packetize(0)
        try:
            yield self.bridge.send(src, dst, CONTROL_WIRE_BYTES)
            yield dst_ctl.decode_ps
            yield system.dimms[dst].mc.local_access(offset, nbytes, False)
            yield dst_ctl.packetize_ps
            wire = dst_ctl.packetize(nbytes)
            yield self._dl_transfer(dst, src, wire)
            yield src_ctl.decode_ps
            src_ctl.receive(nbytes)
            self.stats.add("idc.intra_group_bytes", nbytes)
        except LinkFailure:
            # hybrid-routing failover: re-issue the whole read through the
            # host (the request may have died at any stage; the forwarded
            # retry is self-contained either way)
            self._count_reroute(nbytes)
            yield from self._forwarded_read(system, src, dst, offset, nbytes)
        done.succeed(nbytes)

    def _forwarded_read(self, system, src, dst, offset, nbytes):
        """Host-forwarded read body (inter-group path and failover path)."""
        src_ctl = self.controllers[src]
        yield from self._register_at_proxy(src)
        yield system.forwarder.forward(src, dst, CONTROL_WIRE_BYTES)
        yield self.controllers[dst].decode_ps
        yield system.dimms[dst].mc.local_access(offset, nbytes, False)
        wire = self.controllers[dst].packetize(nbytes)
        # the host expects the response after forwarding the request
        yield system.forwarder.forward(dst, src, wire, notice_dimm=-1)
        yield src_ctl.decode_ps
        src_ctl.receive(nbytes)
        self.stats.add("idc.forwarded_bytes", nbytes)

    def _inter_read(self, system, src, dst, offset, nbytes, done: SimEvent):
        src_ctl = self.controllers[src]
        yield src_ctl.packetize_ps
        src_ctl.packetize(0)
        yield from self._forwarded_read(system, src, dst, offset, nbytes)
        done.succeed(nbytes)

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="dl.write")
        if self.bridge.same_group(src_dimm, dst_dimm):
            Process(
                self.sim, self._intra_write(src_dimm, dst_dimm, offset, nbytes, done),
                name="dl.write",
            )
        else:
            Process(
                self.sim, self._inter_write(system, src_dimm, dst_dimm, offset, nbytes, done),
                name="dl.write.fwd",
            )
        self.trace_op(done, "remote_write", src=src_dimm, dst=dst_dimm, bytes=nbytes)
        return done

    def _intra_write(self, src, dst, offset, nbytes, done: SimEvent):
        system = self._require_system()
        src_ctl, dst_ctl = self.controllers[src], self.controllers[dst]
        yield src_ctl.packetize_ps
        wire = src_ctl.packetize(nbytes)
        try:
            yield self._dl_transfer(src, dst, wire)
            yield dst_ctl.decode_ps
            dst_ctl.receive(nbytes)
            yield system.dimms[dst].mc.local_access(offset, nbytes, True)
            self.stats.add("idc.intra_group_bytes", nbytes)
        except LinkFailure:
            self._count_reroute(nbytes)
            yield from self._forwarded_write(system, src, dst, offset, nbytes, wire)
        done.succeed(nbytes)

    def _forwarded_write(self, system, src, dst, offset, nbytes, wire):
        """Host-forwarded write body (inter-group path and failover path)."""
        yield from self._register_at_proxy(src)
        yield system.forwarder.forward(src, dst, wire)
        yield self.controllers[dst].decode_ps
        self.controllers[dst].receive(nbytes)
        yield system.dimms[dst].mc.local_access(offset, nbytes, True)
        self.stats.add("idc.forwarded_bytes", nbytes)

    def _inter_write(self, system, src, dst, offset, nbytes, done: SimEvent):
        src_ctl = self.controllers[src]
        yield src_ctl.packetize_ps
        wire = src_ctl.packetize(nbytes)
        yield from self._forwarded_write(system, src, dst, offset, nbytes, wire)
        done.succeed(nbytes)

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="dl.broadcast")
        Process(
            self.sim, self._broadcast(system, src_dimm, offset, nbytes, done), name="dl.bc"
        )
        self.trace_op(done, "broadcast", src=src_dimm, bytes=nbytes)
        return done

    def _flood_group(self, system, root, offset, nbytes):
        """Flood the root's group, then receivers store the data locally.

        If the flood cannot reach every group member over the bridge (a
        dead link severed the broadcast tree), the whole group delivery
        falls back to per-peer host forwarding.
        """
        wire = wire_bytes_for_transfer(nbytes)
        group_index, _pos = self.bridge.locate(root)
        peers = [d for d in system.config.groups[group_index] if d != root]
        try:
            yield self.bridge.broadcast(root, wire)
        except (LinkFailure, RoutingError):
            self._count_reroute(nbytes * len(peers), operations=len(peers))

            def to_peer(peer, first):
                yield system.forwarder.forward(
                    root, peer, wire, notice_dimm=None if first else -1
                )
                self.stats.add("idc.forwarded_bytes", nbytes)
                yield self.controllers[peer].decode_ps
                yield system.dimms[peer].mc.local_access(offset, nbytes, True)

            yield AllOf(
                [
                    Process(self.sim, to_peer(peer, index == 0), name="dl.bc.fb")
                    for index, peer in enumerate(peers)
                ]
            )
            return
        writes = [
            system.dimms[d].mc.local_access(offset, nbytes, True) for d in peers
        ]
        self.stats.add("idc.intra_group_bytes", nbytes * len(peers))
        yield AllOf(writes)

    def _broadcast(self, system, src, offset, nbytes, done: SimEvent):
        yield self.controllers[src].packetize_ps
        wire = self.controllers[src].packetize(nbytes)
        branches = [
            Process(
                self.sim, self._flood_group(system, src, offset, nbytes), name="dl.bc.home"
            )
        ]
        gateways = [
            system.config.master_dimm(g)
            for g in range(len(system.config.groups))
            if g != system.config.group_of(src)
        ]
        if gateways:
            yield from self._register_at_proxy(src)

        def to_group(gateway, first):
            yield system.forwarder.forward(
                src, gateway, wire, notice_dimm=None if first else -1
            )
            self.stats.add("idc.forwarded_bytes", nbytes)
            yield self.controllers[gateway].decode_ps
            yield system.dimms[gateway].mc.local_access(offset, nbytes, True)
            yield from self._flood_group(system, gateway, offset, nbytes)

        for index, gateway in enumerate(gateways):
            branches.append(
                Process(self.sim, to_group(gateway, index == 0), name="dl.bc.fwd")
            )
        yield AllOf(branches)
        self.stats.add("idc.broadcast_ops")
        done.succeed(nbytes)

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="dl.msg")

        def forwarded():
            if not expected:
                yield from self._register_at_proxy(src_dimm)
            yield system.forwarder.forward(
                src_dimm,
                dst_dimm,
                CONTROL_WIRE_BYTES,
                notice_dimm=-1 if expected else None,
            )

        def proc():
            yield self.controllers[src_dimm].packetize_ps
            if self.bridge.same_group(src_dimm, dst_dimm):
                try:
                    yield self.bridge.send(src_dimm, dst_dimm, CONTROL_WIRE_BYTES)
                except LinkFailure:
                    self._count_reroute(CONTROL_WIRE_BYTES)
                    yield from forwarded()
            else:
                yield from forwarded()
            yield self.controllers[dst_dimm].decode_ps
            self.stats.add("idc.messages")
            done.succeed(nbytes)

        Process(self.sim, proc(), name="dl.msg")
        return done


class RefCPUForwardingIDC(CPUForwardingIDC):
    """``CPUForwardingIDC`` with its generator processes (idc/cpu_forwarding.py)."""

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="mcn.read")

        def proc():
            yield system.forwarder.forward(src_dimm, dst_dimm, CONTROL_WIRE_BYTES)
            yield system.dimms[dst_dimm].mc.local_access(offset, nbytes, False)
            wire = wire_bytes_for_transfer(nbytes)
            yield system.forwarder.forward(dst_dimm, src_dimm, wire, notice_dimm=-1)
            self.stats.add("idc.forwarded_bytes", nbytes)
            done.succeed(nbytes)

        Process(self.sim, proc(), name="mcn.read")
        return done

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="mcn.write")

        def proc():
            wire = wire_bytes_for_transfer(nbytes)
            yield system.forwarder.forward(src_dimm, dst_dimm, wire)
            yield system.dimms[dst_dimm].mc.local_access(offset, nbytes, True)
            self.stats.add("idc.forwarded_bytes", nbytes)
            done.succeed(nbytes)

        Process(self.sim, proc(), name="mcn.write")
        return done

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        """MCN-BC: one host read, then one write per destination DIMM."""
        system = self._require_system()
        done = self.sim.event(name="mcn.bc")
        config = system.config
        wire = wire_bytes_for_transfer(nbytes)

        def proc():
            yield system.polling.notice(src_dimm)
            src_channel = system.channels[config.channel_of(src_dimm)]
            yield src_channel.transfer(wire, kind="fwd")
            yield ns(config.host.forward_latency_ns)

            def deliver(dst):
                # every per-DIMM copy consumes the host forwarding engine
                yield system.forwarder.engine.transfer(wire)
                channel = system.channels[config.channel_of(dst)]
                yield channel.transfer(wire, kind="fwd")
                yield system.dimms[dst].mc.local_access(offset, nbytes, True)
                self.stats.add("idc.forwarded_bytes", nbytes)

            deliveries = [
                Process(self.sim, deliver(dst), name="mcn.bc.deliver")
                for dst in range(config.num_dimms)
                if dst != src_dimm
            ]
            yield AllOf(deliveries)
            self.stats.add("idc.broadcast_ops")
            done.succeed(nbytes)

        Process(self.sim, proc(), name="mcn.bc")
        return done

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="mcn.msg")

        def proc():
            yield system.forwarder.forward(
                src_dimm,
                dst_dimm,
                CONTROL_WIRE_BYTES,
                notice_dimm=-1 if expected else None,
            )
            self.stats.add("idc.messages")
            done.succeed(nbytes)

        Process(self.sim, proc(), name="mcn.msg")
        return done


class RefIntraChannelBroadcastIDC(RefCPUForwardingIDC):
    """``IntraChannelBroadcastIDC`` with its generator processes (idc/intra_channel_bc.py)."""

    name = "abc"

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="abc.bc")
        config = system.config
        wire = wire_bytes_for_transfer(nbytes)
        src_channel_id = config.channel_of(src_dimm)

        def proc():
            # the host issues the customized broadcast-read command
            yield system.polling.notice(src_dimm)
            src_channel = system.channels[src_channel_id]
            # one broadcast-read: host AND the source channel's other DIMMs
            # all receive the data simultaneously
            yield src_channel.transfer(wire, kind="fwd")
            yield ns(config.host.forward_latency_ns)

            def same_channel_store(dst):
                yield system.dimms[dst].mc.local_access(offset, nbytes, True)
                self.stats.add("idc.channel_bc_bytes", nbytes)

            def other_channel(channel_id):
                # the host copies the payload once per destination channel
                yield system.forwarder.engine.transfer(wire)
                channel = system.channels[channel_id]
                # one broadcast-write serves every DIMM of the channel
                yield channel.transfer(wire, kind="fwd")
                stores = [
                    system.dimms[dst].mc.local_access(offset, nbytes, True)
                    for dst in config.dimms_on_channel(channel_id)
                ]
                self.stats.add(
                    "idc.forwarded_bytes", nbytes * len(config.dimms_on_channel(channel_id))
                )
                yield AllOf(stores)

            branches = [
                Process(self.sim, same_channel_store(dst), name="abc.bc.local")
                for dst in config.dimms_on_channel(src_channel_id)
                if dst != src_dimm
            ]
            branches.extend(
                Process(self.sim, other_channel(ch), name="abc.bc.fwd")
                for ch in range(config.num_channels)
                if ch != src_channel_id
            )
            yield AllOf(branches)
            self.stats.add("idc.broadcast_ops")
            done.succeed(nbytes)

        Process(self.sim, proc(), name="abc.bc")
        return done


class RefDedicatedBusIDC(DedicatedBusIDC):
    """``DedicatedBusIDC`` with its generator processes (idc/dedicated_bus.py)."""

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="aim.read")

        def proc():
            # the read command is broadcast; the owner snoops and replies
            yield self._bus_transfer(CONTROL_WIRE_BYTES)
            yield system.dimms[dst_dimm].mc.local_access(offset, nbytes, False)
            yield self._bus_transfer(wire_bytes_for_transfer(nbytes))
            self.stats.add("idc.bus_payload_bytes", nbytes)
            done.succeed(nbytes)

        Process(self.sim, proc(), name="aim.read")
        return done

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        system = self._require_system()
        done = self.sim.event(name="aim.write")

        def proc():
            yield self._bus_transfer(wire_bytes_for_transfer(nbytes))
            yield system.dimms[dst_dimm].mc.local_access(offset, nbytes, True)
            self.stats.add("idc.bus_payload_bytes", nbytes)
            done.succeed(nbytes)

        Process(self.sim, proc(), name="aim.write")
        return done

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        """AIM-BC: one bus transfer reaches every snooping DIMM."""
        system = self._require_system()
        done = self.sim.event(name="aim.bc")

        def proc():
            yield self._bus_transfer(wire_bytes_for_transfer(nbytes))
            writes = [
                system.dimms[dst].mc.local_access(offset, nbytes, True)
                for dst in range(system.config.num_dimms)
                if dst != src_dimm
            ]
            self.stats.add(
                "idc.bus_payload_bytes", nbytes * (system.config.num_dimms - 1)
            )
            yield AllOf(writes)
            self.stats.add("idc.broadcast_ops")
            done.succeed(nbytes)

        Process(self.sim, proc(), name="aim.bc")
        return done

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        done = self.sim.event(name="aim.msg")

        def proc():
            yield self._bus_transfer(CONTROL_WIRE_BYTES)
            self.stats.add("idc.messages")
            done.succeed(nbytes)

        Process(self.sim, proc(), name="aim.msg")
        return done


class RefSyncManager(SyncManager):
    """``SyncManager`` with its generator processes (core/sync.py)."""

    def barrier(self, thread_id: int) -> SimEvent:
        """Enter the barrier; the event fires when this thread is released."""
        if thread_id not in self._thread_counts:
            raise SimulationError(f"unknown barrier participant {thread_id}")
        generation = self._thread_counts[thread_id]
        self._thread_counts[thread_id] += 1
        state = self._generations.setdefault(generation, _Generation())
        home = self._thread_homes[thread_id]
        event = self.sim.event(name=f"barrier.g{generation}.t{thread_id}")
        state.waiters[home].append(event)
        Process(
            self.sim, self._arrival(state, generation, home), name=f"sync.arrive.{thread_id}"
        )
        return event

    def _arrival(self, state: _Generation, generation: int, home: int):
        yield LOCAL_SYNC_PS  # report to the DIMM's master core
        if self.mode == "central":
            yield from self._central_arrival(state, generation, home)
        else:
            yield from self._hier_arrival(state, generation, home)

    def _central_arrival(self, state: _Generation, generation: int, home: int):
        if home != self.global_master:
            self.stats.add("sync.messages")
            yield self.idc.message(home, self.global_master, SYNC_MSG_BYTES)
        # the master core handles every arrival serially
        yield self._master_core(self.global_master).occupy(MASTER_PROC_PS)
        state.arrived_threads += 1
        if state.arrived_threads == self.total_threads:
            self._release_central(state, generation)

    def _hier_arrival(self, state: _Generation, generation: int, home: int):
        state.dimm_arrivals[home] += 1
        if state.dimm_arrivals[home] != self._threads_per_dimm[home]:
            return
        # last thread of this DIMM: notify the group master
        group = self.config.group_of(home)
        group_master = self.config.master_dimm(group)
        if home != group_master:
            self.stats.add("sync.messages")
            yield self.idc.message(home, group_master, SYNC_MSG_BYTES)
        yield self._master_core(group_master).occupy(MASTER_PROC_PS)
        state.group_arrivals[group] += 1
        if state.group_arrivals[group] != self._dimms_per_group[group]:
            return
        # last DIMM of the group: notify the global master
        if group_master != self.global_master:
            self.stats.add("sync.messages")
            self.stats.add("sync.inter_group_messages")
            yield self.idc.message(group_master, self.global_master, SYNC_MSG_BYTES)
            yield self._master_core(self.global_master).occupy(MASTER_PROC_PS)
        state.arrived_threads += 1  # counts completed groups in hier mode
        if state.arrived_threads == len(self._dimms_per_group):
            self._release_hier(state, generation)

    def _release_central(self, state: _Generation, generation: int) -> None:
        state.released = True
        self.stats.add("sync.barriers")
        for dimm in state.waiters:
            Process(
                self.sim, self._release_dimm(state, dimm, via=self.global_master),
                name=f"sync.release.g{generation}.d{dimm}",
            )

    def _release_hier(self, state: _Generation, generation: int) -> None:
        state.released = True
        self.stats.add("sync.barriers")
        for group, _count in self._dimms_per_group.items():
            Process(
                self.sim, self._release_group(state, group),
                name=f"sync.release.g{generation}.grp{group}",
            )

    def _release_group(self, state: _Generation, group: int):
        group_master = self.config.master_dimm(group)
        if group_master != self.global_master:
            self.stats.add("sync.messages")
            self.stats.add("sync.inter_group_messages")
            yield self._master_core(self.global_master).occupy(MASTER_PROC_PS)
            # the host just forwarded the arrival, so it expects the release
            yield self.idc.message(
                self.global_master, group_master, SYNC_MSG_BYTES, expected=True
            )
        for dimm in state.waiters:
            if self.config.group_of(dimm) == group:
                Process(
                    self.sim, self._release_dimm(state, dimm, via=group_master),
                    name=f"sync.release.d{dimm}",
                )

    def _release_dimm(self, state: _Generation, dimm: int, via: int):
        if dimm != via:
            self.stats.add("sync.messages")
            yield self._master_core(via).occupy(MASTER_PROC_PS)
            yield self.idc.message(via, dimm, SYNC_MSG_BYTES, expected=True)
        yield LOCAL_SYNC_PS  # master core releases local threads
        for event in state.waiters[dimm]:
            event.succeed(None)


class RefInterruptPolling(InterruptPolling):
    """``InterruptPolling`` with its generator processes (host/polling.py)."""

    def notice(self, dimm_id: int) -> SimEvent:
        channel = self.channels[self.config.channel_of(dimm_id)]
        done = self.sim.event(name="poll.notice")

        def proc():
            yield self._interrupt_ps
            # ALERT_N is shared: scan every DIMM on the channel to find
            # the requester (Sec. IV-A).
            for _ in channel.dimm_ids:
                yield channel.transfer(self.host.poll_read_bytes, kind="poll")
                self.stats.add("poll.scan_reads")
            self.stats.add("poll.notices")
            if self.sim.trace.enabled:
                self.sim.trace.instant(
                    "host", "poll.interrupt", "host.poll", dimm=dimm_id
                )
            done.succeed(None)

        Process(self.sim, proc(), name="poll.interrupt")
        return done


class RefProxyInterruptPolling(ProxyInterruptPolling):
    """``ProxyInterruptPolling`` with its generator processes (host/polling.py)."""

    def notice(self, dimm_id: int) -> SimEvent:
        proxy = self.proxy_of(dimm_id)
        channel = self.channels[self.config.channel_of(proxy)]
        done = self.sim.event(name="poll.notice")

        def proc():
            yield self._interrupt_ps
            yield channel.transfer(self.host.poll_read_bytes, kind="poll")
            self.stats.add("poll.scan_reads")
            self.stats.add("poll.notices")
            if self.sim.trace.enabled:
                self.sim.trace.instant(
                    "host", "poll.interrupt", "host.poll", dimm=dimm_id
                )
            done.succeed(None)

        Process(self.sim, proc(), name="poll.proxy_interrupt")
        return done


class RefNMPCore(NMPCore):
    """``NMPCore`` with its generator processes (nmp/core.py)."""

    def _migrate_then_access(
        self, op, target: int, migration: Tuple[int, int], is_write: bool
    ) -> SimEvent:
        """Pull the page from its old owner over the IDC, then access it.

        The page table already switched ownership; this charges the
        ``PAGE_BYTES`` copy (new owner reads the page from the old one
        through the active IDC mechanism) before the triggering access,
        which is then served by the new owner — usually locally.
        """
        from repro.dram.address import PAGE_BYTES, page_offset

        if self.idc is None:
            raise RuntimeError(f"{self.name}: core not bound to an IDC mechanism")
        src, dst = migration
        done = self.sim.event(name=f"{self.name}.migrated")

        def proc():
            begin = self.sim.now
            trace = self.sim.trace
            span = (
                trace.begin(
                    "placement", "migrate", self.name, page=op.page, src=src, dst=dst
                )
                if trace.enabled
                else None
            )
            yield self.idc.remote_read(dst, src, page_offset(op.page), PAGE_BYTES)
            self.stats.add("placement.migrations")
            self.stats.add("placement.migrated_bytes", PAGE_BYTES)
            self.stats.add("placement.migration_ps", self.sim.now - begin)
            if span is not None:
                trace.end(span)
            yield self.mc.submit(target, op.offset, op.nbytes, is_write)
            done.succeed(op.nbytes)

        Process(self.sim, proc(), name=f"{self.name}.migrate")
        return done


class RefHostCore(HostCore):
    """``HostCore`` with its generator processes (host/cpu.py)."""

    def _migrate_then_access(
        self, op, target: int, migration: Tuple[int, int], is_write: bool
    ) -> SimEvent:
        """Copy the page across channels (read old, write new), then access."""
        from repro.dram.address import PAGE_BYTES, page_offset

        src, dst = migration
        done = self.sim.event(name=f"{self.name}.migrated")

        def proc():
            begin = self.sim.now
            trace = self.sim.trace
            span = (
                trace.begin(
                    "placement", "migrate", self.name, page=op.page, src=src, dst=dst
                )
                if trace.enabled
                else None
            )
            yield self.system.memory_request(src, page_offset(op.page), PAGE_BYTES, False)
            yield self.system.memory_request(dst, page_offset(op.page), PAGE_BYTES, True)
            self.stats.add("placement.migrations")
            self.stats.add("placement.migrated_bytes", PAGE_BYTES)
            self.stats.add("placement.migration_ps", self.sim.now - begin)
            if span is not None:
                trace.end(span)
            yield self.system.memory_request(target, op.offset, op.nbytes, is_write)
            done.succeed(op.nbytes)

        Process(self.sim, proc(), name=f"{self.name}.migrate")
        return done


class RefDisaggregatedMemory(DisaggregatedMemory):
    """``DisaggregatedMemory`` with its generator processes (core/disaggregated.py)."""

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
        Process(
            self.sim, self._inter_blade(src_blade, src_local, dst_blade, dst_local, nbytes, done),
            name="disagg.xfer",
        )
        return done

    def _inter_blade(self, src_blade, src_local, dst_blade, dst_local, nbytes, done):
        tech = self.fabric_tech
        wire = wire_bytes_for_transfer(nbytes)
        src = self.blades[src_blade]
        dst = self.blades[dst_blade]
        # DL to the source blade's fabric-port DIMM (its group master)
        port_out = src.config.master_dimm(src.config.group_of(src_local))
        if port_out != src_local:
            yield src.idc.bridge.stream(src_local, port_out, wire)
        yield ns(tech.endpoint_overhead_ns)
        yield self._ports[src_blade][0].transfer(wire)
        yield self._ports[dst_blade][1].transfer(wire)
        yield ns(tech.endpoint_overhead_ns)
        # DL from the destination blade's port DIMM to the target
        port_in = dst.config.master_dimm(dst.config.group_of(dst_local))
        if port_in != dst_local:
            yield dst.idc.bridge.stream(port_in, dst_local, wire)
        yield dst.dimms[dst_local].mc.local_access(0, nbytes, True)
        self.stats.add("disagg.inter_blade_bytes", nbytes)
        done.succeed(nbytes)


_REFERENCES = {
    PacketNetwork: RefPacketNetwork,
    DIMMLinkIDC: RefDIMMLinkIDC,
    CPUForwardingIDC: RefCPUForwardingIDC,
    IntraChannelBroadcastIDC: RefIntraChannelBroadcastIDC,
    DedicatedBusIDC: RefDedicatedBusIDC,
    InterruptPolling: RefInterruptPolling,
    ProxyInterruptPolling: RefProxyInterruptPolling,
    NMPCore: RefNMPCore,
    DisaggregatedMemory: RefDisaggregatedMemory,
}


def _as_reference(obj):
    """Swap the generator referee in for ``obj``'s class, if it has one."""
    reference = _REFERENCES.get(type(obj))
    if reference is None:
        return
    obj.__class__ = reference
    if isinstance(obj, PacketNetwork):
        # process labels only the generator versions use
        obj._n_route = f"{obj.name}.route"
        obj._n_stream_route = f"{obj.name}.stream.route"
        obj._n_bc = f"{obj.name}.bc"
        obj._n_bc_finish = f"{obj.name}.bc.finish"


def _reference_system(system):
    """Swap every referee into a built NMP system."""
    _as_reference(system.idc)
    for network in getattr(getattr(system.idc, "bridge", None), "networks", ()):
        _as_reference(network)
    _as_reference(system.polling)
    for dimm in system.dimms:
        for core in dimm.cores:
            _as_reference(core)


# -- observation --------------------------------------------------------------------


def _record(log, sim, owner, names, tag):
    """Log every call of ``owner``'s event-returning ``names``: its
    arguments (defaults applied), issue time, completion time and outcome.

    The logging callback schedules nothing, so it leaves the event order
    untouched.
    """
    for name in names:
        call = getattr(owner, name)
        signature = inspect.signature(call)

        def wrapped(*args, call=call, name=name, signature=signature, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            entry = (tag, name, tuple(bound.arguments.values()), sim.now)
            event = call(*args, **kwargs)
            event.add_callback(
                lambda ev: log.append(
                    entry + (sim.now, ev.failed, str(ev.value) if ev.failed else ev.value)
                )
            )
            return event

        setattr(owner, name, wrapped)


def _record_watchdog(log, sim, network):
    watchdog = network.watchdog
    for name in ("report_success", "report_timeout"):
        call = getattr(watchdog, name)

        def wrapped(edge, call=call, name=name):
            log.append((network.name, name, edge, sim.now))
            return call(edge)

        setattr(watchdog, name, wrapped)


def _instrument(log, system):
    sim = system.sim
    _record(log, sim, system.idc, ("remote_read", "remote_write", "broadcast", "message"), "idc")
    _record(log, sim, system.forwarder, ("forward",), "fwd")
    _record(log, sim, system.polling, ("notice",), "poll")
    for network in getattr(getattr(system.idc, "bridge", None), "networks", ()):
        _record(log, sim, network, ("send", "stream", "broadcast"), network.name)
        _record_watchdog(log, sim, network)


def _observed(sim, stats, result, log):
    return {
        "result": json.dumps(result.to_json_dict(), sort_keys=True),
        "stats": stats.to_json_dict(),
        "stat_order": list(stats.counters()),
        "spans": sim.trace.spans,
        "instants": sim.trace.instants,
        "now": sim.now,
        "seq": sim._seq,
        "log": log,
    }


# -- seeded programs ----------------------------------------------------------------

SIZES = (8, 64, 64, 200, 512, 2100, 4096, 9000)


def _programs(seed, num_threads, num_dimms, broadcast_rate=0.03):
    """Seeded op streams, one per thread.

    Threads mix computes, fences, broadcasts, static reads and writes
    (local and remote, 8 B to 9 KB) and paged accesses to a few hot
    pages, which next-touch placement migrates.  Every thread enters the
    same number of barriers.
    """
    rng = random.Random(seed)
    hot_pages = [page_id(d, rng.randrange(64)) for d in rng.sample(range(num_dimms), 4)]
    barriers = rng.randint(1, 2)
    programs = []
    for thread in range(num_threads):
        home = thread * num_dimms // num_threads
        count = rng.randint(24, 40)
        barrier_at = set(rng.sample(range(count), barriers))
        ops = []
        for index in range(count):
            if index in barrier_at:
                ops.append(Barrier())
            roll = rng.random()
            op = Write if rng.random() < 0.4 else Read
            if roll < 0.1:
                ops.append(Compute(rng.choice((0, 1, 9, 120))))
            elif roll < 0.13:
                ops.append(Flush())
            elif roll < 0.13 + broadcast_rate:
                ops.append(Broadcast(offset=rng.randrange(1 << 20), nbytes=rng.choice(SIZES)))
            elif roll < 0.35:
                page = rng.choice(hot_pages)
                offset = page_offset(page) + rng.randrange(0, 4032, 64)
                ops.append(op(dimm=page_home(page), offset=offset, nbytes=64, page=page))
            else:
                dimm = home if rng.random() < 0.3 else rng.randrange(num_dimms)
                nbytes = rng.choice(SIZES)
                ops.append(op(dimm=dimm, offset=rng.randrange(1 << 24), nbytes=nbytes))
        programs.append(ops)
    return [functools.partial(iter, ops) for ops in programs]


#: zero router, host-forwarding and interrupt latencies: every such
#: delay becomes a same-time lane hop
ZERO_LATENCY = dict(
    link=LinkConfig(hop_latency_ns=0.0),
    host=HostConfig(forward_latency_ns=0.0, interrupt_latency_ns=0.0),
)

CONFIGS = {
    "8D-4C": lambda: SystemConfig.named("8D-4C"),
    "12D-4C": lambda: SystemConfig.named("12D-4C"),
    "8D-4C-zero": lambda: SystemConfig.named("8D-4C", **ZERO_LATENCY),
}


def _run_nmp(monkeypatch, reference, config, mechanism, polling, sync_mode, seed,
             faults=None, patient_watchdog=False, broadcast_rate=0.03):
    sim = Simulator()
    sim.trace = TraceRecorder(sim, max_events=1 << 20)
    schedule = FaultSchedule(faults) if faults else None
    system = NMPSystem(
        config, idc=mechanism, polling=polling, sync_mode=sync_mode, sim=sim,
        faults=schedule,
    )
    if patient_watchdog:
        # never declare a link dead: every hop over one exhausts its retries
        for network in system.idc.bridge.networks:
            network.watchdog.threshold = 1 << 62
    if reference:
        _reference_system(system)
    log = []
    _instrument(log, system)

    def sync_manager(*args):
        sync = (RefSyncManager if reference else SyncManager)(*args)
        _record(log, sim, sync, ("barrier",), "sync")
        return sync

    monkeypatch.setattr(nmp_system, "SyncManager", sync_manager)
    pagetable = PageTable(NextTouchPolicy(), config.num_dimms)
    threads = config.num_dimms * config.nmp.cores_per_dimm
    programs = _programs(seed, threads, config.num_dimms, broadcast_rate)
    result = system.run(programs, pagetable=pagetable)
    return _observed(sim, system.stats, result, log)


def _assert_twins(got, want):
    for key in want:
        assert got[key] == want[key], key


def _transfers(observed):
    """Logged DL transfers: ``(group, kind, args, issued, done, failed, value)``."""
    return [entry for entry in observed["log"] if entry[1] in ("send", "stream", "broadcast")
            and entry[0].startswith("grp")]


def _counter(observed, name):
    return sum(
        value for key, value in observed["stats"]["counters"].items()
        if key == name or key.endswith("." + name)
    )


# -- every mechanism, every polling strategy ------------------------------------------

MECHANISMS = [
    ("mcn", "baseline"),
    ("mcn", "baseline+interrupt"),
    ("aim", "baseline"),
    ("aim", "baseline+interrupt"),
    ("abc", "baseline"),
    ("abc", "baseline+interrupt"),
    ("dimm_link", "baseline"),
    ("dimm_link", "baseline+interrupt"),
    ("dimm_link", "proxy"),
    ("dimm_link", "proxy+interrupt"),
]


@pytest.mark.parametrize("config_name", ["8D-4C", "12D-4C"])
@pytest.mark.parametrize("mechanism,polling", MECHANISMS)
def test_chains_match_generator_processes(monkeypatch, config_name, mechanism, polling):
    # each mechanism/polling pair sees both sync modes across the configs
    index = MECHANISMS.index((mechanism, polling)) + (config_name == "12D-4C")
    sync_mode = ("hierarchical", "central")[index % 2]
    seed = 7 + index
    config = CONFIGS[config_name]()
    args = (config, mechanism, polling, sync_mode, seed)
    got = _run_nmp(monkeypatch, False, *args)
    want = _run_nmp(monkeypatch, True, *args)
    _assert_twins(got, want)
    # the programs exercised what they were built for
    assert _counter(got, "core.remote_ops") > 0
    assert _counter(got, "core.broadcasts") > 0
    assert _counter(got, "sync.barriers") > 0
    assert _counter(got, "placement.migrations") > 0
    if "interrupt" in polling and mechanism != "aim":
        assert _counter(got, "poll.scan_reads") > 0
    if mechanism == "dimm_link":
        sent = {entry[1] for entry in _transfers(got)}
        assert {"send", "stream", "broadcast"} <= sent
        messages = {entry[2][3] for entry in got["log"] if entry[1] == "message"}
        assert messages == {False, True}, "no expected and unexpected messages"


@pytest.mark.parametrize("sync_mode", ["hierarchical", "central"])
@pytest.mark.parametrize(
    "mechanism,polling",
    [("dimm_link", "proxy+interrupt"), ("dimm_link", "baseline"), ("mcn", "baseline+interrupt"),
     ("abc", "baseline+interrupt")],
)
def test_zero_latencies_hop_the_lane(monkeypatch, mechanism, polling, sync_mode):
    config = CONFIGS["8D-4C-zero"]()
    args = (config, mechanism, polling, sync_mode, 5)
    _assert_twins(_run_nmp(monkeypatch, False, *args), _run_nmp(monkeypatch, True, *args))


# -- link failures ---------------------------------------------------------------------

#: 8D-4C half-ring groups: 0-1-2-3 and 4-5-6-7; DIMMs 2 and 6 are the
#: group masters (proxies and broadcast gateways).
ALL_LINKS = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
FAULTS = {
    "one-link": dict(faults=[LinkDown(300_000, 1, 2)]),
    "every-link": dict(faults=[LinkDown(300_000, a, b) for a, b in ALL_LINKS]),
    # both tree links of each master die under broadcast-heavy traffic,
    # so floods from a master lose two branches
    "flood-cut": dict(
        faults=[LinkDown(1_000_000, a, b) for a, b in ((1, 2), (2, 3), (5, 6), (6, 7))],
        broadcast_rate=0.25,
    ),
    # the watchdog never declares the link dead: sends, streams and flood
    # branches over it exhaust their retries
    "retries-exhausted": dict(
        faults=[LinkDown(200_000, 1, 2), LinkDown(200_000, 5, 6)],
        patient_watchdog=True,
        broadcast_rate=0.1,
    ),
}


@pytest.fixture
def flood_failures(monkeypatch):
    """Count the branches each flood lost."""
    counts: Dict[int, int] = {}
    lost = PacketNetwork._flood_lost

    def counted(network, branch, exc):
        counts[id(branch.flood)] = counts.get(id(branch.flood), 0) + 1
        return lost(network, branch, exc)

    monkeypatch.setattr(PacketNetwork, "_flood_lost", counted)
    return counts


@pytest.mark.parametrize("polling", ["proxy", "baseline+interrupt"])
@pytest.mark.parametrize("schedule", sorted(FAULTS))
def test_failover_matches_generator_processes(monkeypatch, flood_failures, schedule, polling):
    config = CONFIGS["8D-4C"]()
    options = FAULTS[schedule]
    sync_mode = "hierarchical" if polling == "proxy" else "central"
    args = (config, "dimm_link", polling, sync_mode, 3)
    got = _run_nmp(monkeypatch, False, *args, **options)
    want = _run_nmp(monkeypatch, True, *args, **options)
    _assert_twins(got, want)
    assert _counter(got, "fault.links_down") == len(options["faults"])
    assert _counter(got, "dl.rerouted_to_host") > 0
    failures = [entry for entry in _transfers(got) if entry[5]]
    assert failures, "no DL transfer failed"
    if schedule == "every-link":
        assert _counter(got, "dl.links_marked_down") == len(ALL_LINKS)
    if schedule == "flood-cut":
        assert max(flood_failures.values()) >= 2, "no flood lost two branches"
    if schedule == "retries-exhausted":
        gave_up = {entry[1] for entry in failures if "gave up" in entry[6]}
        assert gave_up == {"send", "stream", "broadcast"}
        assert _counter(got, "dl.links_marked_down") == 0


# -- CPU-baseline page migrations ------------------------------------------------------


def _run_cpu(monkeypatch, reference, seed):
    monkeypatch.setattr(host_cpu, "HostCore", RefHostCore if reference else HostCore)
    system = HostCPUSystem(SystemConfig.named("8D-4C"))
    sim = system.sim
    sim.trace = TraceRecorder(sim, max_events=1 << 20)
    log = []
    _record(log, sim, system, ("memory_request",), "cpu")
    pagetable = PageTable(NextTouchPolicy(), 8)
    result = system.run(_programs(seed, 16, 8, broadcast_rate=0.0), pagetable=pagetable)
    return _observed(sim, system.stats, result, log)


@pytest.mark.parametrize("seed", [2, 9])
def test_cpu_migrations_match_generator_process(monkeypatch, seed):
    got = _run_cpu(monkeypatch, False, seed)
    _assert_twins(got, _run_cpu(monkeypatch, True, seed))
    assert _counter(got, "placement.migrations") > 0


# -- disaggregated inter-blade transfers -----------------------------------------------


def _run_disaggregated(reference, seed, dead_link=False):
    cluster = DisaggregatedMemory(num_blades=2, blade_config="8D-4C", fabric_name="cxl")
    sim = cluster.sim
    sim.trace = TraceRecorder(sim, max_events=1 << 20)
    if reference:
        _as_reference(cluster)
        for blade in cluster.blades:
            _reference_system(blade)
    if dead_link:
        # a dead link the watchdog never declares: a DL leg exhausts its
        # retries and the transfer's failure leaves the event loop
        blade = cluster.blades[0]
        blade.idc.bridge.fail_link_between(1, 2)
        for network in blade.idc.bridge.networks:
            network.watchdog.threshold = 1 << 62
    log = []
    _record(log, sim, cluster, ("transfer",), "disagg")
    for blade in cluster.blades:
        _instrument(log, blade)
    rng = random.Random(seed)
    dimms = 2 * cluster.dimms_per_blade
    for _ in range(24):
        src, dst = rng.randrange(dimms), rng.randrange(dimms)
        nbytes = rng.choice((64, 2100, 9000, 65536))
        sim.schedule(
            rng.choice((0, 0, 3_000, 50_000)),
            lambda _arg, a=src, b=dst, n=nbytes: cluster.transfer(a, b, n),
        )
    try:
        sim.run()
        raised = None
    except LinkFailure as exc:
        raised = str(exc)
    return {
        "raised": raised,
        "stats": cluster.stats.to_json_dict(),
        "stat_order": list(cluster.stats.counters()),
        "spans": sim.trace.spans,
        "instants": sim.trace.instants,
        "now": sim.now,
        "seq": sim._seq,
        "log": log,
    }


@pytest.mark.parametrize("dead_link", [False, True])
@pytest.mark.parametrize("seed", [1, 4])
def test_inter_blade_transfers_match_generator_process(seed, dead_link):
    got = _run_disaggregated(False, seed, dead_link)
    _assert_twins(got, _run_disaggregated(True, seed, dead_link))
    if dead_link:
        assert got["raised"] and "gave up" in got["raised"]
    else:
        assert got["raised"] is None
        assert _counter(got, "disagg.inter_blade_bytes") > 0
