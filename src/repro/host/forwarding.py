"""Host forwarding controller (FWD Controller, Fig. 6 ❽).

Moves packets from one DIMM's packet buffer to another's through the host.
Following the paper's methodology — "we view the host CPU as a routing
node that takes certain cycles to forward a packet" (Sec. V-B) — the host
is modelled as a pipelined forwarding engine: every forwarded packet pays
a fixed GEM5-profiled latency, while sustained throughput is bounded by
the engine's copy bandwidth and a per-packet processing floor, plus the
source/destination channel buses the data must cross.  The engine is
shared by all forwards, so heavy CPU-forwarded traffic queues — the core
inefficiency of CPU-forwarded IDC (Sec. II-B).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.host.memchannel import MemoryChannel
from repro.host.polling import PollingStrategy
from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

#: sustained host copy bandwidth for forwarding (memcpy through LLC).
ENGINE_GBPS = 18.0
#: per-packet processing floor (decode DST, manage buffers).
ENGINE_PER_OP_NS = 5.0


class ForwardController:
    """Host-side packet forwarding between DIMMs."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        channels: List[MemoryChannel],
        polling: PollingStrategy,
        stats: StatRegistry,
        engine_gbps: float = ENGINE_GBPS,
    ) -> None:
        self.sim = sim
        self.config = config
        self.channels = channels
        self.polling = polling
        self.stats = stats
        self.engine = BandwidthResource(
            sim,
            bytes_per_ns=engine_gbps,
            latency_ps=ns(config.host.forward_latency_ns),
            name="host.fwd.engine",
        )
        # per-op engine cost in ps, converted once instead of per forward
        self._per_op_ps = ns(ENGINE_PER_OP_NS)

    def forward(
        self,
        src_dimm: int,
        dst_dimm: int,
        wire_bytes: int,
        notice_dimm: Optional[int] = None,
    ) -> SimEvent:
        """Forward ``wire_bytes`` of packets from ``src_dimm`` to ``dst_dimm``.

        ``notice_dimm`` is the DIMM whose request register triggers host
        attention (defaults to the source).  Pass ``notice_dimm=-1`` to skip
        the polling delay — used for response packets the host already
        expects after forwarding the matching request.
        """
        done = self.sim.event(name="host.fwd")
        self.sim.schedule(
            0, self._start, (src_dimm, dst_dimm, wire_bytes, notice_dimm, done)
        )
        return done

    # One forward is a chain of callbacks, one per simulator slot: wait for
    # the host to notice the request, then read the packet over the source
    # channel, pass it through the routing-node engine (per-packet cost +
    # copy bandwidth + the fixed GEM5-profiled latency, pipelined), and
    # write it over the destination channel.  Polling notices and bus
    # transfers only ever succeed, so no step checks for a failed event.

    def _start(self, request) -> None:
        src_dimm, dst_dimm, wire_bytes, notice_dimm, done = request
        trace = self.sim.trace
        span = (
            trace.begin(
                "host",
                "forward",
                "host.fwd",
                src=src_dimm,
                dst=dst_dimm,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )
        forward = (src_dimm, dst_dimm, wire_bytes, done, self.sim.now, span)
        if notice_dimm == -1:
            self._read_source(forward)
            return
        self.polling.notice(
            src_dimm if notice_dimm is None else notice_dimm
        ).then(self._read_source, forward)

    def _read_source(self, forward) -> None:
        channel = self.channels[self.config.channel_of(forward[0])]
        channel.transfer(forward[2], kind="fwd").then(self._copy, forward)

    def _copy(self, forward) -> None:
        self.engine.transfer(forward[2], extra_ps=self._per_op_ps).then(
            self._write_destination, forward
        )

    def _write_destination(self, forward) -> None:
        channel = self.channels[self.config.channel_of(forward[1])]
        channel.transfer(forward[2], kind="fwd").then(self._finish, forward)

    def _finish(self, forward) -> None:
        _src, _dst, wire_bytes, done, start, span = forward
        self.stats.add("fwd.ops")
        self.stats.add("fwd.bytes", wire_bytes)
        self.stats.histogram("fwd.latency_ns").record((self.sim.now - start) / 1000)
        self.sim.trace.end(span)
        done.succeed(wire_bytes)
