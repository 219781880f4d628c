"""Host polling strategies (Sec. IV-A, Table III).

The host learns about pending forwarding requests in one of four ways:

* ``baseline`` — a polling thread continuously scans *every* DIMM's
  request register.  Polls occupy the memory buses whether or not any
  request exists, so each channel carries a constant background load.
* ``baseline+interrupt`` — DIMMs raise ALERT_N; the host then scans all
  DIMMs of the interrupting channel.  No background load, but every event
  pays interrupt delivery + context-switch latency.
* ``proxy`` — requests are registered (via DIMM-Link) at one proxy DIMM
  per DL group; the host only polls proxies, on a relaxed repoll period.
* ``proxy+interrupt`` — ALERT_N plus a single proxy read per event.

Each strategy exposes :meth:`notice` — an event firing once the host has
noticed a request registered *now* at a DIMM — and configures whatever
constant bus load its scanning causes.  The strategy object is shared by
every IDC mechanism that relies on CPU forwarding.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple

from repro.config import HostConfig, SystemConfig
from repro.errors import ConfigError
from repro.host.memchannel import MemoryChannel
from repro.sim.engine import SimEvent, Simulator
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

POLLING_STRATEGIES = ("baseline", "baseline+interrupt", "proxy", "proxy+interrupt")


class PollingStrategy(Protocol):
    """Interface every polling strategy implements."""

    name: str
    #: whether requests must first be registered at the group proxy.
    uses_proxy: bool

    def configure(self, channels: List[MemoryChannel]) -> None:
        """Apply background bus loads / capture channel handles."""

    def notice(self, dimm_id: int) -> SimEvent:
        """Event firing when the host notices a request registered now."""


class _Base:
    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatRegistry,
    ) -> None:
        self.sim = sim
        self.config = config
        self.host: HostConfig = config.host
        self.stats = stats
        self.channels: List[MemoryChannel] = []
        # notice() runs on every forwarded packet: convert the configured
        # nanosecond knobs to picoseconds once
        self._visit_ps = ns(self.host.poll_visit_ns)
        self._interrupt_ps = ns(self.host.interrupt_latency_ns)
        self._repoll_ps = ns(self.host.proxy_repoll_ns)

    def configure(self, channels: List[MemoryChannel]) -> None:
        self.channels = list(channels)

    def _fire_after(self, delay_ps: int) -> SimEvent:
        event = self.sim.event(name="poll.notice")
        self.sim.schedule(delay_ps, event.succeed, None)
        self.stats.add("poll.notices")
        self.stats.histogram("poll.notice_delay_ns").record(delay_ps / 1000)
        if self.sim.trace.enabled:
            self.sim.trace.instant(
                "host", "poll.notice", "host.poll", delay_ps=delay_ps
            )
        return event

    # An interrupt-driven notice is a callback chain over ``[dimm, channel,
    # register reads left, done]``: the interrupt latency, then the scan's
    # register reads over the channel one by one.

    def _interrupt(self, scan) -> None:
        self.sim.schedule(self._interrupt_ps, self._scan, scan)

    def _scan(self, scan) -> None:
        if scan[2]:
            scan[2] -= 1
            scan[1].transfer(self.host.poll_read_bytes, kind="poll").then(
                self._scanned, scan
            )
            return
        self.stats.add("poll.notices")
        if self.sim.trace.enabled:
            self.sim.trace.instant("host", "poll.interrupt", "host.poll", dimm=scan[0])
        scan[3].succeed(None)

    def _scanned(self, scan) -> None:
        self.stats.add("poll.scan_reads")
        self._scan(scan)


class BaselinePolling(_Base):
    """Continuous per-channel scan of all DIMM request registers.

    Every channel's polling loop reads one of its DIMMs every
    ``poll_visit_ns`` (channels poll in parallel through the MC queues), so
    each bus carries a constant ``poll_busy / poll_visit`` polling load —
    the ~32% "Base" occupancy of Fig. 15-(b) — regardless of DIMM count.
    """

    name = "baseline"
    uses_proxy = False

    def __init__(self, sim: Simulator, config: SystemConfig, stats: StatRegistry) -> None:
        super().__init__(sim, config, stats)
        #: dimm_id -> (k*visit, loop) for its channel's round-robin scan.
        self._scan_slots: Dict[int, Tuple[int, int]] = {}

    def configure(self, channels: List[MemoryChannel]) -> None:
        super().configure(channels)
        visit = self._visit_ps
        busy = ns(self.host.poll_busy_ns)
        for channel in channels:
            channel.set_polling_load(min(0.95, busy / visit))

    def notice(self, dimm_id: int) -> SimEvent:
        visit = self._visit_ps
        slot = self._scan_slots.get(dimm_id)
        if slot is None:
            dimms_here = self.config.dimms_on_channel(
                self.config.channel_of(dimm_id)
            )
            slot = self._scan_slots[dimm_id] = (
                dimms_here.index(dimm_id) * visit,
                visit * len(dimms_here),
            )
        # round-robin within the channel: DIMM at index k is visited at
        # t = k*visit (mod loop)
        phase = (slot[0] - self.sim.now) % slot[1]
        return self._fire_after(phase + visit)


class InterruptPolling(_Base):
    """ALERT_N interrupt, then a scan of the interrupting channel."""

    name = "baseline+interrupt"
    uses_proxy = False

    def notice(self, dimm_id: int) -> SimEvent:
        channel = self.channels[self.config.channel_of(dimm_id)]
        done = self.sim.event(name="poll.notice")
        # ALERT_N is shared: scan every DIMM on the channel to find the
        # requester (Sec. IV-A)
        self.sim.schedule(
            0, self._interrupt, [dimm_id, channel, len(channel.dimm_ids), done]
        )
        return done


class ProxyPolling(_Base):
    """Poll only the proxy DIMM of each DL group (Sec. IV-A)."""

    name = "proxy"
    uses_proxy = True

    def __init__(self, sim: Simulator, config: SystemConfig, stats: StatRegistry) -> None:
        super().__init__(sim, config, stats)
        self._proxies: Dict[int, int] = {
            g: config.master_dimm(g) for g in range(len(config.groups))
        }

    def proxy_of(self, dimm_id: int) -> int:
        """The proxy DIMM for a DIMM's group."""
        return self._proxies[self.config.group_of(dimm_id)]

    def configure(self, channels: List[MemoryChannel]) -> None:
        super().configure(channels)
        busy = ns(self.host.poll_busy_ns)
        repoll = self._repoll_ps
        for proxy in self._proxies.values():
            channel = channels[self.config.channel_of(proxy)]
            channel.set_polling_load(min(0.95, busy / repoll))

    def notice(self, dimm_id: int) -> SimEvent:
        proxy = self.proxy_of(dimm_id)
        group = self.config.group_of(proxy)
        # proxies are visited on a staggered repoll schedule
        phase = (group * self._visit_ps - self.sim.now) % self._repoll_ps
        return self._fire_after(phase + self._visit_ps)


class ProxyInterruptPolling(ProxyPolling):
    """ALERT_N interrupt plus a single proxy read (lowest bus cost)."""

    name = "proxy+interrupt"
    uses_proxy = True

    def configure(self, channels: List[MemoryChannel]) -> None:
        _Base.configure(self, channels)  # no background load

    def notice(self, dimm_id: int) -> SimEvent:
        proxy = self.proxy_of(dimm_id)
        channel = self.channels[self.config.channel_of(proxy)]
        done = self.sim.event(name="poll.notice")
        self.sim.schedule(0, self._interrupt, [dimm_id, channel, 1, done])
        return done


def make_polling(
    strategy: str, sim: Simulator, config: SystemConfig, stats: StatRegistry
) -> PollingStrategy:
    """Factory over :data:`POLLING_STRATEGIES` names."""
    classes = {
        "baseline": BaselinePolling,
        "baseline+interrupt": InterruptPolling,
        "proxy": ProxyPolling,
        "proxy+interrupt": ProxyInterruptPolling,
    }
    try:
        cls = classes[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown polling strategy {strategy!r}; choose from {POLLING_STRATEGIES}"
        ) from None
    return cls(sim, config, stats)
