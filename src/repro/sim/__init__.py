"""Discrete-event simulation kernel (engine, time units, resources, stats)."""

from repro.sim.engine import (
    Join,
    SimEvent,
    Simulator,
    StallWatchdog,
    clear_watchdog,
    install_watchdog,
)
from repro.sim.resource import BandwidthResource, SlotResource
from repro.sim.stats import Histogram, StatRegistry
from repro.sim import time

__all__ = [
    "Join",
    "SimEvent",
    "Simulator",
    "StallWatchdog",
    "clear_watchdog",
    "install_watchdog",
    "BandwidthResource",
    "SlotResource",
    "Histogram",
    "StatRegistry",
    "time",
]
