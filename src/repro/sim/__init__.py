"""Discrete-event simulation kernel (engine, time units, resources, stats)."""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Join,
    Process,
    SimEvent,
    Simulator,
    StallWatchdog,
    active_watchdog,
    clear_watchdog,
    install_watchdog,
)
from repro.sim.resource import BandwidthResource, SlotResource
from repro.sim.stats import Histogram, StatRegistry
from repro.sim import time

__all__ = [
    "AllOf",
    "AnyOf",
    "Join",
    "Process",
    "SimEvent",
    "Simulator",
    "StallWatchdog",
    "active_watchdog",
    "clear_watchdog",
    "install_watchdog",
    "BandwidthResource",
    "SlotResource",
    "Histogram",
    "StatRegistry",
    "time",
]
