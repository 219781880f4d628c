"""Discrete-event simulation kernel (engine, time units, resources, stats)."""

from repro.sim.engine import Join, SimEvent, Simulator
from repro.sim.resource import BandwidthResource, SlotResource
from repro.sim.stats import Histogram, StatRegistry
from repro.sim import time

__all__ = [
    "Join",
    "SimEvent",
    "Simulator",
    "BandwidthResource",
    "SlotResource",
    "Histogram",
    "StatRegistry",
    "time",
]
