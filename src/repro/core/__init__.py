"""DIMM-Link itself: bridge, controller, hybrid routing, sync, SerDes."""

from repro.core.bridge import DLBridge
from repro.core.controller import DLController, DLControllerTiming
from repro.core.dimmlink import DIMMLinkIDC
from repro.core.routing import distance
from repro.core.serdes import GRS, RIBBON_CABLE, SMA_CABLE, SerDesTech, table2, tech
from repro.core.sync import SYNC_MODES, SyncManager

__all__ = [
    "DLBridge",
    "DLController",
    "DLControllerTiming",
    "DIMMLinkIDC",
    "distance",
    "GRS",
    "RIBBON_CABLE",
    "SMA_CABLE",
    "SerDesTech",
    "table2",
    "tech",
    "SYNC_MODES",
    "SyncManager",
]
