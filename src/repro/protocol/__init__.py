"""DIMM-Link packet protocol (Fig. 3): packets and CRC."""

from repro.protocol.crc import check, crc32
from repro.protocol.packet import (
    BROADCAST_DST,
    FLIT_BYTES,
    MAX_PAYLOAD,
    MAX_PAYLOAD_FLITS,
    PAYLOAD_PER_FLIT,
    Command,
    Packet,
    iter_packets,
    segment_payload,
    wire_bytes_for_transfer,
)

__all__ = [
    "check",
    "crc32",
    "BROADCAST_DST",
    "FLIT_BYTES",
    "MAX_PAYLOAD",
    "MAX_PAYLOAD_FLITS",
    "PAYLOAD_PER_FLIT",
    "Command",
    "Packet",
    "iter_packets",
    "segment_payload",
    "wire_bytes_for_transfer",
]
