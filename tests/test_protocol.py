"""Tests for the DL protocol stack (packet codec and CRC)."""

import zlib

import pytest

from repro.errors import ProtocolError
from repro.protocol import (
    MAX_PAYLOAD,
    Command,
    Packet,
    crc32,
    iter_packets,
    segment_payload,
    wire_bytes_for_transfer,
)


# -- CRC ------------------------------------------------------------------

def test_crc32_matches_zlib_golden():
    for data in [b"", b"a", b"hello world", bytes(range(256)) * 3]:
        assert crc32(data) == zlib.crc32(data)


def test_crc32_detects_single_bit_flip():
    data = b"dimm-link packet payload"
    reference = crc32(data)
    corrupted = bytes([data[0] ^ 0x40]) + data[1:]
    assert crc32(corrupted) != reference


# -- packet codec -----------------------------------------------------------

def test_packet_encode_decode_round_trip():
    packet = Packet(
        src=3, dst=12, cmd=Command.WRITE_REQ, addr=0xABCDE, tag=77,
        payload=b"\x11" * 48,
    )
    decoded = Packet.decode(packet.encode())
    assert (decoded.src, decoded.dst) == (3, 12)
    assert decoded.cmd == Command.WRITE_REQ
    assert decoded.addr == 0xABCDE
    assert decoded.tag == 77
    assert decoded.payload == b"\x11" * 48


def test_packet_decode_rejects_corruption():
    wire = bytearray(Packet(src=1, dst=2, cmd=Command.READ_REQ).encode())
    wire[4] ^= 0x01
    with pytest.raises(ProtocolError):
        Packet.decode(bytes(wire))


def test_read_request_is_single_flit():
    packet = Packet(src=0, dst=1, cmd=Command.READ_REQ, addr=0x1000)
    assert packet.payload_flits == 0
    assert packet.total_flits == 1
    assert packet.wire_bytes == 16


def test_max_payload_is_32_flits():
    packet = Packet.sized(0, 1, Command.WRITE_REQ, MAX_PAYLOAD)
    assert packet.payload_flits == 32
    assert packet.total_flits == 33


def test_oversized_payload_rejected():
    with pytest.raises(ProtocolError):
        Packet.sized(0, 1, Command.WRITE_REQ, MAX_PAYLOAD + 1)


def test_field_range_validation():
    with pytest.raises(ProtocolError):
        Packet(src=32, dst=0, cmd=Command.READ_REQ)
    with pytest.raises(ProtocolError):
        Packet(src=0, dst=0, cmd=Command.READ_REQ, addr=1 << 37)
    with pytest.raises(ProtocolError):
        Packet(src=0, dst=0, cmd=Command.READ_REQ, tag=256)


def test_broadcast_flag():
    assert Packet(src=0, dst=31, cmd=Command.READ_REQ).is_broadcast
    assert Packet(src=0, dst=1, cmd=Command.BROADCAST).is_broadcast
    assert not Packet(src=0, dst=1, cmd=Command.READ_REQ).is_broadcast


def test_segment_payload_shapes():
    assert segment_payload(0) == [0]
    assert segment_payload(100) == [100]
    assert segment_payload(256) == [256]
    assert segment_payload(600) == [256, 256, 88]
    with pytest.raises(ProtocolError):
        segment_payload(-1)


def test_wire_bytes_includes_per_packet_overhead():
    # 256 B payload -> 33 flits -> 528 wire bytes
    assert wire_bytes_for_transfer(256) == 33 * 16
    # two packets cost two headers
    assert wire_bytes_for_transfer(512) == 2 * 33 * 16


def test_iter_packets_offsets():
    chunks = list(iter_packets(0, 1, Command.WRITE_REQ, 600))
    assert [offset for offset, _ in chunks] == [0, 256, 512]
    assert [p.payload_bytes for _, p in chunks] == [256, 256, 88]
