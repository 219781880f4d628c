"""Transaction-level DDR4 DRAM model (timing, banks, ranks, modules)."""

from repro.dram.address import (
    ADDR_BITS,
    LINE_BYTES,
    AddressMap,
    Location,
    decode_global,
    encode_global,
)
from repro.dram.bank import ROW_CONFLICT, ROW_HIT, ROW_MISS, Bank, Rank
from repro.dram.module import BULK_THRESHOLD, DRAMModule
from repro.dram.timing import (
    DDR4_2400_LRDIMM,
    DDR4_2666_RDIMM,
    DDR4_3200_RDIMM,
    DRAMTiming,
    preset,
    presets,
)

__all__ = [
    "ADDR_BITS",
    "LINE_BYTES",
    "AddressMap",
    "Location",
    "decode_global",
    "encode_global",
    "ROW_CONFLICT",
    "ROW_HIT",
    "ROW_MISS",
    "Bank",
    "Rank",
    "BULK_THRESHOLD",
    "DRAMModule",
    "DDR4_2400_LRDIMM",
    "DDR4_2666_RDIMM",
    "DDR4_3200_RDIMM",
    "DRAMTiming",
    "preset",
    "presets",
]
