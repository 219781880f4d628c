"""Time and bandwidth units for the simulator.

The global simulation clock counts integer **picoseconds**.  Integer time
keeps the event queue deterministic (no float tie-break jitter) while still
resolving sub-nanosecond transfers (a 16-byte flit on a 25 GB/s link lasts
640 ps).

Conventions used throughout the library:

* durations and timestamps: ``int`` picoseconds,
* bandwidths: ``float`` bytes per nanosecond — numerically equal to the
  bandwidth in GB/s (1 GB/s = 1e9 B / 1e9 ns = 1 B/ns), which makes configs
  read exactly like the paper ("25 GB/s per link" -> ``25.0``).
"""

from __future__ import annotations

import math

#: One picosecond (the base unit).
PS: int = 1
#: Picoseconds per nanosecond.
NS: int = 1_000
#: Picoseconds per microsecond.
US: int = 1_000_000
#: Picoseconds per millisecond.
MS: int = 1_000_000_000
#: Picoseconds per second.
S: int = 1_000_000_000_000


def ps(value: float) -> int:
    """Convert a picosecond quantity to integer picoseconds."""
    return int(round(value))


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(value * NS))


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return int(round(value * US))


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return int(round(value * MS))


def to_ns(time_ps: int) -> float:
    """Convert integer picoseconds back to (float) nanoseconds."""
    return time_ps / NS


def to_us(time_ps: int) -> float:
    """Convert integer picoseconds back to (float) microseconds."""
    return time_ps / US


def to_ms(time_ps: int) -> float:
    """Convert integer picoseconds back to (float) milliseconds."""
    return time_ps / MS


def to_s(time_ps: int) -> float:
    """Convert integer picoseconds back to (float) seconds."""
    return time_ps / S


def cycles(n: float, freq_ghz: float) -> int:
    """Duration of ``n`` clock cycles at ``freq_ghz`` GHz, in picoseconds."""
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    return int(round(n * 1_000 / freq_ghz))


def gbps(value: float) -> float:
    """Bandwidth in GB/s expressed as bytes-per-nanosecond (identity)."""
    if value <= 0:
        raise ValueError(f"bandwidth must be positive, got {value}")
    return float(value)


def transfer_ps(nbytes: int, bytes_per_ns: float) -> int:
    """Time to push ``nbytes`` through a ``bytes_per_ns`` medium, in ps.

    Rounds up so a transfer never takes zero time.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    if bytes_per_ns <= 0:
        raise ValueError(f"bandwidth must be positive, got {bytes_per_ns}")
    if nbytes == 0:
        return 0
    return max(1, math.ceil(nbytes * NS / bytes_per_ns))


def bandwidth_gbps(nbytes: int, duration_ps: int) -> float:
    """Achieved bandwidth in GB/s for ``nbytes`` moved in ``duration_ps``."""
    if duration_ps <= 0:
        raise ValueError(f"duration must be positive, got {duration_ps}")
    return nbytes * NS / duration_ps / 1.0


def fmt(time_ps: int) -> str:
    """Human-readable rendering of a picosecond timestamp/duration."""
    if time_ps >= S:
        return f"{time_ps / S:.3f}s"
    if time_ps >= MS:
        return f"{time_ps / MS:.3f}ms"
    if time_ps >= US:
        return f"{time_ps / US:.3f}us"
    if time_ps >= NS:
        return f"{time_ps / NS:.3f}ns"
    return f"{time_ps}ps"
