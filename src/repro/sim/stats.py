"""Statistics collection for simulation runs.

A :class:`StatRegistry` is a flat namespace of named counters plus named
histograms.  Components take a registry (or create a scoped child via
:meth:`StatRegistry.scope`) and record events; experiment harnesses read
the totals afterwards.

Registries and histograms serialize to plain JSON dicts
(:meth:`StatRegistry.to_json_dict` / :meth:`StatRegistry.from_json_dict`)
so finished runs can be persisted by the results cache and compared
byte-for-byte across processes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple


def _extremum(value: object) -> Optional[float]:
    """A loaded ``min``/``max``, kept as the JSON number it was.

    :meth:`Histogram.record` keeps int samples as ints, so casting to
    ``float`` here would make a reloaded result serialize differently
    from the fresh one (``4321193.0`` for ``4321193``).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, type(None))):
        raise TypeError(f"histogram extremum must be a number, got {value!r}")
    return value


class Histogram:
    """A streaming histogram tracking count/sum/min/max and log2 buckets."""

    #: bucket holding all non-positive samples.  floor(log2(x)) of the
    #: smallest positive float is -1074, so this can never collide with a
    #: genuine log2 bucket (values in (0, 1) land in buckets -1074..-1).
    NONPOS_BUCKET = -1075

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= 0:
            bucket = self.NONPOS_BUCKET
        else:
            bucket = int(math.floor(math.log2(value)))
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int]]:
        """Sorted (log2-bucket, count) pairs."""
        return sorted(self._buckets.items())

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (bucket keys as a sorted pair list)."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [[bucket, count] for bucket, count in self.buckets()],
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_json_dict` output."""
        hist = cls(str(data["name"]))
        hist.count = int(data["count"])  # type: ignore[arg-type]
        hist.total = float(data["total"])  # type: ignore[arg-type]
        hist.min = _extremum(data["min"])
        hist.max = _extremum(data["max"])
        hist._buckets = {int(bucket): int(count) for bucket, count in data["buckets"]}  # type: ignore[union-attr]
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.name == other.name
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and self._buckets == other._buckets
        )

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.2f}, "
            f"min={self.min}, max={self.max})"
        )


class StatRegistry:
    """Named counters and histograms with optional hierarchical prefixes."""

    def __init__(self, prefix: str = "") -> None:
        self._prefix = prefix
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _key(self, name: str) -> str:
        return f"{self._prefix}{name}" if self._prefix else name

    def scope(self, prefix: str) -> "StatRegistry":
        """A view that writes into this registry under ``prefix.``."""
        child = StatRegistry.__new__(StatRegistry)
        child._prefix = self._key(prefix) + "."
        child._counters = self._counters
        child._histograms = self._histograms
        return child

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        key = self._key(name)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set(self, name: str, value: float) -> None:
        """Set counter ``name`` to ``value`` (overwrites)."""
        self._counters[self._key(name)] = value

    def max(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value`` if larger."""
        key = self._key(name)
        self._counters[key] = max(self._counters.get(key, value), value)

    def get(self, name: str, default: float = 0.0) -> float:
        """Read counter ``name`` (checked against this scope's prefix)."""
        return self._counters.get(self._key(name), default)

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the histogram named ``name``."""
        key = self._key(name)
        hist = self._histograms.get(key)
        if hist is None:
            hist = Histogram(key)
            self._histograms[key] = hist
        return hist

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Snapshot of all counters under ``prefix``.

        Matching is on whole dotted components: prefix ``"dl"`` selects the
        counter ``"dl"`` itself and everything under ``"dl."``, but not
        ``"dlx.foo"``.  A prefix already ending in ``"."`` (including the
        implicit one of a scoped registry) selects everything under it.
        """
        full = self._key(prefix)
        if not full:
            return dict(self._counters)
        if full.endswith("."):
            return {
                k: v for k, v in self._counters.items() if k.startswith(full)
            }
        dotted = full + "."
        return {
            k: v
            for k, v in self._counters.items()
            if k == full or k.startswith(dotted)
        }

    def sum(self, prefix: str) -> float:
        """Sum of every counter under ``prefix``.

        Sorted-key summation order, for the same round-trip stability
        reason as :meth:`sum_suffix`.
        """
        return sum(v for _, v in sorted(self.counters(prefix).items()))

    @staticmethod
    def _suffix_match(key: str, suffix: str, dotted: str) -> bool:
        """Whole-dotted-component suffix match: ``suffix`` itself or
        ``*.suffix`` — never a mid-component substring.  ``apsp.rounds``
        therefore matches suffix ``apsp.rounds`` but NOT suffix
        ``p.rounds`` (the aliasing footgun :meth:`counters` already
        guards against on the prefix side)."""
        return key == suffix or key.endswith(dotted)

    def sum_suffix(self, suffix: str) -> float:
        """Sum of every counter (any scope) whose name ends with ``suffix``.

        Used to aggregate per-component counters such as
        ``dimm3.core.busy_ps`` across the whole system.  Matching is on
        whole dotted components (``core.busy_ps`` or ``*.core.busy_ps``),
        so one namespace can never alias a substring of another (e.g.
        suffix ``sp.bytes`` must not absorb ``apsp.bytes``).  Summation
        runs in sorted-key order so the aggregate is insertion-order
        independent: a registry rebuilt from JSON (sorted keys) yields
        the exact same float as the live registry it was serialized from.
        """
        dotted = "." + suffix
        return sum(
            v
            for k, v in sorted(self._counters.items())
            if self._suffix_match(k, suffix, dotted)
        )

    def histograms_suffix(self, suffix: str) -> Dict[str, Histogram]:
        """Every histogram (any scope) named ``suffix``, sorted by key.

        Same whole-component matching as :meth:`sum_suffix`; used to
        aggregate per-core latency histograms (e.g. every
        ``dimm*.dlrm.batch_ps``) into system-wide percentiles.
        """
        dotted = "." + suffix
        return {
            k: self._histograms[k]
            for k in sorted(self._histograms)
            if self._suffix_match(k, suffix, dotted)
        }

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of every counter and histogram.

        Scoped views share their parent's storage, so serializing any
        scope captures the whole registry; deserialization always yields
        a root (prefix-less) registry.
        """
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": {
                k: self._histograms[k].to_json_dict()
                for k in sorted(self._histograms)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "StatRegistry":
        """Rebuild a root registry from :meth:`to_json_dict` output."""
        registry = cls()
        registry._counters = {
            str(k): float(v) for k, v in data["counters"].items()  # type: ignore[union-attr]
        }
        registry._histograms = {
            str(k): Histogram.from_json_dict(v)  # type: ignore[arg-type]
            for k, v in data["histograms"].items()  # type: ignore[union-attr]
        }
        return registry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatRegistry):
            return NotImplemented
        return (
            self._prefix == other._prefix
            and self._counters == other._counters
            and self._histograms == other._histograms
        )

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._counters.items()))

    def __repr__(self) -> str:
        return f"StatRegistry({len(self._counters)} counters)"
