"""Tracing and time-series observability (recorder, sampler, exporters)."""

from repro.trace.export import chrome_trace_events, write_chrome_trace, write_jsonl
from repro.trace.recorder import NULL_RECORDER, NullRecorder, Span, TraceRecorder
from repro.trace.sampler import TimeSeriesSampler

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "TraceRecorder",
    "TimeSeriesSampler",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
]
