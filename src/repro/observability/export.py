"""Exporter for a :class:`~repro.observability.tracer.Tracer`.

:func:`write_span_log` writes JSON lines, one span per line, closed by a
``trace_summary`` trailer record carrying the span/unclosed/dropped counts
and the full metrics snapshot.  This is the interchange format read by
``scripts/trace_report.py`` and the CI smoke legs, which also print the
per-name aggregation (count, total, self-time) that :func:`self_times`
computes in-process.
"""
from __future__ import annotations

import json
from typing import Any, Iterable, TextIO

from .metrics import peak_rss_bytes
from .tracer import Span, Tracer

__all__ = ["trace_summary_record", "write_span_log", "self_times"]


def trace_summary_record(tracer: Tracer) -> dict[str, Any]:
    """The trailer appended to a span log: integrity counts + metrics.

    Samples this process's peak RSS into the ``peak_rss_bytes`` gauge
    first (worker peaks were folded in at absorb time), so the trailer's
    metrics carry the run's memory high-water mark."""
    peak = peak_rss_bytes()
    if peak is not None:
        tracer.metrics.gauge("peak_rss_bytes", peak)
    return {
        "trace_summary": True,
        "spans": len(tracer.spans),
        "unclosed_spans": tracer.open_spans,
        "dropped_spans": tracer.dropped_spans,
        "metrics": tracer.metrics.snapshot(),
    }


def write_span_log(tracer: Tracer, target: str | TextIO) -> None:
    """Write the JSON-lines span log (spans first, trailer last)."""
    def _write(handle: TextIO) -> None:
        for span in tracer.spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
        handle.write(json.dumps(trace_summary_record(tracer), sort_keys=True))
        handle.write("\n")

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            _write(handle)
    else:
        _write(target)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self-time (duration minus directly-nested child time) per span id.

    Works on absorbed worker spans too since parent links survive the
    id remap.  Negative rounding residue is clamped to zero.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration)
    return {
        span.span_id: max(0.0, span.duration - child_time.get(span.span_id, 0.0))
        for span in spans
    }
