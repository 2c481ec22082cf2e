"""Tracing and metrics for the verification pipeline.

The subsystem answers "why was this sweep slow" and "where did fallback
bite" without ad-hoc prints: instrumented hot paths (engine dispatch,
CSR compilation, kernel phases, view materialisation, interactive
rounds, trial fan-out) open nested spans on the process-wide tracer,
and counters/timings aggregate in a :class:`MetricsRegistry` that also
backs ``engine.backend_counters``.

Tracing is **off by default** and the disabled path costs a single flag
check per call site (see :data:`~repro.observability.tracer.NULL_SPAN`).
Typical use::

    from repro.observability import start_tracing, stop_tracing, write_span_log

    tracer = start_tracing()
    ...  # any engine / benchmark work
    stop_tracing()
    write_span_log(tracer, "spans.jsonl")   # scripts/trace_report.py reads this

See docs/OBSERVABILITY.md for the span taxonomy, the attribute schema,
and the span-log format.
"""
from .metrics import BUCKET_BOUNDS, MetricsRegistry, TimingStat
from .tracer import (NULL_SPAN, Span, Tracer, current, install,
                     start_tracing, stop_tracing)
from .export import self_times, trace_summary_record, write_span_log

__all__ = [
    "BUCKET_BOUNDS", "MetricsRegistry", "TimingStat",
    "NULL_SPAN", "Span", "Tracer",
    "current", "install", "start_tracing", "stop_tracing",
    "self_times", "trace_summary_record", "write_span_log",
]
