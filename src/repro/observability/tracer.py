"""Nested-span tracer with a near-zero-cost disabled path.

Design constraints (see docs/OBSERVABILITY.md for the full contract):

* **Disabled is the default and must stay near-free.**  Instrumented
  hot paths run on every single verification call, so the disabled
  branch is exactly one attribute load plus one truthiness check:
  ``Tracer.span`` returns the module-level :data:`NULL_SPAN` singleton
  without allocating anything.  Attribute construction at call sites is
  deferred behind the span's truthiness (``if sp: sp.set(...)``) so the
  disabled path never even builds the kwargs dict.
* **Balanced nesting by construction.**  Spans are context managers;
  the per-tracer stack is pushed in ``__enter__`` and popped in
  ``__exit__``, so early returns and exceptions inside a ``with`` block
  cannot leak an open span.  ``Tracer.open_spans`` exposes the live
  stack depth for the balance tests and the span-log trailer.
* **Single-threaded per tracer.**  One tracer belongs to one process
  (worker processes install their own fresh tracer); there is no
  locking.  Cross-process merge goes through plain-data payloads, never
  shared state -- see :meth:`Tracer.absorb`.

Durations use :func:`time.perf_counter`; the tracer pins the epoch at
construction so exported timestamps are small relative offsets.
"""
from __future__ import annotations

from time import perf_counter
from typing import Any

from .metrics import MetricsRegistry, peak_rss_bytes

__all__ = [
    "Span", "Tracer", "NULL_SPAN",
    "current", "install", "start_tracing", "stop_tracing",
]


class _NullSpan:
    """Inert stand-in returned by a disabled tracer.

    Falsy, so ``if sp: sp.set(...)`` skips attribute construction
    entirely; every method is a no-op returning the singleton itself.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<null span>"


NULL_SPAN = _NullSpan()


class Span:
    """One timed region.  Created by :meth:`Tracer.span`, finalised on
    ``__exit__``; ids/parents are assigned at entry so nesting reflects
    actual runtime containment."""

    __slots__ = ("tracer", "name", "span_id", "parent_id",
                 "start", "end", "attributes", "worker")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = -1
        self.parent_id: int | None = None
        self.start = 0.0
        self.end: float | None = None
        self.attributes: dict[str, Any] | None = None
        self.worker: int | None = None

    def __bool__(self) -> bool:
        return True

    def set(self, **attributes: Any) -> "Span":
        if self.attributes is None:
            self.attributes = attributes
        else:
            self.attributes.update(attributes)
        return self

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack.append(self)
        self.start = perf_counter() - tracer.epoch
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.end = perf_counter() - self.tracer.epoch
        self.tracer._close(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "dur": self.duration,
        }
        if self.attributes:
            record["attrs"] = self.attributes
        if self.worker is not None:
            record["worker"] = self.worker
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Span({self.name!r}, id={self.span_id}, dur={self.duration:.6f})"


class Tracer:
    """Collects spans and metrics for one process.

    ``max_spans`` bounds memory on long runs (e.g. thousands of
    interactive challenge draws): past the bound, spans still time and
    feed the metrics registry but are not retained in the span list;
    ``dropped_spans`` counts them so reports can say so.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 200_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self.dropped_spans = 0
        self.epoch = perf_counter()
        self._stack: list[Span] = []
        self._next_id = 0

    # -- recording -------------------------------------------------------
    def span(self, name: str) -> Any:
        """Open a span context manager.  Disabled tracers return the
        shared :data:`NULL_SPAN` -- one flag check, zero allocation."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name)

    def event(self, name: str, **attributes: Any) -> None:
        """Record an instant (zero-duration span) under the current parent."""
        if not self.enabled:
            return
        span = Span(self, name)
        stack = self._stack
        span.parent_id = stack[-1].span_id if stack else None
        span.span_id = self._next_id
        self._next_id += 1
        span.start = span.end = perf_counter() - self.epoch
        if attributes:
            span.attributes = attributes
        self._retain(span)

    def _close(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard (exit without enter)
            try:
                stack.remove(span)
            except ValueError:
                pass
        self._retain(span)
        self.metrics.observe("span." + span.name, span.duration)

    def _retain(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    # -- inspection ------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Live nesting depth; zero whenever instrumentation is balanced."""
        return len(self._stack)

    # -- cross-process aggregation --------------------------------------
    def absorb(self, payload: dict[str, Any], worker: int | None = None) -> None:
        """Fold a worker-side trace payload (as produced by
        :meth:`export_payload`) into this tracer.

        Worker span ids are remapped past this tracer's id counter so
        they stay unique; parent links inside the worker trace are
        preserved.  Worker metrics merge exactly.  Worker timestamps are
        kept as-is (each process has its own ``perf_counter`` epoch) --
        absorbed spans carry their ``worker`` index instead of realigned
        clocks.
        """
        spans = payload.get("spans", ())
        base = self._next_id
        for record in spans:
            span = Span(self, record["name"])
            span.span_id = base + int(record["id"])
            parent = record.get("parent")
            span.parent_id = None if parent is None else base + int(parent)
            span.start = float(record["start"])
            span.end = span.start + float(record["dur"])
            attrs = record.get("attrs")
            if attrs:
                span.attributes = dict(attrs)
            span.worker = worker
            self._retain(span)
        if spans:
            self._next_id = base + max(int(r["id"]) for r in spans) + 1
        self.dropped_spans += int(payload.get("dropped_spans", 0))
        self.metrics.merge(payload.get("metrics", {}))

    def export_payload(self) -> dict[str, Any]:
        """Plain-data dump of this tracer (picklable / JSON-able) for
        shipping through a process-pool result.

        Samples this process's peak RSS into the ``peak_rss_bytes`` gauge
        first, so pool parents absorbing worker payloads see the fleet-wide
        memory high-water mark (gauges merge by maximum)."""
        peak = peak_rss_bytes()
        if peak is not None:
            self.metrics.gauge("peak_rss_bytes", peak)
        return {
            "spans": [span.to_dict() for span in self.spans],
            "dropped_spans": self.dropped_spans,
            "open_spans": self.open_spans,
            "metrics": self.metrics.snapshot(),
        }


# ---------------------------------------------------------------------------
# Module-level current tracer.  Disabled by default; ``start_tracing()``
# swaps in an enabled tracer for the process.  Instrumented code fetches
# it through ``current()`` -- never caches it across calls -- so enabling
# mid-session takes effect immediately.
# ---------------------------------------------------------------------------

_DISABLED = Tracer(enabled=False)
_current: Tracer = _DISABLED


def current() -> Tracer:
    """The process-wide tracer consulted by instrumented code."""
    return _current


def install(tracer: Tracer) -> Tracer:
    """Replace the current tracer; returns the previous one so callers
    can restore it (``finally: install(previous)``)."""
    global _current
    previous = _current
    _current = tracer
    return previous


def start_tracing(max_spans: int = 200_000) -> Tracer:
    """Install and return a fresh enabled tracer."""
    tracer = Tracer(enabled=True, max_spans=max_spans)
    install(tracer)
    return tracer


def stop_tracing() -> Tracer:
    """Restore the shared disabled tracer; returns the tracer that was
    active (so its spans/metrics can still be exported)."""
    return install(_DISABLED)
