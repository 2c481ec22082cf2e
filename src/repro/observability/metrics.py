"""Counters and timing histograms backing the tracing subsystem.

A :class:`MetricsRegistry` is a deliberately small, dependency-free
aggregation surface shared by three consumers:

* the :class:`~repro.distributed.engine.SimulationEngine` backend
  counters (``kernel_calls``, ``fallback_nodes``, ... -- the registry
  *subsumes* the pre-existing ``engine.backend_counters`` dict, which is
  kept as a compatibility property);
* the tracer, which records one timing observation per closed span
  (under ``span.<name>``) plus fallback-attribution counters
  (``fallback_networks.<scheme>.<reason>`` /
  ``fallback_nodes.<scheme>.<reason>``);
* cross-process aggregation: worker processes serialise
  :meth:`MetricsRegistry.snapshot` through the pool result and the
  parent folds them back in with :meth:`MetricsRegistry.merge`.

Everything in a snapshot is plain JSON-serialisable data (ints, floats,
strings, dicts) so snapshots can be embedded verbatim into the
``BENCH_*.json`` provenance headers and the span-log trailer record.
"""
from __future__ import annotations

import math
import sys
from typing import Any, Iterable

__all__ = ["TimingStat", "MetricsRegistry", "BUCKET_BOUNDS", "peak_rss_bytes"]

# Histogram bucket upper bounds, in seconds (log scale, final bucket is
# the +inf overflow).  Spans in this codebase range from ~1 microsecond
# (a single segment pass on a tiny network) to tens of seconds (a full
# benchmark sweep), so six decades is enough resolution.
BUCKET_BOUNDS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class TimingStat:
    """Aggregated timing observations for one name.

    Tracks count / total / min / max plus a fixed log-scale histogram;
    merging two stats is exact (no quantile sketches to reconcile),
    which is what makes cross-process aggregation deterministic.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds
        for index, bound in enumerate(BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def merge(self, other: "TimingStat | dict[str, Any]") -> None:
        if isinstance(other, dict):
            stat = TimingStat.from_dict(other)
        else:
            stat = other
        self.count += stat.count
        self.total += stat.total
        self.minimum = min(self.minimum, stat.minimum)
        self.maximum = max(self.maximum, stat.maximum)
        for index, value in enumerate(stat.buckets):
            self.buckets[index] += value

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TimingStat":
        stat = cls()
        stat.count = int(payload["count"])
        stat.total = float(payload["total"])
        stat.minimum = float(payload["min"]) if stat.count else math.inf
        stat.maximum = float(payload["max"])
        buckets = list(payload.get("buckets", ()))
        if len(buckets) == len(stat.buckets):
            stat.buckets = [int(value) for value in buckets]
        return stat

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TimingStat(count={self.count}, total={self.total:.6f}, "
                f"min={self.minimum:.6f}, max={self.maximum:.6f})")


def peak_rss_bytes() -> int | None:
    """This process's peak resident-set size in bytes, or ``None``.

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` — the kernel's high-water
    mark, so it captures the true allocation peak of a streamed compile even
    between gauge samples.  Linux reports kilobytes, macOS bytes; platforms
    without :mod:`resource` (Windows) return ``None`` and the gauge is
    simply not recorded.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


class MetricsRegistry:
    """A named bag of integer counters, :class:`TimingStat` histograms, and
    high-water gauges.

    Gauges record *levels* rather than increments — peak RSS is the canonical
    one — and keep the maximum value seen, so merging worker snapshots yields
    the fleet-wide high-water mark per gauge name (not a meaningless sum).
    """

    __slots__ = ("counters", "timings", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timings: dict[str, TimingStat] = {}
        self.gauges: dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        stat = self.timings.get(name)
        if stat is None:
            stat = self.timings[name] = TimingStat()
        stat.observe(seconds)

    def gauge(self, name: str, value: float) -> None:
        """Record a level; the gauge keeps the maximum value ever seen."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    # -- reading ---------------------------------------------------------
    def timing(self, name: str) -> TimingStat:
        stat = self.timings.get(name)
        if stat is None:
            stat = self.timings[name] = TimingStat()
        return stat

    def snapshot(self) -> dict[str, Any]:
        """A plain-data copy suitable for JSON / pickling across processes."""
        return {
            "counters": dict(self.counters),
            "timings": {name: stat.to_dict()
                        for name, stat in self.timings.items()},
            "gauges": dict(self.gauges),
        }

    # -- aggregation -----------------------------------------------------
    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry.  Counters add; timing stats merge exactly; gauges keep
        the maximum (snapshots predating gauges simply contribute none)."""
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, int(value))
        for name, payload in snapshot.get("timings", {}).items():
            self.timing(name).merge(payload)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, float(value))

    def reset(self, names: Iterable[str] | None = None) -> None:
        """Zero counters (and drop timings) -- all of them, or just the
        given counter names (used by ``engine.reset_backend_counters``).

        Counters are zeroed in place rather than removed: consumers such
        as the simulation engine alias the counter dict and pre-seed keys
        they increment without a membership check."""
        if names is None:
            for name in self.counters:
                self.counters[name] = 0
            self.timings.clear()
            self.gauges.clear()
            return
        for name in names:
            if name in self.counters:
                self.counters[name] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MetricsRegistry({len(self.counters)} counters, "
                f"{len(self.timings)} timings)")
