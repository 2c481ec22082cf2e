"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment (E1-E10) of
:mod:`repro.analysis.experiments`: it prints the experiment's table (the
"figure" of this reproduction) and uses ``pytest-benchmark`` to time the
operation that the experiment stresses.  Run with::

    pytest benchmarks/ --benchmark-only -s

The standalone sweep scripts (``bench_engine.py``, ``bench_vectorized.py``,
``bench_protocols.py``) import :func:`provenance` from here so every
committed ``BENCH_*.json`` records the machine and interpreter it was
measured on — without that header, rows like the engine benchmark's
process-pool section are uninterpretable (pool overhead on a single-core CI
container looks like a slowdown, not a scaling result).
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any

from repro.analysis.tables import format_table


def emit(rows, title: str) -> None:
    """Print an experiment table (shown with ``-s``; captured otherwise)."""
    print()
    print(format_table(rows, title=title))


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def effective_cpu_count() -> int | None:
    """CPUs this process may actually run on, not just the machine's total.

    Container/cgroup CPU quotas and ``taskset`` pins show up in the
    scheduling affinity mask but not in ``os.cpu_count()``; a pooled
    benchmark row is only a scaling claim when *this* number is >= 2,
    which is why it sits in every ``BENCH_*.json`` header next to the
    pool width.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count()


def _git_commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def provenance(workers: int | None = None,
               observability: dict[str, Any] | None = None) -> dict[str, Any]:
    """Describe the machine and interpreter a benchmark payload was measured on.

    ``workers`` records the process-pool width the benchmark used (when it
    used one); reading it next to ``effective_cpus`` (the scheduling-affinity
    count — what a cgroup-limited container actually grants, as opposed to
    the machine-wide ``cpu_count``) tells a reader whether a pooled row
    could possibly have shown a speedup on this box.  ``pool_start_method``
    records the :meth:`run_trials` start-method pin (always ``spawn``).  The numpy
    version and the git commit the numbers were measured at (``None`` when
    unavailable, e.g. outside a checkout) make the committed ``BENCH_*.json``
    payloads attributable to an exact kernel implementation.

    ``observability`` embeds a metrics/span snapshot (see
    :func:`observability_snapshot`) so a committed payload also records
    *where* the measured time went — kernel calls, fallback attribution,
    per-phase self-times — not just the section totals.
    """
    info: dict[str, Any] = {
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective_cpu_count(),
        "pool_start_method": "spawn",  # run_trials pins it on every platform
        "numpy_version": _numpy_version(),
        "git_commit": _git_commit(),
    }
    if workers is not None:
        info["workers"] = workers
    if observability is not None:
        info["observability"] = observability
    return info


def observability_snapshot(tracer: Any) -> dict[str, Any]:
    """Compact JSON-safe summary of a traced benchmark pass.

    Per span name: call count, total and *self* milliseconds (self = total
    minus directly-nested child time), so a ``BENCH_*.json`` reader can see
    how kernel-phase time splits without re-running the sweep; plus the
    tracer-level counters, which carry the ``fallback_networks.<scheme>.
    <reason>`` / ``fallback_nodes.<scheme>.<reason>`` attribution.
    """
    from repro.observability.export import self_times

    selfs = self_times(tracer.spans)
    phases: dict[str, list[float]] = {}
    for span in tracer.spans:
        row = phases.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += selfs.get(span.span_id, 0.0)
    return {
        "spans": len(tracer.spans),
        "unclosed_spans": tracer.open_spans,
        "dropped_spans": tracer.dropped_spans,
        "phases": {name: {"count": int(count),
                          "total_ms": round(total * 1e3, 3),
                          "self_ms": round(self_total * 1e3, 3)}
                   for name, (count, total, self_total)
                   in sorted(phases.items())},
        "counters": dict(tracer.metrics.counters),
        "gauges": dict(tracer.metrics.gauges),
    }


__all__ = ["emit", "provenance", "observability_snapshot",
           "effective_cpu_count"]
