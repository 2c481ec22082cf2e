"""Per-layer timing for the traced benchmark run.

The harness wraps named entry points of the program's layers and records,
per *timer*, how many calls were made and how many seconds they took.  A
function is wrapped at the module attribute its caller looks it up under:
``from repro.graphs.planarity import compute_planar_embedding`` binds the
name inside ``repro.core.planarity_scheme``, so that is where it is patched.
Methods are patched on their class.  Nothing inside ``src/`` changes, and
leaving the ``with`` block puts every original object back.

Only the outermost call of a timer is timed, so a timer never counts the
same interval twice.  Different timers may nest (``dynamic.repair`` contains
``distributed.views`` and ``core.reference_verify`` calls); the per-layer
metrics are inclusive and are read against the table in
``perfbench/README.md``.

An entry point that no longer exists (renamed or removed by a later change)
is skipped and listed in :attr:`LayerTrace.missing`; its timer then reads 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

perf_counter = time.perf_counter

_STRATEGY_CLASSES = ("RandomCorruption", "TargetedRootLie",
                     "IntervalEndpointShift", "DFSCopySwap",
                     "CoordinatedRootSplit")

#: timer name -> entry points, each ``(module, attribute path)``
TIMERS: dict[str, list[tuple[str, str]]] = {
    "graphs.embedding": [
        ("repro.core.planarity_scheme", "compute_planar_embedding")],
    "graphs.degeneracy": [
        ("repro.core.planarity_scheme", "assign_edges_by_degeneracy")],
    "graphs.mutate": [
        ("repro.graphs.graph", "Graph.add_edge"),
        ("repro.graphs.graph", "Graph.remove_edge")],
    "core.prove": [
        ("repro.core.planarity_scheme", "PlanarityScheme.prove")],
    "core.cut_open": [
        ("repro.core.planarity_scheme", "cut_open")],
    "core.reference_verify": [
        ("repro.core.planarity_scheme", "PlanarityScheme.verify")],
    "distributed.size_accounting": [
        ("repro.distributed.engine", "certificate_statistics")],
    "distributed.views": [
        (module, name)
        for module in ("repro.distributed.engine", "repro.dynamic.repair",
                       "repro.dynamic.incremental")
        for name in ("structure_at", "assemble_view")
    ] + [("repro.distributed.engine", "SimulationEngine._view")],
    "distributed.run_trials": [
        ("repro.distributed.engine", "SimulationEngine.run_trials")],
    "distributed.shm_export": [
        ("repro.distributed.engine", "SimulationEngine.export_shared")],
    "vectorized.context": [
        ("repro.vectorized", "build_vector_context")],
    "vectorized.compile": [
        ("repro.vectorized.paper_kernels", "compile_certificates"),
        ("repro.vectorized.paper_kernels", "compile_edge_lists")],
    "vectorized.accept_vector": [
        ("repro.vectorized.paper_kernels", "PlanarityKernel.accept_vector")],
    "vectorized.batch_build": [
        ("repro.vectorized", "build_batched_context")],
    "dynamic.repair": [
        ("repro.dynamic.repair", "PlanarityRepairer.repair")],
    "dynamic.apply": [
        ("repro.dynamic.incremental", "DynamicAuditor.apply_events")],
    "adversary.corrupt": [
        ("repro.adversary.strategies", f"{name}.corrupt")
        for name in _STRATEGY_CLASSES],
}


def _observe_kernel(trace: "LayerTrace", result: Any) -> None:
    accept, fallback = result
    trace.count("kernel_calls")
    trace.count("kernel_nodes", len(accept))
    trace.count("fallback_nodes", int(fallback.sum()))


def _observe_repair(trace: "LayerTrace", result: Any) -> None:
    trace.count("repair_fallbacks", int(bool(result.fallback)))


def _observe_event(trace: "LayerTrace", result: Any) -> None:
    trace.count("redecided", result.redecided)


#: timers whose return values also feed counters
OBSERVERS: dict[str, Callable[["LayerTrace", Any], None]] = {
    "vectorized.accept_vector": _observe_kernel,
    "dynamic.repair": _observe_repair,
    "dynamic.apply": _observe_event,
}


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, raw value)`` of an entry point, or ``None``."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a class attribute is read raw so that a staticmethod is restored as one
    raw = owner.__dict__.get(name) if isinstance(owner, type) \
        else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class LayerTrace:
    """Install the layer timers while inside a ``with`` block.

    Totals accumulate across every ``with`` entry of one instance, so a
    workload can time each operation's measured part and leave its
    untimed bookkeeping (correctness checks, input copies) out.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._entered = False

    # -- recording ---------------------------------------------------------
    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def add_seconds(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds

    def totals(self) -> dict[str, Any]:
        """Plain-data copy of what was recorded (picklable)."""
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def absorb(self, totals: dict[str, Any]) -> None:
        """Fold in the :meth:`totals` of a trace taken in another process."""
        for name, value in totals["seconds"].items():
            self.seconds[name] += value
        for name, value in totals["calls"].items():
            self.calls[name] += value
        for name, value in totals["counts"].items():
            self.counts[name] += value

    # -- installation ------------------------------------------------------
    def _wrap(self, timer: str, function: Callable) -> Callable:
        seconds, calls, depth = self.seconds, self.calls, self._depth
        observe = OBSERVERS.get(timer)

        def timed(*args: Any, **kwargs: Any) -> Any:
            if depth[timer]:
                return function(*args, **kwargs)
            depth[timer] = 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds[timer] += perf_counter() - start
                calls[timer] += 1
                depth[timer] = 0
            if observe is not None:
                observe(self, result)
            return result

        return timed

    def __enter__(self) -> "LayerTrace":
        if self._saved:
            raise RuntimeError("LayerTrace is already installed")
        for timer, targets in TIMERS.items():
            for module_name, path in targets:
                found = _resolve(module_name, path)
                if found is None:
                    if not self._entered:
                        self.missing.append(f"{module_name}:{path}")
                    continue
                owner, name, raw = found
                if isinstance(raw, staticmethod):
                    patched: Any = staticmethod(self._wrap(timer, raw.__func__))
                else:
                    patched = self._wrap(timer, raw)
                self._saved.append((owner, name, raw))
                setattr(owner, name, patched)
        self._entered = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


def entry_points() -> dict[str, Any]:
    """Identity snapshot of every entry point (to check restoration)."""
    snapshot = {}
    for targets in TIMERS.values():
        for module_name, path in targets:
            found = _resolve(module_name, path)
            snapshot[f"{module_name}:{path}"] = None if found is None else found[2]
    return snapshot
