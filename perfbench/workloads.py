"""The benchmark's four workloads and the loop that measures them.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned.  A workload builds its inputs from the
run seed in ``setup``, performs one measured operation per ``step`` and
checks the program's outputs in ``check``, outside the timed region.
``perfbench/README.md`` says why each workload is here and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import random
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.adversary.strategies import STRATEGIES
from repro.core.planarity_scheme import CotreeEdgeCertificate, PlanarityScheme
from repro.distributed.engine import SimulationEngine, derive_seed
from repro.distributed.network import Network
from repro.distributed.views import assemble_view, structure_at
from repro.dynamic import DynamicAuditor
from repro.graphs.generators import delaunay_planar_graph
from repro.graphs.planarity import is_planar

from layers import LayerTrace

perf_counter = time.perf_counter

#: a run sets up at least this many times and for at least this long;
#: ``setup_s`` is the median of the fastest window of ``SETUP_WINDOW``
#: consecutive set-ups
SETUP_REPEATS = 6
SETUP_SECONDS = 1.0
SETUP_WINDOW = 3
#: corrupted assignments per ``count_accepting_batch`` call
CHUNK = 16
#: process-pool width of the fanout workload (the CPUs it was sized on)
POOL_WORKERS = 2
#: mesh sizes of the sweeps: either side of PlanarityKernel's 18 000-node
#: batch budget, so a 16-assignment chunk is one kernel call at the small
#: size and several at the large one
SWEEP_SIZES = (500, 1500)


@dataclass
class Step:
    """What one measured step did."""

    #: seconds per operation (the ``op_ms_p50`` samples)
    latencies: tuple[float, ...]
    #: timed seconds of the whole step, work beside the operations included
    seconds: float
    #: units of work done (the ``throughput_per_s`` numerator)
    items: int
    #: timed seconds of each part of the step; every step of a workload has
    #: the same parts in the same order
    parts: tuple[float, ...]


def seeded_mesh(n: int, seed: int) -> Network:
    """A Delaunay mesh whose points and identifiers both come from ``seed``."""
    return Network(delaunay_planar_graph(n, seed=seed), seed=seed)


def decisions_digest(network: Network, decisions: dict[Any, bool]) -> str:
    """SHA-256 of the decision vector keyed by identifier.

    The same format as ``DynamicAuditor.decisions_digest``.
    """
    id_of = network.id_of
    blob = "\n".join(f"{identifier}:{int(decision)}"
                     for identifier, decision in sorted(
                         (id_of(node), decision)
                         for node, decision in decisions.items()))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def digest_of(value: Any) -> str:
    return hashlib.sha256(json.dumps(value).encode("ascii")).hexdigest()


def decide_trials(engine: SimulationEngine, scheme: PlanarityScheme,
                  network: Network, certificates: dict, strategy: Any,
                  seed: int, trials: range) -> list[int]:
    """Accepting-node counts of one cell's corrupted assignments ``trials``.

    Trial ``t`` corrupts with ``random.Random(derive_seed(seed, t))``; the
    assignments are decided in chunks of :data:`CHUNK`.
    """
    counts: list[int] = []
    for first in range(trials.start, trials.stop, CHUNK):
        items = [(network, strategy.corrupt(
                    network, certificates, random.Random(derive_seed(seed, t))))
                 for t in range(first, min(first + CHUNK, trials.stop))]
        counts.extend(engine.count_accepting_batch(scheme, items))
    return counts


def cell_seed(seed: int, index: int) -> int:
    """Seed of sweep cell ``index`` (sizes major, strategies minor)."""
    return derive_seed(seed, 1000 + index)


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------
class Certify:
    """Theorem 1 end to end: prove a mesh, then verify it on a cold engine."""

    name = "certify"
    #: an operation is the whole step
    window_ops = None

    def __init__(self, seed: int, n: int = 5000) -> None:
        self.seed = seed
        self.sizes = {"n": n}
        self.prove_seconds: list[float] = []
        self.verify_seconds: list[float] = []
        self.accept_all: list[bool] = []
        self.digests: list[str] = []

    def setup(self) -> tuple:
        network = seeded_mesh(self.sizes["n"], self.seed)
        ids = {node: network.id_of(node) for node in network.nodes()}
        return network.graph, ids

    def step(self, state: tuple, trace: Any) -> Step:
        graph, ids = state
        # a fresh graph, network and engine per operation, so nothing a
        # previous operation cached (CSR arrays, contexts, sizes) is reused
        network = Network(graph.copy(), ids=ids)
        engine = SimulationEngine(backend="vectorized")
        scheme = PlanarityScheme()
        with trace:
            start = perf_counter()
            certificates = engine.certify(scheme, network)
            proved = perf_counter()
            result = engine.verify(scheme, network, certificates)
            end = perf_counter()
        self.prove_seconds.append(proved - start)
        self.verify_seconds.append(end - proved)
        self.accept_all.append(all(result.decisions.values()))
        self.digests.append(decisions_digest(network, result.decisions))
        return Step((end - start,), end - start, network.size,
                    (proved - start, end - proved))

    def check(self, state: tuple) -> tuple[int, int]:
        graph, ids = state
        network = Network(graph.copy(), ids=ids)
        scheme = PlanarityScheme()
        reference = SimulationEngine().verify(scheme, network,
                                              scheme.prove(network))
        expected = decisions_digest(network, reference.decisions)
        failed = sum(1 for ok, digest in zip(self.accept_all, self.digests)
                     if not ok or digest != expected)
        return len(self.digests), failed

    def digest(self) -> str:
        return digest_of(self.digests)

    def report(self) -> dict[str, tuple[float, str]]:
        return {"prove_s": (statistics.median(self.prove_seconds), "s"),
                "verify_s": (statistics.median(self.verify_seconds), "s")}


# ----------------------------------------------------------------------
# attack-sweep
# ----------------------------------------------------------------------
class AttackSweep:
    """The soundness-experiment shape: every strategy against honest labels.

    One step is one round: :data:`CHUNK` fresh trials of every (size,
    strategy) cell, each cell decided by one ``count_accepting_batch`` call.
    """

    name = "attack-sweep"
    window_ops = None

    def __init__(self, seed: int, sizes: tuple[int, ...] = SWEEP_SIZES) -> None:
        self.seed = seed
        self.sizes = {"n": list(sizes), "strategies": sorted(STRATEGIES),
                      "trials_per_cell_per_step": CHUNK}
        self.counts: list[list[int]] = []
        self.rounds = 0

    def setup(self) -> tuple:
        engine = SimulationEngine(backend="vectorized")
        scheme = PlanarityScheme()
        cells = []
        for k, n in enumerate(self.sizes["n"]):
            network = seeded_mesh(n, derive_seed(self.seed, k))
            certificates = engine.certify(scheme, network)
            # fill the engine's context and batch caches, as the first
            # chunks of a long sweep would
            engine.count_accepting_batch(scheme,
                                         [(network, certificates)] * CHUNK)
            for name in self.sizes["strategies"]:
                cells.append((network, certificates, STRATEGIES[name](),
                              cell_seed(self.seed, len(cells))))
        self.counts = [[] for _ in cells]
        return engine, scheme, cells

    def step(self, state: tuple, trace: Any) -> Step:
        engine, scheme, cells = state
        trials = range(self.rounds * CHUNK, (self.rounds + 1) * CHUNK)
        self.rounds += 1
        counts: list[list[int]] = []
        parts: list[float] = []
        with trace:
            for network, certificates, strategy, seed in cells:
                start = perf_counter()
                counts.append(decide_trials(engine, scheme, network,
                                            certificates, strategy, seed,
                                            trials))
                parts.append(perf_counter() - start)
        for kept, new in zip(self.counts, counts):
            kept.extend(new)
        seconds = sum(parts)
        return Step((seconds,), seconds, CHUNK * len(cells), tuple(parts))

    def check(self, state: tuple) -> tuple[int, int]:
        # trial 0 of every cell is the fixed sample the reference re-decides
        engine, scheme, cells = state
        failed = 0
        for kept, (network, certificates, strategy, seed) in zip(self.counts,
                                                                 cells):
            assignment = strategy.corrupt(network, certificates,
                                          random.Random(derive_seed(seed, 0)))
            expected = engine.count_accepting(scheme, network, assignment,
                                              backend="reference")
            failed += kept[0] != expected
        return sum(len(kept) for kept in self.counts), failed

    def digest(self) -> str:
        return digest_of(self.counts)

    def report(self) -> dict[str, tuple[float, str]]:
        return {}


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def split_edges(auditor: DynamicAuditor) -> tuple[list, list]:
    """(cotree chords, spanning-tree edges) of the current assignment, by id."""
    chords = set()
    for certificate in auditor.certificates.values():
        for edge in certificate.edge_certificates:
            if isinstance(edge, CotreeEdgeCertificate):
                chords.add(tuple(sorted((edge.a_id, edge.b_id))))
    id_of = auditor.network.id_of
    edges = {tuple(sorted((id_of(u), id_of(v))))
             for u, v in auditor.network.graph.edges()}
    return sorted(chords), sorted(edges - chords)


def miswired_links(network: Network, rng: random.Random,
                   count: int) -> list[tuple[int, int]]:
    """Identifier pairs whose extra edge makes the mesh non-planar."""
    graph = network.graph
    ids = sorted(network.ids())
    links: list[tuple[int, int]] = []
    while len(links) < count:
        a, b = sorted(rng.sample(ids, 2))
        u, v = network.node_of(a), network.node_of(b)
        if graph.has_edge(u, v) or (a, b) in links:
            continue
        probe = graph.copy()
        probe.add_edge(u, v)
        if not is_planar(probe):
            links.append((a, b))
    return links


def reference_digest(network: Network, scheme: PlanarityScheme,
                     certificates: dict) -> str:
    """Decision digest of a from-scratch reference verification of every node."""
    verify = scheme.verify
    decisions = {node: bool(verify(assemble_view(
                     structure_at(network, node, 1), certificates, 1)))
                 for node in network.nodes()}
    return decisions_digest(network, decisions)


@dataclass
class ChurnState:
    network: Network
    scheme: PlanarityScheme
    auditor: DynamicAuditor
    engine: SimulationEngine
    rng: random.Random
    miswires: list[tuple[int, int]]
    chords: list = field(default_factory=list)
    trunk: list = field(default_factory=list)


class Churn:
    """An overlay that churns edge by edge under a ``DynamicAuditor``.

    A cycle is two edge events on one link, and restores the edge set, so
    the graph is the seeded mesh at every cycle boundary.  One step is a
    block of ``block`` cycles with the same mix every time: cotree flaps
    (remove, re-add), one spanning-tree flap whose removal falls back to a
    full re-prove, one miswired link that lands (and must alarm) and is
    rolled back, and every ``audit_every`` cycles a warm vectorized
    ``engine.count_accepting`` audit of the whole network, served through
    the engine's delta invalidation.
    """

    name = "churn"
    #: about a quarter of a second of edge events
    window_ops = 20

    def __init__(self, seed: int, n: int = 2000, block: int = 50,
                 audit_every: int = 10, digest_every: int = 4,
                 miswires: int = 4) -> None:
        self.seed = seed
        self.sizes = {"n": n, "cycles_per_step": block,
                      "audit_every_cycles": audit_every,
                      "digest_every_steps": digest_every}
        self.miswire_count = miswires
        self.event_seconds: list[float] = []
        self.audit_seconds: list[float] = []
        self.attempted = self.failed = 0
        self.fallbacks = self.alarms = 0
        self.trail: list[tuple] = []
        self.blocks = 0

    def setup(self) -> ChurnState:
        network = seeded_mesh(self.sizes["n"], self.seed)
        scheme = PlanarityScheme()
        auditor = DynamicAuditor(network, scheme)
        auditor.baseline()
        engine = SimulationEngine(backend="vectorized")
        # fill the audit engine's structure and context caches
        engine.count_accepting(scheme, network, auditor.certificates)
        rng = random.Random(self.seed)
        state = ChurnState(network, scheme, auditor, engine, rng,
                           miswired_links(network, rng, self.miswire_count))
        state.chords, state.trunk = split_edges(auditor)
        return state

    def step(self, state: ChurnState, trace: Any) -> Step:
        block = self.sizes["cycles_per_step"]
        latencies: list[float] = []
        parts: list[float] = []
        for cycle in range(1, block + 1):
            if cycle == block:
                kind = "miswire"
            elif cycle == block // 2:
                kind = "trunk"
            else:
                kind = "cotree"
            audit = cycle % self.sizes["audit_every_cycles"] == 0
            cycle_latencies, cycle_seconds = self._cycle(state, trace, kind,
                                                         audit)
            latencies += cycle_latencies
            parts.append(cycle_seconds)
        self.blocks += 1
        if self.blocks % self.sizes["digest_every_steps"] == 0:
            self._digest_check(state)
        self.event_seconds += latencies
        return Step(tuple(latencies), sum(parts), 2 * block, tuple(parts))

    def _cycle(self, state: ChurnState, trace: Any, kind: str,
               audit: bool) -> tuple[list[float], float]:
        if kind == "miswire":
            a, b = state.miswires[self.blocks % len(state.miswires)]
            ops = ("add_edge", "remove_edge")
        else:
            a, b = state.rng.choice(state.trunk if kind == "trunk"
                                    else state.chords)
            ops = ("remove_edge", "add_edge")
        u, v = state.network.node_of(a), state.network.node_of(b)
        auditor = state.auditor
        with trace:
            start = perf_counter()
            first = auditor.apply_event(ops[0], u, v)
            middle = perf_counter()
            second = auditor.apply_event(ops[1], u, v)
            events_end = perf_counter()
            if audit:
                accepting = state.engine.count_accepting(
                    state.scheme, state.network, auditor.certificates)
            end = perf_counter()

        # outputs, outside the timed region: planar events never alarm, a
        # miswired link always does, and audits see every node accept
        self.attempted += 2
        if kind == "miswire":
            self.failed += not first.alarms
            self.alarms += bool(first.alarms)
        else:
            self.failed += not first.accept_all
        self.failed += not second.accept_all
        if audit:
            self.attempted += 1
            self.failed += accepting != state.network.size
            self.audit_seconds.append(end - events_end)
        if first.fallback or second.fallback:
            self.fallbacks += first.fallback + second.fallback
            state.chords, state.trunk = split_edges(auditor)
        self.trail.append((a, b, first.alarms, first.fallback,
                           second.fallback, second.accept_all))
        return [middle - start, events_end - middle], end - start

    def _digest_check(self, state: ChurnState) -> None:
        self.attempted += 1
        expected = reference_digest(state.network, state.scheme,
                                    state.auditor.certificates)
        self.failed += state.auditor.decisions_digest() != expected

    def check(self, state: ChurnState) -> tuple[int, int]:
        self._digest_check(state)
        return self.attempted, self.failed

    def digest(self) -> str:
        return digest_of([list(map(list, self.trail)), self.fallbacks])

    def report(self) -> dict[str, tuple[float, str]]:
        events = sorted(self.event_seconds)
        p99 = statistics.quantiles(events, n=100)[98] if len(events) > 1 \
            else events[0]
        rows = {"event_ms_p50": (1e3 * statistics.median(events), "ms"),
                "event_ms_p99": (1e3 * p99, "ms"),
                "repair_fallbacks": (self.fallbacks, "count"),
                "miswire_alarms": (self.alarms, "count")}
        if self.audit_seconds:
            rows["audit_ms_p50"] = (1e3 * statistics.median(self.audit_seconds),
                                    "ms")
        return rows


# ----------------------------------------------------------------------
# fanout
# ----------------------------------------------------------------------
#: per-process engine of :func:`fanout_cell`, so a pool worker proves each
#: network once however many of its cells it runs
_worker_engines: dict[str, tuple[SimulationEngine, PlanarityScheme]] = {}


def fanout_cell(spec: tuple) -> tuple[list[int], int, float, dict | None]:
    """Pool worker: certify the attached network, then decide one cell.

    Returns the counts, the worker's pid, its busy seconds and, when the
    run is traced, the worker-side layer totals.
    """
    network, strategy_name, seed, trials, traced = spec
    trace = LayerTrace() if traced else nullcontext()
    start = perf_counter()
    with trace:
        if not _worker_engines:
            _worker_engines["vectorized"] = (
                SimulationEngine(backend="vectorized"), PlanarityScheme())
        engine, scheme = _worker_engines["vectorized"]
        certificates = engine.certify(scheme, network)
        counts = decide_trials(engine, scheme, network, certificates,
                               STRATEGIES[strategy_name](), seed,
                               range(trials))
    busy = perf_counter() - start
    return counts, os.getpid(), busy, trace.totals() if traced else None


class Fanout:
    """The attack sweep's cells fanned out over a spawn pool.

    One step exports both meshes to shared memory, runs every (size,
    strategy) cell through ``SimulationEngine(workers=2).run_trials`` and
    unlinks the segments.  Every step runs the same specs.
    """

    name = "fanout"
    window_ops = None

    def __init__(self, seed: int, sizes: tuple[int, ...] = SWEEP_SIZES,
                 trials: int = CHUNK) -> None:
        self.seed = seed
        self.sizes = {"n": list(sizes), "strategies": sorted(STRATEGIES),
                      "trials_per_cell": trials, "workers": POOL_WORKERS}
        self.results: list[list[list[int]]] = []

    def setup(self) -> tuple:
        exporter = SimulationEngine(backend="vectorized")
        networks = [seeded_mesh(n, derive_seed(self.seed, k))
                    for k, n in enumerate(self.sizes["n"])]
        for handle in self._export(exporter, networks):
            handle.unlink()  # leaves each network compiled in the exporter
        return exporter, networks

    @staticmethod
    def _export(exporter: SimulationEngine, networks: list[Network]) -> list:
        handles = [exporter.export_shared(network) for network in networks]
        if any(handle is None for handle in handles):
            for handle in handles:
                if handle is not None:
                    handle.unlink()
            raise RuntimeError("shared-memory export is unavailable here")
        return handles

    def _specs(self, handles: list, traced: bool) -> list[tuple]:
        """One spec per (size, strategy) cell, largest meshes first.

        Handing out the longest cells first keeps the two workers' finishing
        times close, so a step's latency does not hinge on which worker
        happened to draw the last large cell.
        """
        strategies = self.sizes["strategies"]
        trials = self.sizes["trials_per_cell"]
        specs = [(handle, name,
                  cell_seed(self.seed, k * len(strategies) + j), trials, traced)
                 for k, handle in enumerate(handles)
                 for j, name in enumerate(strategies)]
        return sorted(specs, key=lambda spec: -spec[0].n)

    def step(self, state: tuple, trace: Any) -> Step:
        exporter, networks = state
        traced = isinstance(trace, LayerTrace)
        pool = SimulationEngine(workers=POOL_WORKERS)
        with trace:
            start = perf_counter()
            handles = self._export(exporter, networks)
            try:
                specs = self._specs(handles, traced)
                called = perf_counter()
                results = pool.run_trials(fanout_cell, specs)
                returned = perf_counter()
            finally:
                for handle in handles:
                    handle.unlink()
            end = perf_counter()
        self.results.append([counts for counts, *_ in results])
        if traced:
            busy: dict[int, float] = defaultdict(float)
            for _, pid, seconds, totals in results:
                busy[pid] += seconds
                trace.absorb(totals)
            trace.add_seconds("distributed.worker_busy", sum(busy.values()))
            trace.add_seconds("distributed.pool_overhead",
                              returned - called - max(busy.values()))
            trace.count("spec_bytes", len(pickle.dumps(specs)))
        items = len(specs) * self.sizes["trials_per_cell"]
        return Step((end - start,), end - start, items, (end - start,))

    def check(self, state: tuple) -> tuple[int, int]:
        exporter, networks = state
        handles = self._export(exporter, networks)
        try:
            serial = SimulationEngine(workers=1).run_trials(
                fanout_cell, self._specs(handles, False))
        finally:
            for handle in handles:
                handle.unlink()
        expected = json.dumps([counts for counts, *_ in serial])
        failed = sum(1 for result in self.results
                     if json.dumps(result) != expected)
        return len(self.results), failed

    def digest(self) -> str:
        return digest_of(self.results)

    def report(self) -> dict[str, tuple[float, str]]:
        return {}


WORKLOADS = {workload.name: workload
             for workload in (Certify, AttackSweep, Churn, Fanout)}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def peak_rss_mib() -> float:
    """Peak resident set of this process or of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


def measure(workload: Any, state: Any, seconds: float, trace: Any,
            max_steps: int | None = None) -> list[Step]:
    """Step ``workload`` for ``seconds`` (or exactly ``max_steps`` steps).

    A step is not started when the previous one says it would end past the
    deadline, so a run measures about ``seconds`` whatever a step costs.
    """
    steps: list[Step] = []
    deadline = perf_counter() + seconds
    while True:
        if max_steps is not None:
            if len(steps) == max_steps:
                break
        elif steps and perf_counter() + steps[-1].seconds > deadline:
            break
        # start every step from a collected heap, so that one step's
        # garbage is not collected on the next step's clock
        gc.collect()
        steps.append(workload.step(state, trace))
    return steps


def quietest_window(latencies: list[float], size: int) -> float:
    """Median latency of the fastest window of ``size`` consecutive operations.

    The machine is shared: for seconds at a time a neighbour slows every
    instruction of this process by up to 70 %, in CPU time as much as in
    wall time, so a median over the whole run follows how much of the run
    such bursts covered.  A window is a few tenths of a second to a few
    seconds of the same mix of operations, and the fastest one reads the
    program on a quiet machine as long as one window of the run was quiet.
    """
    if len(latencies) <= size:
        return statistics.median(latencies)
    return min(statistics.median(latencies[first:first + size])
               for first in range(0, len(latencies) - size + 1, size))


def quietest_step_seconds(steps: list[Step]) -> float:
    """Seconds of one step with each of its parts at its fastest in the run.

    Parts are a tenth of a second to a second long, so a quiet stretch of
    a second or two somewhere in the run times a part quietly even where no
    whole step was quiet.
    """
    return sum(min(part) for part in zip(*(step.parts for step in steps)))


@dataclass
class Result:
    workload: Any
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    missing: list[str]


def run(name: str, seed: int, seconds: float, trace: bool,
        max_steps: int | None = None, **params: Any) -> Result:
    """Set up, measure and check one workload.

    One untimed step warms the caches of the last set-up before anything
    is measured.  Untraced, the metrics are the end-to-end ones.  Traced,
    the first half of the time runs untraced and the second half under a
    :class:`~layers.LayerTrace`; the metrics are the per-layer ones, with
    the two halves' cost per unit of work giving the tracing overhead.
    """
    workload = WORKLOADS[name](seed, **params)
    setup_seconds: list[float] = []
    while len(setup_seconds) < SETUP_REPEATS or sum(setup_seconds) < SETUP_SECONDS:
        gc.collect()
        start = perf_counter()
        state = workload.setup()
        setup_seconds.append(perf_counter() - start)
    gc.collect()
    workload.step(state, nullcontext())
    missing: list[str] = []
    if trace:
        plain = measure(workload, state, seconds / 2, nullcontext(), max_steps)
        layer_trace = LayerTrace()
        traced = measure(workload, state, seconds / 2, layer_trace, max_steps)
        metrics = layer_metrics(layer_trace, traced, plain)
        missing = layer_trace.missing
    else:
        steps = measure(workload, state, seconds, nullcontext(), max_steps)
        step_seconds = quietest_step_seconds(steps)
        if workload.window_ops is None:
            op_seconds = step_seconds
        else:
            op_seconds = quietest_window(
                [latency for step in steps for latency in step.latencies],
                workload.window_ops)
        metrics = {
            "setup_s": (quietest_window(setup_seconds, SETUP_WINDOW), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "op_ms_p50": (1e3 * op_seconds, "ms"),
            "throughput_per_s": (steps[0].items / step_seconds, "1/s"),
        }
    attempted, failed = workload.check(state)
    return Result(workload, metrics, attempted, failed, missing)


PER_LAYER = (
    ("graphs.embedding_share", "fraction"),
    ("graphs.degeneracy_share", "fraction"),
    ("graphs.mutate_share", "fraction"),
    ("core.cut_open_share", "fraction"),
    ("core.assembly_share", "fraction"),
    ("core.reference_verify_share", "fraction"),
    ("core.reference_verify_calls_per_op", "count"),
    ("distributed.size_accounting_share", "fraction"),
    ("distributed.views_share", "fraction"),
    ("distributed.run_trials_share", "fraction"),
    ("distributed.worker_busy_share", "fraction"),
    ("distributed.pool_overhead_share", "fraction"),
    ("distributed.spec_bytes_per_call", "bytes"),
    ("distributed.shm_export_share", "fraction"),
    ("vectorized.context_share", "fraction"),
    ("vectorized.compile_share", "fraction"),
    ("vectorized.kernel_share", "fraction"),
    ("vectorized.batch_build_share", "fraction"),
    ("vectorized.kernel_calls_per_op", "count"),
    ("vectorized.kernel_nodes_per_op", "count"),
    ("vectorized.fallback_nodes_per_op", "count"),
    ("vectorized.kernel_coverage", "fraction"),
    ("dynamic.repair_share", "fraction"),
    ("dynamic.repair_calls_per_op", "count"),
    ("dynamic.redecided_per_event", "count"),
    ("dynamic.repair_fallbacks_per_op", "count"),
    ("adversary.corrupt_share", "fraction"),
    ("observability.trace_overhead", "fraction"),
)


def layer_metrics(trace: LayerTrace, traced: list[Step],
                  plain: list[Step]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced steps.

    A ``_share`` is a layer's seconds over the traced steps' timed seconds
    (worker-side seconds of the fanout workload are summed over the
    workers, so its shares can exceed 1); ``_per_op`` counts are divided by
    the traced operations (the ``op_ms_p50`` samples).
    """
    wall = sum(step.seconds for step in traced)
    ops = sum(len(step.latencies) for step in traced)
    seconds, calls, counts = trace.seconds, trace.calls, trace.counts

    def share(timer: str) -> float:
        return seconds.get(timer, 0.0) / wall

    prove_rest = (seconds.get("core.prove", 0.0)
                  - seconds.get("graphs.embedding", 0.0)
                  - seconds.get("core.cut_open", 0.0))
    kernel_rest = (seconds.get("vectorized.accept_vector", 0.0)
                   - seconds.get("vectorized.compile", 0.0))
    kernel_nodes = counts.get("kernel_nodes", 0)
    fallback_nodes = counts.get("fallback_nodes", 0)
    events = calls.get("dynamic.apply", 0)
    pool_calls = calls.get("distributed.run_trials", 0)
    cost = [quietest_step_seconds(steps) / steps[0].items
            for steps in (traced, plain)]
    values = {
        "graphs.embedding_share": share("graphs.embedding"),
        "graphs.degeneracy_share": share("graphs.degeneracy"),
        "graphs.mutate_share": share("graphs.mutate"),
        "core.cut_open_share": share("core.cut_open"),
        "core.assembly_share": max(0.0, prove_rest) / wall,
        "core.reference_verify_share": share("core.reference_verify"),
        "core.reference_verify_calls_per_op":
            calls.get("core.reference_verify", 0) / ops,
        "distributed.size_accounting_share":
            share("distributed.size_accounting"),
        "distributed.views_share": share("distributed.views"),
        "distributed.run_trials_share": share("distributed.run_trials"),
        "distributed.worker_busy_share": share("distributed.worker_busy"),
        "distributed.pool_overhead_share": share("distributed.pool_overhead"),
        "distributed.spec_bytes_per_call":
            counts.get("spec_bytes", 0) / pool_calls if pool_calls else 0.0,
        "distributed.shm_export_share": share("distributed.shm_export"),
        "vectorized.context_share": share("vectorized.context"),
        "vectorized.compile_share": share("vectorized.compile"),
        "vectorized.kernel_share": max(0.0, kernel_rest) / wall,
        "vectorized.batch_build_share": share("vectorized.batch_build"),
        "vectorized.kernel_calls_per_op": counts.get("kernel_calls", 0) / ops,
        "vectorized.kernel_nodes_per_op": kernel_nodes / ops,
        "vectorized.fallback_nodes_per_op": fallback_nodes / ops,
        "vectorized.kernel_coverage":
            1.0 - fallback_nodes / kernel_nodes if kernel_nodes else 0.0,
        "dynamic.repair_share": share("dynamic.repair"),
        "dynamic.repair_calls_per_op": calls.get("dynamic.repair", 0) / ops,
        "dynamic.redecided_per_event":
            counts.get("redecided", 0) / events if events else 0.0,
        "dynamic.repair_fallbacks_per_op":
            counts.get("repair_fallbacks", 0) / ops,
        "adversary.corrupt_share": share("adversary.corrupt"),
        "observability.trace_overhead": cost[0] / cost[1] - 1.0,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
