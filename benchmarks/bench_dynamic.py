#!/usr/bin/env python
"""Streamed dynamic-overlay audit: the delta path vs from-scratch recompute.

The paper's operational story is a long-lived overlay certified once and
re-validated every epoch; real overlays churn edge-by-edge.  This benchmark
streams a six-figure edge-event workload through
:class:`~repro.dynamic.incremental.DynamicAuditor` — mutation journal →
certificate repair → radius-1 re-decide — and measures the steady-state
cost per edge event against what the pre-delta pipeline paid for the same
event: a full re-prove plus a full re-verify of every node.

Three sections, all digest-gated:

1. **Planarity churn** (``planarity-pls``): ≥10^5 edge events on a Delaunay
   mesh — cotree remove/re-add cycles biased the way overlay churn is
   (links flap, the topology class holds), a periodic *tree-edge* removal
   whose repair honestly cascades to a counted full re-prove, and periodic
   miswired long links that must alarm the moment they land.  At sampled
   checkpoints the full from-scratch path (re-prove + re-verify all nodes)
   runs on the live graph; its decision digest must equal the auditor's
   byte for byte, and its per-event cost is the baseline the speedup gate
   divides by.
2. **Million-node spot-check** (``tree-pls``): leaf swaps on an n=10^6
   random tree (n=2·10^4 in ``--quick``), digest-compared against one full
   reference verification at the end — the scale leg of PR 7's streamed
   story, now mutating.
3. **Engine delta invalidation**: the same churn driven through
   :class:`~repro.distributed.engine.SimulationEngine` with the vectorized
   backend, a warm engine (delta-aware invalidation, patched caches)
   against a cold one (every event recompiles), decisions compared per
   event.  This leg is what puts ``kernel:*`` and ``delta_compile`` spans
   into the committed trace.

Gates (all modes): zero digest mismatches, at least one honestly counted
repair fallback, at least one alarm on a miswired link, and a ≥3×
steady-state per-event speedup of the delta path over from-scratch.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py [--quick]
        [--output BENCH_dynamic.json] [--span-log trace_dynamic.jsonl]
"""
from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from bench_common import emit, provenance, observability_snapshot

from repro.core.building_blocks import TreeScheme
from repro.core.planarity_scheme import CotreeEdgeCertificate, PlanarityScheme
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.views import assemble_view, structure_at
from repro.dynamic import DynamicAuditor
from repro.graphs.generators import delaunay_planar_graph, random_tree
from repro.observability import start_tracing, stop_tracing, write_span_log
from repro.observability.tracer import current as current_tracer

SEED = 20

# full mode: 50_000 remove/re-add cycles = 100_000 edge events
FULL = dict(mesh_n=1000, cycles=50_000, fault_every=2500, alarm_every=5000,
            sample_every=5000, tree_n=1_000_000, swaps=50, engine_events=60)
QUICK = dict(mesh_n=250, cycles=400, fault_every=100, alarm_every=200,
             sample_every=100, tree_n=20_000, swaps=10, engine_events=20)

MIN_SPEEDUP = 3.0


# ----------------------------------------------------------------------
# from-scratch comparator
# ----------------------------------------------------------------------
def reference_digest(auditor: DynamicAuditor) -> tuple[str, float]:
    """Digest of a full from-scratch verification of the auditor's state.

    Re-decides *every* node of the live network with the scheme's reference
    verifier against the auditor's current certificates — exactly what the
    pre-delta pipeline would do per event — and returns the decision digest
    in the auditor's own format plus the wall seconds it took.  Counted as
    a ``digest_check`` (and a ``digest_mismatch`` by the caller when it
    disagrees): the trace gate reads both counters.
    """
    network, scheme = auditor.network, auditor.scheme
    certificates = auditor.certificates
    start = time.perf_counter()
    decisions = {
        node: bool(scheme.verify(assemble_view(
            structure_at(network, node), certificates)))
        for node in network.nodes()}
    seconds = time.perf_counter() - start
    import hashlib
    id_of = network.id_of
    blob = "\n".join(f"{identifier}:{int(decision)}"
                     for identifier, decision in sorted(
                         (id_of(node), decision)
                         for node, decision in decisions.items()))
    return hashlib.sha256(blob.encode("ascii")).hexdigest(), seconds


def digest_check(auditor: DynamicAuditor) -> tuple[bool, float]:
    """Compare the incremental digest against the from-scratch one."""
    tracer = current_tracer()
    tracer.metrics.count("digest_checks")
    expected, seconds = reference_digest(auditor)
    ok = auditor.decisions_digest() == expected
    if not ok:
        tracer.metrics.count("digest_mismatches")
    return ok, seconds


# ----------------------------------------------------------------------
# section 1: planarity churn
# ----------------------------------------------------------------------
def cotree_edges(auditor: DynamicAuditor) -> list[tuple[int, int]]:
    """Cotree (chord) edges of the current assignment, by identifier pair."""
    chords = set()
    for cert in auditor.certificates.values():
        for edge_cert in cert.edge_certificates:
            if isinstance(edge_cert, CotreeEdgeCertificate):
                chords.add(tuple(sorted((edge_cert.a_id, edge_cert.b_id))))
    return sorted(chords)


def tree_edges(auditor: DynamicAuditor) -> list[tuple[int, int]]:
    chords = set(cotree_edges(auditor))
    network = auditor.network
    id_of = network.id_of
    edges = {tuple(sorted((id_of(u), id_of(v))))
             for u, v in network.graph.edges()}
    return sorted(edges - chords)


def long_link(auditor: DynamicAuditor, rng: random.Random) -> tuple[int, int]:
    """A miswired link: a non-adjacent identifier pair of the mesh.

    A Delaunay mesh is a near-triangulation, so an extra chord almost
    always breaks planarity — the repairer must either find a planar
    re-embedding or alarm.  The caller asserts ≥1 alarm across the run,
    not per probe, since boundary pairs can legitimately stay planar.
    """
    network = auditor.network
    graph = network.graph
    ids = sorted(network.ids())
    while True:
        a, b = rng.sample(ids, 2)
        if not graph.has_edge(network.node_of(a), network.node_of(b)):
            return tuple(sorted((a, b)))


def run_churn(params: dict) -> dict:
    n, cycles = params["mesh_n"], params["cycles"]
    print(f"planarity churn: Delaunay mesh n={n}, {2 * cycles} edge events")
    graph = delaunay_planar_graph(n, seed=SEED)
    network = Network(graph, seed=SEED)
    auditor = DynamicAuditor(network, PlanarityScheme())
    start = time.perf_counter()
    auditor.baseline()
    baseline_seconds = time.perf_counter() - start
    node_of = network.node_of

    chords = cotree_edges(auditor)
    trunk = tree_edges(auditor)
    rng = random.Random(SEED)
    events = fallbacks = alarms = redecided = 0
    mismatches = 0
    prove_samples: list[float] = []
    verify_samples: list[float] = []

    churn_seconds = 0.0
    for cycle in range(1, cycles + 1):
        if cycle % params["alarm_every"] == 0:
            # a miswired long link lands and is rolled back: the add must
            # alarm (the mesh is a near-triangulation, so the extra chord
            # breaks planarity), the removal must restore a clean audit
            a, b = long_link(auditor, rng)
            start = time.perf_counter()
            landed = auditor.apply_event("add_edge", node_of(a), node_of(b))
            report = auditor.apply_event("remove_edge", node_of(a), node_of(b))
            churn_seconds += time.perf_counter() - start
            alarms += len(landed.alarms)
            if report.alarms or not report.accept_all:
                raise SystemExit(
                    f"cycle {cycle}: network did not recover after the "
                    f"miswired link {a}-{b} was removed: {report}")
        else:
            if cycle % params["fault_every"] == 0:
                # a trunk (spanning-tree) edge flaps: the repair honestly
                # cascades to a counted full re-prove, then the re-add is
                # a cheap cotree event against the fresh tree
                a, b = rng.choice(trunk)
            else:
                a, b = rng.choice(chords)
            start = time.perf_counter()
            landed = auditor.apply_event("remove_edge", node_of(a), node_of(b))
            report = auditor.apply_event("add_edge", node_of(a), node_of(b))
            churn_seconds += time.perf_counter() - start
            if not report.accept_all:
                raise SystemExit(f"cycle {cycle}: spurious alarm on planar "
                                 f"churn of {a}-{b}: {report}")
        fallbacks += landed.fallback + report.fallback
        redecided += landed.redecided + report.redecided
        events += 2
        if landed.fallback or report.fallback:
            # the chord/trunk split moved under a full re-prove
            chords = cotree_edges(auditor)
            trunk = tree_edges(auditor)
        if cycle % params["sample_every"] == 0:
            ok, verify_seconds = digest_check(auditor)
            mismatches += not ok
            start = time.perf_counter()
            PlanarityScheme().prove(network)
            prove_samples.append(time.perf_counter() - start)
            verify_samples.append(verify_seconds)
            print(f"  cycle {cycle:6d}: digest {'ok' if ok else 'MISMATCH'}, "
                  f"from-scratch {prove_samples[-1] + verify_seconds:.3f}s, "
                  f"delta {1e3 * churn_seconds / events:.2f} ms/event")

    delta_per_event = churn_seconds / events
    fromscratch_per_event = (sum(prove_samples) + sum(verify_samples)) \
        / max(1, len(prove_samples))
    return {
        "scheme": "planarity-pls",
        "mesh_n": n,
        "edge_events": events,
        "baseline_seconds": round(baseline_seconds, 3),
        "churn_seconds": round(churn_seconds, 3),
        "delta_ms_per_event": round(1e3 * delta_per_event, 4),
        "fromscratch_ms_per_event": round(1e3 * fromscratch_per_event, 3),
        "speedup": round(fromscratch_per_event / delta_per_event, 1),
        "nodes_redecided": redecided,
        "nodes_redecided_per_event": round(redecided / events, 2),
        "repair_fallbacks": fallbacks,
        "alarms_on_miswired_links": alarms,
        "digest_checks": len(prove_samples),
        "digest_mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# section 2: million-node spot-check
# ----------------------------------------------------------------------
def run_spot_check(params: dict) -> dict:
    n, swaps = params["tree_n"], params["swaps"]
    print(f"spot-check: tree-pls leaf swaps at n={n}")
    graph = random_tree(n, seed=SEED)
    network = Network(graph, seed=SEED)
    auditor = DynamicAuditor(network, TreeScheme())
    start = time.perf_counter()
    auditor.baseline()
    baseline_seconds = time.perf_counter() - start
    print(f"  baseline prove+decide: {baseline_seconds:.1f}s")

    adj = graph._adj
    certificates = auditor.certificates
    leaves = [node for node in adj
              if len(adj[node]) == 1 and certificates[node].subtree_size == 1]
    rng = random.Random(SEED)
    rng.shuffle(leaves)
    done = fallbacks = 0
    swap_seconds = 0.0
    for leaf in leaves:
        if done == swaps:
            break
        parent = next(iter(adj[leaf]))
        anchors = [w for w in adj[parent] if w != leaf]
        if not anchors:
            continue
        start = time.perf_counter()
        report = auditor.apply_events([("remove_edge", leaf, parent),
                                       ("add_edge", leaf, anchors[0])])
        swap_seconds += time.perf_counter() - start
        fallbacks += report.fallback
        done += 1
        if not (report.member and report.accept_all):
            raise SystemExit(f"leaf swap broke the tree audit: {report}")

    ok, verify_seconds = digest_check(auditor)
    fromscratch_per_event = verify_seconds  # verify alone, prove is ~free
    delta_per_event = swap_seconds / (2 * done)
    print(f"  {done} swaps ({2 * done} events), digest "
          f"{'ok' if ok else 'MISMATCH'}, "
          f"delta {1e3 * delta_per_event:.2f} ms/event vs "
          f"from-scratch verify {verify_seconds:.1f}s")
    return {
        "scheme": "tree-pls",
        "tree_n": n,
        "edge_events": 2 * done,
        "baseline_seconds": round(baseline_seconds, 3),
        "delta_ms_per_event": round(1e3 * delta_per_event, 3),
        "fromscratch_ms_per_event": round(1e3 * fromscratch_per_event, 3),
        "speedup": round(fromscratch_per_event / delta_per_event, 1),
        "repair_fallbacks": fallbacks,
        "digest_checks": 1,
        "digest_mismatches": 0 if ok else 1,
    }


# ----------------------------------------------------------------------
# section 3: engine delta invalidation
# ----------------------------------------------------------------------
def run_engine_section(params: dict) -> dict:
    """Warm (delta-invalidating) vs cold engine cache refresh per event.

    What the engine's delta layer replaces is starting the network's cache
    record afresh on every version bump: the structure list
    and the compiled :class:`VectorContext` used to be rebuilt from scratch
    per event.  The timed quantity is therefore exactly that refresh —
    re-deriving both caches after each event — warm through the delta patch
    vs cold through a full rebuild.  Kernel decisions are compared (not
    timed) between the two engines every event: the patched caches must be
    indistinguishable from freshly built ones.
    """
    events = params["engine_events"]
    n = params["mesh_n"]
    print(f"engine delta invalidation: n={n}, {events} events, "
          "warm (delta patch) vs cold (full rebuild) cache refresh")
    graph = delaunay_planar_graph(n, seed=SEED + 1)
    network = Network(graph, seed=SEED + 1)
    scheme = PlanarityScheme()
    auditor = DynamicAuditor(network, scheme)
    auditor.baseline()
    chords = cotree_edges(auditor)
    node_of = network.node_of
    rng = random.Random(SEED + 1)

    warm = SimulationEngine(backend="vectorized")
    cold = SimulationEngine(backend="vectorized")
    warm.structures(network)
    warm._vector_context(network)  # prime the caches the delta layer patches
    warm_seconds = cold_seconds = 0.0
    divergence = 0
    flapping: tuple[int, int] | None = None
    for step in range(events):
        if flapping is None:
            flapping = rng.choice(chords)
            op = "remove_edge"
        else:
            op = "add_edge"
        a, b = flapping
        auditor.apply_event(op, node_of(a), node_of(b))
        if op == "add_edge":
            flapping = None

        start = time.perf_counter()
        warm.structures(network)
        warm._vector_context(network)
        warm_seconds += time.perf_counter() - start

        cold.clear_caches()
        start = time.perf_counter()
        cold.structures(network)
        cold._vector_context(network)
        cold_seconds += time.perf_counter() - start

        warm_decisions = warm.verify(
            scheme, network, auditor.certificates).decisions
        cold_decisions = cold.verify(
            scheme, network, auditor.certificates).decisions
        divergence += warm_decisions != cold_decisions
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(f"  warm {1e3 * warm_seconds / events:.2f} ms/event, "
          f"cold {1e3 * cold_seconds / events:.2f} ms/event, "
          f"divergent events: {divergence}")
    return {
        "scheme": "planarity-pls",
        "mesh_n": n,
        "events": events,
        "warm_ms_per_event": round(1e3 * warm_seconds / events, 3),
        "cold_ms_per_event": round(1e3 * cold_seconds / events, 3),
        "speedup": round(speedup, 2),
        "divergent_events": divergence,
    }


# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI smoke job")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_dynamic.json")
    parser.add_argument("--span-log", type=Path, default=None,
                        help="also write the span log (JSONL) here")
    args = parser.parse_args()
    params = QUICK if args.quick else FULL

    # span budget: ~3 spans per event (repair, radius1_verify, delta_compile)
    tracer = start_tracing(max_spans=max(200_000, 8 * params["cycles"]))
    try:
        churn = run_churn(params)
        spot = run_spot_check(params)
        engine = run_engine_section(params)
    finally:
        stop_tracing()

    emit([{"section": "planarity churn", "n": churn["mesh_n"],
           "events": churn["edge_events"],
           "delta ms/event": churn["delta_ms_per_event"],
           "from-scratch ms/event": churn["fromscratch_ms_per_event"],
           "speedup": churn["speedup"],
           "fallbacks": churn["repair_fallbacks"]},
          {"section": "tree spot-check", "n": spot["tree_n"],
           "events": spot["edge_events"],
           "delta ms/event": spot["delta_ms_per_event"],
           "from-scratch ms/event": spot["fromscratch_ms_per_event"],
           "speedup": spot["speedup"],
           "fallbacks": spot["repair_fallbacks"]},
          {"section": "engine warm vs cold", "n": engine["mesh_n"],
           "events": engine["events"],
           "delta ms/event": engine["warm_ms_per_event"],
           "from-scratch ms/event": engine["cold_ms_per_event"],
           "speedup": engine["speedup"], "fallbacks": 0}],
         title="dynamic overlay: steady-state cost per edge event")

    failures = []
    mismatches = churn["digest_mismatches"] + spot["digest_mismatches"]
    if mismatches:
        failures.append(f"{mismatches} decision digest mismatches")
    if engine["divergent_events"]:
        failures.append(f"engine decisions diverged on "
                        f"{engine['divergent_events']} events")
    if churn["repair_fallbacks"] < 1:
        failures.append("no repair fallback was exercised — the counter "
                        "cannot be shown honest")
    if churn["alarms_on_miswired_links"] < 1:
        failures.append("no miswired link raised an alarm")
    for section in (churn, spot):
        if section["speedup"] < MIN_SPEEDUP:
            failures.append(f"{section['scheme']}: speedup "
                            f"{section['speedup']}x < {MIN_SPEEDUP}x")
    if failures:
        raise SystemExit("; ".join(failures))
    print(f"gates passed: 0/{churn['digest_checks'] + spot['digest_checks']} "
          f"digest mismatches, {churn['repair_fallbacks']} honest fallbacks, "
          f"{churn['alarms_on_miswired_links']} alarms, speedups "
          f"{churn['speedup']}x / {spot['speedup']}x / {engine['speedup']}x")

    payload = {
        "benchmark": ("streamed dynamic-overlay audit: delta path "
                      "(journal -> repair -> radius-1 re-decide) vs "
                      "from-scratch re-prove + re-verify"),
        "schemes": ["planarity-pls", "tree-pls"],
        "seed": SEED,
        "quick": args.quick,
        "min_speedup_gate": MIN_SPEEDUP,
        "provenance": provenance(observability=observability_snapshot(tracer)),
        "planarity_churn": churn,
        "million_node_spot_check": spot,
        "engine_delta_invalidation": engine,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.span_log is not None:
        write_span_log(tracer, str(args.span_log))
        print(f"wrote {args.span_log}")


if __name__ == "__main__":
    main()
