"""Bulk-verification benchmark: the PR-1 engine path vs the vectorized kernels.

Runs fixed-seed bulk sweeps over every scheme that ships a kernel, in three
sections:

* **building-blocks** — ``path-graph-pls`` on path graphs and ``tree-pls`` on
  random trees (the PR-2 sweep);
* **non-planarity** — ``non-planarity-pls`` on Kuratowski witness graphs
  (honest verification plus corrupted batches) and forged-certificate
  attacks on planar no-instances — the full kernel added in PR 3;
* **planarity** — ``planarity-pls`` on Delaunay triangulations (honest plus
  corrupted batches): the accept-heavy shape.  Full kernel since PR 5 —
  every Algorithm 2 phase runs as array passes, so this section must report
  **zero fallback nodes** (asserted below: a prefilter regression fails the
  benchmark instead of silently reverting to parity);
* **planarity-adversarial** — the reject-heavy sweep the PR-5 acceptance
  target is measured on: honest certificates corrupted in the *late*
  phases (interval endpoints, Euler-tour indices, chord copies), which
  survive the old prefilter untouched and used to force a full per-node
  reference reconstruction at almost every node;
* **planarity-shuffle** — donor-pool shuffle attacks on non-planar
  siblings: nodes die in the spanning-tree phase, where the reference
  verifier is also cheap, so this section tracks the kernel's early-exit
  overhead rather than a headline win;
* **attack-nonplanarity / attack-universal / attack-outerplanar** — the
  PR-6 batched-sweep targets: the soundness-experiment inner-loop shape
  (small instances, hundreds of corrupted assignments per network), where
  per-call dispatch dominates the per-trial kernel work and
  ``count_accepting_batch`` turns a whole sweep into one compile plus a
  couple of kernel invocations.

Every section runs the same instances, assignments, and RNG streams through
the *same* :class:`~repro.distributed.engine.SimulationEngine` machinery
three times — ``backend="reference"`` (cached structural views, one Python
verifier call per node), ``backend="vectorized"`` (one kernel invocation per
``verify``/``count_accepting`` call), and the PR-6 *batched sweep* path
(:meth:`~repro.distributed.engine.SimulationEngine.verify_batch` /
``count_accepting_batch``: all of a section's networks and assignments
concatenated into one super-CSR, a handful of kernel invocations per
section) — asserts per-node decisions and accept counts match exactly
across all three, and records per-section wall-clock, speedups, and the
vectorized path's coverage counters
(:attr:`~repro.distributed.engine.SimulationEngine.backend_counters`) in
``BENCH_vectorized.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_vectorized.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_vectorized.py --quick    # CI smoke sizes
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import time
from pathlib import Path
from typing import Any

from bench_common import observability_snapshot, provenance
from repro.core import PathOuterplanarScheme, random_path_outerplanar_graph
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.observability import Tracer, install, write_span_log
from repro.graphs.generators import (
    delaunay_planar_graph,
    k5_subdivision,
    path_graph,
    planar_plus_random_edges,
    random_tree,
)

SEED = 2020  # PODC 2020

FULL_SIZES = [300, 1000, 3000]
FULL_PLANARITY_SIZES = [300, 1000, 2000]
FULL_TRIALS = 40
FULL_ATTACK_TRIALS = 250
QUICK_SIZES = [120, 300]
QUICK_PLANARITY_SIZES = [120, 300]
QUICK_TRIALS = 8
QUICK_ATTACK_TRIALS = 40


def corrupted_assignment(honest: dict, nodes: list, rng: random.Random) -> dict:
    """One adversarial variant of ``honest``: a few swaps plus one dropped
    certificate — enough to flip a handful of per-node decisions."""
    certificates = dict(honest)
    for _ in range(3):
        a, b = rng.sample(nodes, 2)
        certificates[a], certificates[b] = certificates[b], certificates[a]
    certificates[rng.choice(nodes)] = None
    return certificates


def pool_assignment(pool: list, nodes: list, rng: random.Random) -> dict:
    """A forged assignment drawn from a pool of honest donor certificates —
    the inner-loop shape of :func:`random_certificate_attack`."""
    return {node: pool[rng.randrange(len(pool))] for node in nodes}


def late_phase_variants(honest: dict, rng: random.Random) -> dict:
    """One per-node corrupted variant targeting the phases only PR 5 vectorized.

    Interval endpoints, Euler-tour indices, and chord copies survive the
    spanning-tree and path-consistency prefilter untouched, so while the
    planarity kernel was a prefilter every node seeing such a corruption
    fell back to a full per-node reference reconstruction — the reject-heavy
    shape this benchmark's acceptance target is measured on.  Variants are
    built once per instance and recycled across trials (the established
    attack idiom the compiler's per-object row memoisation is designed
    around), and every mutation keeps the certificate exactly representable:
    the sweep asserts zero fallback.
    """
    variants = {}
    for node, certificate in honest.items():
        entries = list(certificate.edge_certificates)
        if not entries:
            variants[node] = certificate
            continue
        index = rng.randrange(len(entries))
        entry = entries[index]
        op = rng.randrange(3)
        if op == 0 and entry.intervals:  # corrupted interval endpoint
            intervals = list(entry.intervals)
            at = rng.randrange(len(intervals))
            iv_index, low, high = intervals[at]
            intervals[at] = (iv_index, low, high + rng.choice([-1, 1, 2]))
            entries[index] = dataclasses.replace(entry,
                                                 intervals=tuple(intervals))
        elif op == 1:
            if entry.is_tree_edge:  # off-by-one descend index
                entries[index] = dataclasses.replace(
                    entry, descend_index=entry.descend_index + rng.choice([-1, 1]))
            else:  # swapped DFS-mapping copies
                entries[index] = dataclasses.replace(
                    entry, copy_a=entry.copy_b, copy_b=entry.copy_a)
        else:
            if entry.is_tree_edge:  # swapped tour indices
                entries[index] = dataclasses.replace(
                    entry, descend_index=entry.return_index,
                    return_index=entry.descend_index)
            else:  # shifted chord copy
                entries[index] = dataclasses.replace(
                    entry, copy_b=entry.copy_b + rng.choice([-1, 1]))
        variants[node] = dataclasses.replace(
            certificate, edge_certificates=tuple(entries))
    return variants


def late_phase_assignment(honest: dict, variants: dict, nodes: list,
                          rng: random.Random) -> dict:
    """One reject-heavy trial: ~half the nodes play their corrupted variant."""
    return {node: variants[node] if rng.random() < 0.5 else honest[node]
            for node in nodes}


def _leg(section: str, scheme_name: str, scheme, network, honest, batch) -> dict:
    return {"section": section, "scheme": scheme, "scheme_name": scheme_name,
            "n": network.size, "network": network, "honest": honest,
            "batch": batch}


def build_attack_sweeps(attack_trials: int) -> list[dict[str, Any]]:
    """The soundness-experiment inner-loop legs the batched API targets.

    Small networks, hundreds of corrupted assignments each: the per-trial
    kernel work is tiny, so per-call engine dispatch (certificate-table
    build, kernel invocation, result unpacking) dominates the per-call
    vectorized path, and staging the whole sweep as one super-CSR batch is
    where ``count_accepting_batch`` earns its headline speedup.
    """
    registry = default_registry()
    legs = []

    # non-planarity: Kuratowski witnesses a few dozen nodes wide, the shape
    # the paper's soundness experiments corrupt hundreds of times over
    nps = registry.create("non-planarity-pls")
    for subdivisions in (4, 8):
        graph = k5_subdivision(subdivisions, seed=SEED + subdivisions)
        network = Network(graph, seed=SEED + subdivisions)
        honest = nps.prove(network)
        nodes = list(honest)
        rng = random.Random(SEED * 43 + subdivisions)
        batch = [corrupted_assignment(honest, nodes, rng)
                 for _ in range(attack_trials)]
        legs.append(_leg("attack-nonplanarity", "non-planarity-pls", nps,
                         network, honest, batch))

    # universal map scheme on small triangulations
    ums = registry.create("universal-map-pls")
    for n in (30, 60):
        graph = delaunay_planar_graph(n, seed=SEED + n)
        network = Network(graph, seed=SEED + n)
        honest = ums.prove(network)
        nodes = list(honest)
        rng = random.Random(SEED * 47 + n)
        batch = [corrupted_assignment(honest, nodes, rng)
                 for _ in range(attack_trials)]
        legs.append(_leg("attack-universal", "universal-map-pls", ums,
                         network, honest, batch))

    # path-outerplanarity with explicit witnesses (the witness is
    # prover-side only, so verification — and the kernel — are shared
    # across the per-network scheme instances)
    for n in (40, 80):
        graph, witness = random_path_outerplanar_graph(n, seed=SEED + n)
        pos = PathOuterplanarScheme(witness=witness)
        network = Network(graph, seed=SEED + n)
        honest = pos.prove(network)
        nodes = list(honest)
        rng = random.Random(SEED * 53 + n)
        batch = [corrupted_assignment(honest, nodes, rng)
                 for _ in range(attack_trials)]
        legs.append(_leg("attack-outerplanar", "path-outerplanarity-pls", pos,
                         network, honest, batch))
    return legs


def build_sweep(sizes: list[int], planarity_sizes: list[int],
                trials: int) -> list[dict[str, Any]]:
    """Instances, honest assignments, and corrupted batches (untimed setup)."""
    registry = default_registry()
    legs = []
    for n in sizes:
        for scheme_name, graph in [("path-graph-pls", path_graph(n)),
                                   ("tree-pls", random_tree(n, seed=SEED + n))]:
            scheme = registry.create(scheme_name)
            network = Network(graph, seed=SEED + n)
            honest = scheme.prove(network)
            nodes = list(honest)
            rng = random.Random(SEED * 31 + n)
            batch = [corrupted_assignment(honest, nodes, rng)
                     for _ in range(trials)]
            legs.append(_leg("building-blocks", scheme_name, scheme, network,
                             honest, batch))

    nps = registry.create("non-planarity-pls")
    for n in sizes:
        # a K5 subdivision with ~n nodes (5 branch vertices, 10 subdivided
        # edges): the witness shape whose honest extraction is linear
        witness = k5_subdivision(max(1, (n - 5) // 10), seed=SEED + n)
        network = Network(witness, seed=SEED + n)
        honest = nps.prove(network)
        nodes = list(honest)
        rng = random.Random(SEED * 37 + n)
        batch = [corrupted_assignment(honest, nodes, rng) for _ in range(trials)]
        # forged certificates on a planar no-instance (soundness inner loop)
        planar = delaunay_planar_graph(n, seed=SEED + n)
        planar_net = Network(planar, seed=SEED + n)
        pool = list(honest.values())
        forged = [pool_assignment(pool, planar_net.nodes(), rng)
                  for _ in range(max(2, trials // 4))]
        legs.append(_leg("non-planarity", "non-planarity-pls", nps, network,
                         honest, batch))
        legs.append(_leg("non-planarity", "non-planarity-pls", nps, planar_net,
                         None, forged))

    pls = registry.create("planarity-pls")
    for n in planarity_sizes:
        planar = delaunay_planar_graph(n, seed=SEED + n)
        network = Network(planar, seed=SEED + n)
        honest = pls.prove(network)
        nodes = list(honest)
        rng = random.Random(SEED * 41 + n)
        batch = [corrupted_assignment(honest, nodes, rng)
                 for _ in range(max(2, trials // 4))]
        variants = late_phase_variants(honest, rng)
        late = [late_phase_assignment(honest, variants, nodes, rng)
                for _ in range(trials)]
        nonplanar = planar_plus_random_edges(n, extra_edges=3, seed=SEED + n)
        nonplanar_net = Network(nonplanar, seed=SEED + n)
        pool = list(honest.values())
        shuffled = [pool_assignment(pool, nonplanar_net.nodes(), rng)
                    for _ in range(trials)]
        legs.append(_leg("planarity", "planarity-pls", pls, network, honest,
                         batch))
        legs.append(_leg("planarity-adversarial", "planarity-pls", pls,
                         network, None, late))
        legs.append(_leg("planarity-shuffle", "planarity-pls", pls,
                         nonplanar_net, None, shuffled))
    return legs


#: backend_counters keys surfaced per section in BENCH_vectorized.json
#: (reference_calls / reference_nodes count whole-network reference-loop
#: passes — always zero on the vectorized and batched passes of this sweep,
#: kept in the payload so a coverage regression is visible in the diff)
_COUNTER_KEYS = ("kernel_calls", "kernel_nodes", "fallback_nodes",
                 "fallback_networks", "reference_calls", "reference_nodes")


def run_sweep(legs: list[dict[str, Any]],
              backend: str) -> tuple[list[Any], dict[str, float], dict[str, dict[str, int]]]:
    """Run the sweep through one backend.

    Returns ``(outcomes, seconds, counters)`` with wall-clock and the
    engine's vectorized-path coverage counters broken down per section (the
    counters stay all-zero on the reference backend).
    """
    engine = SimulationEngine(seed=SEED, backend=backend)
    outcomes: list[Any] = []
    seconds: dict[str, float] = {}
    counters: dict[str, dict[str, int]] = {}
    for leg in legs:
        scheme, network = leg["scheme"], leg["network"]
        engine.reset_backend_counters()
        start = time.perf_counter()
        decisions = None
        if leg["honest"] is not None:
            result = engine.verify(scheme, network, leg["honest"])
            decisions = [[network.id_of(node), accepted]
                         for node, accepted in result.decisions.items()]
        counts = [engine.count_accepting(scheme, network, certificates)
                  for certificates in leg["batch"]]
        seconds[leg["section"]] = seconds.get(leg["section"], 0.0) \
            + time.perf_counter() - start
        section_counters = counters.setdefault(
            leg["section"], dict.fromkeys(_COUNTER_KEYS, 0))
        counters_now = engine.backend_counters
        for key in _COUNTER_KEYS:
            section_counters[key] += counters_now[key]
        outcomes.append([leg["scheme_name"], leg["n"], decisions, counts])
    return outcomes, seconds, counters


def run_batched_sweep(legs: list[dict[str, Any]],
                      ) -> tuple[list[Any], dict[str, float], dict[str, dict[str, int]]]:
    """Run the sweep through ``verify_batch`` / ``count_accepting_batch``.

    Legs are grouped by ``(section, scheme_name)`` and each group is staged
    as *one* batch: every honest assignment through a single
    :meth:`~repro.distributed.engine.SimulationEngine.verify_batch` call and
    every corrupted/forged assignment through a single
    ``count_accepting_batch`` call, so a whole section costs a couple of
    kernel invocations instead of one per trial.  Outcomes are unflattened
    back into the per-leg layout of :func:`run_sweep` so the three passes
    compare with ``==``.
    """
    engine = SimulationEngine(seed=SEED, backend="vectorized")
    outcomes: list[Any] = [None] * len(legs)
    seconds: dict[str, float] = {}
    counters: dict[str, dict[str, int]] = {}
    groups: dict[tuple[str, str], list[int]] = {}
    for index, leg in enumerate(legs):
        groups.setdefault((leg["section"], leg["scheme_name"]), []).append(index)
    for (section, _scheme_name), indices in groups.items():
        scheme = legs[indices[0]]["scheme"]
        engine.reset_backend_counters()
        start = time.perf_counter()
        verify_items = [(legs[i]["network"], legs[i]["honest"])
                        for i in indices if legs[i]["honest"] is not None]
        results = iter(engine.verify_batch(scheme, verify_items)
                       if verify_items else [])
        count_items = [(legs[i]["network"], certificates)
                       for i in indices for certificates in legs[i]["batch"]]
        counts = engine.count_accepting_batch(scheme, count_items)
        position = 0
        for i in indices:
            leg = legs[i]
            decisions = None
            if leg["honest"] is not None:
                network = leg["network"]
                result = next(results)
                decisions = [[network.id_of(node), accepted]
                             for node, accepted in result.decisions.items()]
            leg_counts = counts[position:position + len(leg["batch"])]
            position += len(leg["batch"])
            outcomes[i] = [leg["scheme_name"], leg["n"], decisions, leg_counts]
        seconds[section] = seconds.get(section, 0.0) \
            + time.perf_counter() - start
        section_counters = counters.setdefault(
            section, dict.fromkeys(_COUNTER_KEYS, 0))
        counters_now = engine.backend_counters
        for key in _COUNTER_KEYS:
            section_counters[key] += counters_now[key]
    return outcomes, seconds, counters


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI smoke job")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_vectorized.json")
    parser.add_argument("--span-log", type=Path, default=None,
                        help="also write the batched pass's JSONL span log "
                             "(readable by scripts/trace_report.py)")
    args = parser.parse_args()

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    planarity_sizes = QUICK_PLANARITY_SIZES if args.quick else FULL_PLANARITY_SIZES
    trials = QUICK_TRIALS if args.quick else FULL_TRIALS
    attack_trials = QUICK_ATTACK_TRIALS if args.quick else FULL_ATTACK_TRIALS

    print(f"building sweep instances (sizes={sizes}, "
          f"planarity_sizes={planarity_sizes}, trials={trials}, "
          f"attack_trials={attack_trials}) ...")
    legs = build_sweep(sizes, planarity_sizes, trials) \
        + build_attack_sweeps(attack_trials)

    print("running engine, reference backend ...")
    reference_outcomes, reference_seconds, _ = run_sweep(legs, "reference")
    print(f"  {sum(reference_seconds.values()):.2f}s")
    print("running engine, vectorized backend ...")
    vectorized_outcomes, vectorized_seconds, counters = run_sweep(legs, "vectorized")
    print(f"  {sum(vectorized_seconds.values()):.2f}s")
    print("running engine, batched sweeps (traced) ...")
    # the batched pass runs under an enabled tracer: its per-phase span
    # timings and fallback attribution land in the payload's provenance
    # block (and in --span-log), and running it traced doubles as the
    # tracing-on/off equivalence check — outcomes must still match the
    # untraced reference and vectorized passes exactly
    tracer = Tracer(enabled=True)
    previous = install(tracer)
    try:
        batched_outcomes, batched_seconds, batched_counters = run_batched_sweep(legs)
    finally:
        install(previous)
    print(f"  {sum(batched_seconds.values()):.2f}s")
    if args.span_log is not None:
        write_span_log(tracer, str(args.span_log))
        print(f"wrote {args.span_log}")

    identical = (reference_outcomes == vectorized_outcomes
                 and reference_outcomes == batched_outcomes)
    sections = {}
    for section in reference_seconds:
        ref, vec = reference_seconds[section], vectorized_seconds[section]
        bat = batched_seconds[section]
        sections[section] = {
            "reference_seconds": round(ref, 3),
            "vectorized_seconds": round(vec, 3),
            "speedup": round(ref / vec, 2) if vec else float("inf"),
            **counters[section],
            "batched_seconds": round(bat, 3),
            "batched_speedup_vs_vectorized":
                round(vec / bat, 2) if bat else float("inf"),
            "batched": batched_counters[section],
        }
        print(f"  {section:22s} reference {ref:6.2f}s  vectorized {vec:6.2f}s  "
              f"batched {bat:6.2f}s  "
              f"speedup {sections[section]['speedup']:.2f}x  "
              f"batched/vectorized "
              f"{sections[section]['batched_speedup_vs_vectorized']:.2f}x  "
              f"kernel_calls {batched_counters[section]['kernel_calls']}  "
              f"fallback_nodes {counters[section]['fallback_nodes']}")
    total_ref = sum(reference_seconds.values())
    total_vec = sum(vectorized_seconds.values())
    total_bat = sum(batched_seconds.values())
    speedup = total_ref / total_vec if total_vec else float("inf")
    batched_speedup = total_vec / total_bat if total_bat else float("inf")
    print(f"outcomes identical: {identical}; overall speedup: {speedup:.2f}x; "
          f"batched over per-call vectorized: {batched_speedup:.2f}x")
    if not identical:
        raise SystemExit("vectorized outcomes diverge from the reference backend")
    # coverage gate (CI runs this in --quick mode): the planarity kernel is
    # full — its accept-heavy batch must be decided entirely in array form,
    # so any prefilter regression fails fast instead of reverting to parity.
    # The batched path must additionally stage each section-group as one
    # super-CSR batch: a handful of kernel invocations per section, never
    # one per trial, and never a per-item peel on representable sweeps.
    for section in ("planarity", "planarity-adversarial", "planarity-shuffle"):
        if counters[section]["fallback_nodes"] or counters[section]["fallback_networks"]:
            raise SystemExit(
                f"planarity kernel coverage regression: section {section!r} "
                f"took a fallback ({counters[section]})")
        if (batched_counters[section]["fallback_nodes"]
                or batched_counters[section]["fallback_networks"]):
            raise SystemExit(
                f"batched sweep coverage regression: section {section!r} "
                f"took a fallback ({batched_counters[section]})")
    # the attack sweeps run full-coverage kernels on representable
    # certificates: they must never peel an item to the reference path
    for section in ("attack-nonplanarity", "attack-universal",
                    "attack-outerplanar"):
        if (batched_counters[section]["fallback_nodes"]
                or batched_counters[section]["fallback_networks"]):
            raise SystemExit(
                f"batched sweep coverage regression: section {section!r} "
                f"took a fallback ({batched_counters[section]})")
    for section, section_counters in batched_counters.items():
        if section_counters["kernel_calls"] >= 10:
            raise SystemExit(
                f"batched sweep regression: section {section!r} took "
                f"{section_counters['kernel_calls']} kernel calls "
                "(expected single digits per sweep)")
    # PR-6 acceptance: the batched path must beat per-call vectorized by
    # >= 2x on at least two sections (the attack sweeps are built to be
    # exactly that shape).  Wall-clock on shared CI boxes is noisy, so the
    # gate only runs on the full-size sweep.
    if not args.quick:
        twice = [section for section, payload in sections.items()
                 if payload["batched_speedup_vs_vectorized"] >= 2.0]
        if len(twice) < 2:
            raise SystemExit(
                "batched sweep performance regression: expected >= 2 "
                f"sections at >= 2x over per-call vectorized, got {twice}")

    summary = [[o[0], o[1],
                None if o[2] is None else sum(d for _, d in o[2]),
                None if o[2] is None else len(o[2]),
                min(o[3]), max(o[3])] for o in reference_outcomes]
    payload = {
        "benchmark": "bulk-verification sweeps, engine reference backend vs vectorized kernels",
        "schemes": sorted({o[0] for o in reference_outcomes}),
        "seed": SEED,
        "quick": args.quick,
        "provenance": provenance(observability=observability_snapshot(tracer)),
        "sweep": {"sizes": sizes, "planarity_sizes": planarity_sizes,
                  "corrupted_assignments_per_instance": trials,
                  "attack_assignments_per_instance": attack_trials},
        "reference_seconds": round(total_ref, 3),
        "vectorized_seconds": round(total_vec, 3),
        "speedup": round(speedup, 2),
        "batched_seconds": round(total_bat, 3),
        "batched_speedup_vs_vectorized": round(batched_speedup, 2),
        "sections": sections,
        "outcomes_identical": identical,
        # scheme, n, accepting nodes (honest; None for attack-only legs),
        # n nodes, min/max accept count over the adversarial batch
        "outcome_summary": summary,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
