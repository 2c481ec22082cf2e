"""Headline engine benchmark: the seed per-node loop vs the SimulationEngine.

Runs a fixed-seed completeness + soundness sweep over the two headline
schemes (``planarity-pls`` and ``non-planarity-pls``) twice:

* **reference** — the seed code path: one
  :func:`~repro.distributed.verifier.run_verification` per completeness
  instance and per attack trial, each call rebuilding every node's local view
  and re-encoding every certificate;
* **engine** — the same calls routed through a cold
  :class:`~repro.distributed.engine.SimulationEngine` (batched structural
  views, prover-artifact and size-accounting caches, decision-only attack
  evaluation).

Both passes consume identical RNG streams, so the accept/reject outcomes —
per-node decisions on the completeness legs, per-attack best counts on the
soundness legs — must match byte for byte; the script asserts this and
records the wall-clock of each pass in ``BENCH_engine.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sweep (n up to 2000)
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke sizes
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from typing import Any

from bench_common import provenance
from repro.adversary.attacks import random_certificate_attack, transplant_attack
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.distributed.verifier import run_verification
from repro.graphs.generators import delaunay_planar_graph, k5_subdivision
from repro.graphs.graph import Graph

SEED = 2020  # PODC 2020

#: full-sweep sizes for the planarity legs and the non-planarity attacks
FULL_SIZES = [300, 700, 1200, 2000]
#: honest Kuratowski extraction exits early on witness instances (linear, see
#: repro.graphs.kuratowski), so the completeness legs reach n >= 1000 now
FULL_NP_SIZES = [300, 1000]
FULL_TRIALS = 8

QUICK_SIZES = [120, 240]
QUICK_NP_SIZES = [60]
QUICK_TRIALS = 3

#: sizes of the process-pool section (the planarity attack legs re-proven
#: inside each worker, so the heavier sweep sizes are left out)
FULL_POOL_SIZES = [300, 700]
QUICK_POOL_SIZES = [120, 240]
POOL_WORKERS = 2

#: sizes of the Kuratowski-minimiser section: planar-plus-random-edges
#: instances take the *general-input* path of find_kuratowski_subdivision
#: (divide-and-conquer edge halving since PR 5 — the greedy loop needed
#: ~35 s for the n = 1000 instance)
FULL_KURATOWSKI_SIZES = [300, 1000, 2000]
QUICK_KURATOWSKI_SIZES = [120]


def _add_extra_edges(planar: Graph, count: int, seed: int) -> Graph:
    """Return ``planar`` plus ``count`` fresh random edges (same node set)."""
    rng = random.Random(seed)
    graph = planar.copy()
    nodes = list(graph.nodes())
    added = 0
    while added < count:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return graph


def build_sweep(sizes: list[int], np_sizes: list[int]) -> dict[str, Any]:
    """Build every instance and honest certificate assignment (untimed setup)."""
    registry = default_registry()
    pls = registry.create("planarity-pls")
    nps = registry.create("non-planarity-pls")

    instances: dict[str, Any] = {"pls": pls, "nps": nps, "legs": []}
    for n in sizes:
        planar = delaunay_planar_graph(n, seed=SEED + n)
        planar_net = Network(planar, seed=SEED + n)
        nonplanar = _add_extra_edges(planar, 3, seed=SEED + n)
        nonplanar_net = Network(
            nonplanar, ids={node: planar_net.id_of(node) for node in nonplanar.nodes()})
        instances["legs"].append({
            "kind": "planarity",
            "n": planar.number_of_nodes(),
            "planar_net": planar_net,
            "nonplanar_net": nonplanar_net,
            "honest": pls.prove(planar_net),
        })
    np_pool: list[Any] = []
    for n in np_sizes:
        # a K5 subdivision with ~n nodes (5 branch vertices + 10 subdivided edges)
        subdivisions = max(1, (n - 5) // 10)
        witness_graph = k5_subdivision(subdivisions, seed=SEED + n)
        witness_net = Network(witness_graph, seed=SEED + n)
        honest = nps.prove(witness_net)
        np_pool.extend(honest.values())
        instances["legs"].append({
            "kind": "nonplanarity",
            "n": witness_graph.number_of_nodes(),
            "witness_net": witness_net,
            "honest": honest,
        })
    instances["np_pool"] = np_pool
    return instances


def run_sweep(instances: dict[str, Any], trials: int,
              engine: SimulationEngine | None) -> tuple[list[Any], float]:
    """Run the sweep through the reference loop (``engine=None``) or the engine.

    Returns ``(outcomes, seconds)``; outcomes are plain data and must be
    identical between the two modes.
    """
    pls, nps = instances["pls"], instances["nps"]
    np_pool = instances["np_pool"]
    outcomes: list[Any] = []

    def verify(scheme, network, certificates):
        if engine is not None:
            return engine.verify(scheme, network, certificates)
        return run_verification(scheme, network, certificates)

    start = time.perf_counter()
    for leg in instances["legs"]:
        if leg["kind"] == "planarity":
            planar_net, nonplanar_net = leg["planar_net"], leg["nonplanar_net"]
            honest = leg["honest"]
            # completeness: every node of the planar instance accepts
            result = verify(pls, planar_net, honest)
            outcomes.append(["pls-completeness", leg["n"],
                             [[i, d] for i, d in
                              ((planar_net.id_of(v), dec) for v, dec in result.decisions.items())]])
            # soundness: transplant the honest certificates onto the
            # non-planar sibling, then shuffle them randomly
            transplant = transplant_attack(pls, nonplanar_net, honest,
                                           seed=SEED, engine=engine)

            donor_nodes = list(honest)

            def factory(rng, net, node, donor=honest, donor_nodes=donor_nodes):
                return donor[rng.choice(donor_nodes)]

            shuffled = random_certificate_attack(pls, nonplanar_net, factory,
                                                 trials=trials, seed=SEED,
                                                 engine=engine)
            outcomes.append(["pls-soundness", leg["n"],
                             transplant.best_accepting_nodes, transplant.fooled,
                             shuffled.best_accepting_nodes, shuffled.fooled])
            # non-planarity soundness: the planar instance is the no-instance;
            # forge certificates from the honest Kuratowski pool
            def np_factory(rng, net, node, pool=np_pool):
                return pool[rng.randrange(len(pool))]

            forged = random_certificate_attack(nps, planar_net, np_factory,
                                               trials=trials, seed=SEED,
                                               engine=engine)
            outcomes.append(["nps-soundness", leg["n"],
                             forged.best_accepting_nodes, forged.fooled])
        else:
            witness_net, honest = leg["witness_net"], leg["honest"]
            result = verify(nps, witness_net, honest)
            outcomes.append(["nps-completeness", leg["n"],
                             [[i, d] for i, d in
                              ((witness_net.id_of(v), dec) for v, dec in result.decisions.items())]])
    return outcomes, time.perf_counter() - start


def _pool_attack_leg(spec: tuple[int, int, int]) -> list[Any]:
    """Process-pool worker: rebuild one planarity soundness leg and attack it.

    Must be a module-level function of a picklable spec ``(n, seed, trials)``
    — each worker process rebuilds the instance, the honest certificates, and
    a fresh engine, so legs are fully independent.
    """
    n, seed, trials = spec
    pls = default_registry().create("planarity-pls")
    planar = delaunay_planar_graph(n, seed=seed)
    planar_net = Network(planar, seed=seed)
    nonplanar = _add_extra_edges(planar, 3, seed=seed)
    nonplanar_net = Network(
        nonplanar, ids={node: planar_net.id_of(node) for node in nonplanar.nodes()})
    honest = pls.prove(planar_net)
    donor_nodes = list(honest)

    def factory(rng, net, node):
        return honest[rng.choice(donor_nodes)]

    attack = random_certificate_attack(pls, nonplanar_net, factory,
                                       trials=trials, seed=SEED,
                                       engine=SimulationEngine(seed=SEED))
    return [n, attack.best_accepting_nodes, attack.fooled]


def run_pool_section(pool_sizes: list[int], trials: int) -> dict[str, Any]:
    """Exercise :meth:`SimulationEngine.run_trials` serially and with a pool.

    Returns the recorded comparison; raises when the pooled results diverge
    from the serial ones (they are derived from identical specs and seeds).
    """
    specs = [(n, SEED + n, trials) for n in pool_sizes]
    serial_engine = SimulationEngine(seed=SEED, workers=1)
    start = time.perf_counter()
    serial_results = serial_engine.run_trials(_pool_attack_leg, specs)
    serial_seconds = time.perf_counter() - start
    pool_engine = SimulationEngine(seed=SEED, workers=POOL_WORKERS)
    start = time.perf_counter()
    pool_results = pool_engine.run_trials(_pool_attack_leg, specs)
    pool_seconds = time.perf_counter() - start
    if serial_results != pool_results:
        raise SystemExit("process-pool results diverge from the serial run")
    return {
        "workers": POOL_WORKERS,
        "sizes": pool_sizes,
        "attack_trials": trials,
        "serial_seconds": round(serial_seconds, 3),
        "pool_seconds": round(pool_seconds, 3),
        "outcomes_identical": True,
        # leg size, best accepting-node count, whether the attack fooled all
        "results": serial_results,
    }


def run_kuratowski_section(sizes: list[int]) -> list[dict[str, Any]]:
    """Time the general-input path of :func:`find_kuratowski_subdivision`.

    Planar-plus-random-edges instances are never witness-shaped, so they
    exercise the divide-and-conquer minimiser; every returned witness is
    re-checked by the structural validator (the same check the early-exit
    path trusts), so a timing win can never hide a malformed subdivision.
    """
    from repro.graphs.kuratowski import _as_subdivision, find_kuratowski_subdivision

    rows = []
    for n in sizes:
        planar = delaunay_planar_graph(n, seed=SEED + n)
        nonplanar = _add_extra_edges(planar, 3, seed=SEED + n)
        start = time.perf_counter()
        subdivision = find_kuratowski_subdivision(nonplanar)
        seconds = time.perf_counter() - start
        if _as_subdivision(subdivision.subgraph.copy()) is None:
            raise SystemExit(
                f"kuratowski witness at n={n} failed structural validation")
        rows.append({"n": n, "seconds": round(seconds, 3),
                     "kind": subdivision.kind,
                     "witness_edges": subdivision.subgraph.number_of_edges()})
        print(f"  n={n:5d}  {seconds:6.2f}s  {subdivision.kind}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI smoke job")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json")
    args = parser.parse_args()

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    np_sizes = QUICK_NP_SIZES if args.quick else FULL_NP_SIZES
    trials = QUICK_TRIALS if args.quick else FULL_TRIALS

    print(f"building sweep instances (sizes={sizes}, np_sizes={np_sizes}) ...")
    instances = build_sweep(sizes, np_sizes)

    print("running reference per-node loop ...")
    reference_outcomes, reference_seconds = run_sweep(instances, trials, engine=None)
    print(f"  {reference_seconds:.2f}s")
    print("running SimulationEngine ...")
    engine = SimulationEngine(seed=SEED)
    engine_outcomes, engine_seconds = run_sweep(instances, trials, engine=engine)
    print(f"  {engine_seconds:.2f}s")

    identical = reference_outcomes == engine_outcomes
    speedup = reference_seconds / engine_seconds if engine_seconds else float("inf")
    print(f"outcomes identical: {identical}; speedup: {speedup:.2f}x")
    if not identical:
        raise SystemExit("engine outcomes diverge from the reference loop")

    pool_sizes = QUICK_POOL_SIZES if args.quick else FULL_POOL_SIZES
    print(f"running pooled attack legs (workers={POOL_WORKERS}, sizes={pool_sizes}) ...")
    pool_section = run_pool_section(pool_sizes, trials)
    print(f"  serial {pool_section['serial_seconds']:.2f}s, "
          f"pool {pool_section['pool_seconds']:.2f}s")

    kuratowski_sizes = QUICK_KURATOWSKI_SIZES if args.quick else FULL_KURATOWSKI_SIZES
    print(f"running kuratowski general-input minimiser (sizes={kuratowski_sizes}) ...")
    kuratowski_section = run_kuratowski_section(kuratowski_sizes)

    accept_summary = [o[:2] + [sum(d for _, d in o[2]), len(o[2])]
                      if o[0].endswith("completeness") else o
                      for o in reference_outcomes]
    payload = {
        "benchmark": "completeness+soundness sweep, reference per-node loop vs SimulationEngine",
        "schemes": ["planarity-pls", "non-planarity-pls"],
        "seed": SEED,
        "quick": args.quick,
        # the trial_pool row is only interpretable next to cpu_count: with a
        # single core the pool can show overhead, never a speedup
        "provenance": provenance(workers=POOL_WORKERS),
        "sweep": {"planarity_sizes": sizes,
                  "nonplanarity_completeness_sizes": np_sizes,
                  "attack_trials": trials},
        "reference_seconds": round(reference_seconds, 3),
        "engine_seconds": round(engine_seconds, 3),
        "speedup": round(speedup, 2),
        "outcomes_identical": identical,
        "outcome_summary": accept_summary,
        "trial_pool": pool_section,
        # per-size timings of the divide-and-conquer Kuratowski minimiser on
        # general (non-witness-shaped) inputs, witnesses structurally validated
        "kuratowski_minimiser": kuratowski_section,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
