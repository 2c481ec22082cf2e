"""Protocol-runtime benchmark: the per-node runner vs the unified engine path.

The one-interaction PLS path decides from cached view structures; this
benchmark measures the same for the interactive baseline, in one section:

* **dmam** — soundness/completeness estimation of the three-interaction
  randomized baseline over many challenge draws.  The reference leg calls
  :func:`~repro.distributed.interactive.run_interactive_protocol` once per
  draw (re-running Merlin's first turn and rebuilding every node's
  ``local_view`` each time); the engine leg calls
  :meth:`~repro.distributed.engine.SimulationEngine.estimate_soundness_error`
  (first turn cached per (network, protocol), cached view structures,
  challenge-independent verifier states computed once, decision-only
  rounds).  Per-draw accepting-node counts — and the full transcript of the
  first draw — must match byte for byte.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_protocols.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_protocols.py --quick    # CI smoke sizes
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any

from bench_common import provenance
from repro.distributed.engine import SimulationEngine, derive_seed
from repro.distributed.interactive import run_interactive_protocol
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.graphs.generators import delaunay_planar_graph

SEED = 2020  # PODC 2020

FULL_DMAM_SIZES = [100, 250, 500]
FULL_DMAM_DRAWS = 12

QUICK_DMAM_SIZES = [40, 80]
QUICK_DMAM_DRAWS = 4


def run_dmam_section(sizes: list[int], draws: int) -> dict[str, Any]:
    """Estimate per-draw acceptance through both runtimes and time them."""
    registry = default_registry()
    outcomes_reference: list[Any] = []
    outcomes_engine: list[Any] = []
    reference_seconds = 0.0
    engine_seconds = 0.0

    for n in sizes:
        graph = delaunay_planar_graph(n, seed=SEED + n)
        network = Network(graph, seed=SEED + n)
        protocol = registry.create("planarity-dmam")

        start = time.perf_counter()
        reference_counts = []
        first_transcript = None
        for index in range(draws):
            transcript = run_interactive_protocol(
                protocol, network, seed=derive_seed(SEED, index))
            reference_counts.append(sum(transcript.decisions.values()))
            if index == 0:
                first_transcript = transcript
        reference_seconds += time.perf_counter() - start
        outcomes_reference.append(
            [n, reference_counts,
             sorted((network.id_of(v), d) for v, d in first_transcript.decisions.items())])

        engine = SimulationEngine(seed=SEED)
        protocol = registry.create("planarity-dmam")
        start = time.perf_counter()
        estimate = engine.estimate_soundness_error(protocol, network, draws, seed=SEED)
        first_engine = engine.run_interactive(protocol, network,
                                              seed=derive_seed(SEED, 0))
        engine_seconds += time.perf_counter() - start
        outcomes_engine.append(
            [n, list(estimate.accepting_counts),
             sorted((network.id_of(v), d) for v, d in first_engine.decisions.items())])

    identical = outcomes_reference == outcomes_engine
    return {
        "sizes": sizes,
        "challenge_draws": draws,
        "reference_seconds": round(reference_seconds, 3),
        "engine_seconds": round(engine_seconds, 3),
        "speedup": round(reference_seconds / engine_seconds, 2) if engine_seconds else float("inf"),
        "outcomes_identical": identical,
        # per size: n, per-draw accepting counts (every draw accepted everywhere
        # for the honest prover on planar instances)
        "outcome_summary": [[n, min(counts), max(counts)]
                            for n, counts, _ in outcomes_reference],
        "_identical": identical,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI smoke job")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_protocols.json")
    args = parser.parse_args()

    dmam_sizes = QUICK_DMAM_SIZES if args.quick else FULL_DMAM_SIZES
    draws = QUICK_DMAM_DRAWS if args.quick else FULL_DMAM_DRAWS

    print(f"dMAM soundness sweep (sizes={dmam_sizes}, draws={draws}) ...")
    dmam = run_dmam_section(dmam_sizes, draws)
    print(f"  reference {dmam['reference_seconds']:.2f}s  "
          f"engine {dmam['engine_seconds']:.2f}s  speedup {dmam['speedup']:.2f}x")

    identical = dmam.pop("_identical")
    print(f"outcomes identical: {identical}")
    if not identical:
        raise SystemExit("protocol-runtime outcomes diverge from the reference runner")

    payload = {
        "benchmark": "protocol runtimes: per-node runner vs the unified engine path",
        "protocols": ["planarity-dmam"],
        "seed": SEED,
        "quick": args.quick,
        "provenance": provenance(),
        "outcomes_identical": identical,
        "sections": {"dmam": dmam},
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
