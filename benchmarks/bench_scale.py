"""Million-node scale benchmark: streamed compilation + zero-copy workers.

Two sections, one committed ``BENCH_scale.json``:

* **scale sweep** — generate a Delaunay planar instance at n = 10^6
  (``--quick``: 20 000), prove it, and verify it on the vectorized
  backend with tracing on.  The sweep must finish with *zero* fallback
  (every node decided by a kernel), every node accepting, and the
  streamed compile path engaged (``compile/chunk`` spans, bounded
  staging lists); the payload records wall-clock per phase, the largest
  certificate in bits (Theorem 1's measure) and the process peak RSS so
  the memory claim is a committed number, not a slogan.

* **trial pool** — prove/verify trial legs fanned out through
  :meth:`SimulationEngine.run_trials` serially and with workers=2/4
  (``--quick``: workers=2).  The parent exports the instance once into
  shared memory and ships ~300-byte handles; workers attach and map the
  same CSR pages.  Rows are honest: the provenance header carries the
  *effective* CPU count (scheduling affinity), and the >= 1.5x speedup
  assertion only arms when that count is >= 2 — on a single-core box the
  payload records the overhead instead of faking a scaling result.
  Decisions must be byte-identical across serial and every pool width.

The traced run is written to a span log (default ``trace_scale.jsonl``)
so CI can gate the zero-copy claim::

    PYTHONPATH=src python benchmarks/bench_scale.py --quick
    python scripts/trace_report.py trace_scale.jsonl --check --expect-zero-copy

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_scale.py          # n = 10^6, ~25 min
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # CI smoke sizes
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import random
import time
from pathlib import Path
from typing import Any

from bench_common import effective_cpu_count, observability_snapshot, provenance
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.graphs.generators import delaunay_planar_graph
from repro.observability import start_tracing, stop_tracing, write_span_log
from repro.observability.metrics import peak_rss_bytes

SEED = 2020  # PODC 2020

FULL_SCALE_N = 1_000_000
QUICK_SCALE_N = 20_000

FULL_POOL_N = 2_000
QUICK_POOL_N = 300
FULL_POOL_WIDTHS = (2, 4)
QUICK_POOL_WIDTHS = (2,)
FULL_POOL_SPECS = 8
QUICK_POOL_SPECS = 4
FULL_POOL_TRIALS = 2
QUICK_POOL_TRIALS = 1


# ---------------------------------------------------------------------------
# section 1: streamed million-node sweep
# ---------------------------------------------------------------------------
def run_scale_sweep(n: int) -> dict[str, Any]:
    """One streamed prove+verify pass at ``n`` nodes; zero fallback required."""
    print(f"generating Delaunay planar instance (n={n}) ...")
    start = time.perf_counter()
    graph = delaunay_planar_graph(n, seed=SEED)
    network = Network(graph, seed=SEED)
    generate_seconds = time.perf_counter() - start
    print(f"  {generate_seconds:.1f}s, {graph.number_of_edges()} edges")

    scheme = default_registry().create("planarity-pls")
    print("proving ...")
    start = time.perf_counter()
    certificates = scheme.prove(network)
    prove_seconds = time.perf_counter() - start
    print(f"  {prove_seconds:.1f}s")

    engine = SimulationEngine(backend="vectorized")
    print("verifying (vectorized, streamed compile) ...")
    start = time.perf_counter()
    result = engine.verify(scheme, network, certificates)
    verify_seconds = time.perf_counter() - start
    print(f"  {verify_seconds:.1f}s")

    counters = engine.backend_counters
    if counters["fallback_nodes"] or counters["fallback_networks"]:
        raise SystemExit(f"scale sweep fell back: {counters}")
    if not all(result.decisions.values()):
        rejecting = sum(1 for d in result.decisions.values() if not d)
        raise SystemExit(f"scale sweep: {rejecting} honest nodes rejected")

    peak = peak_rss_bytes()
    return {
        "n": n,
        "edges": graph.number_of_edges(),
        "generate_seconds": round(generate_seconds, 3),
        "prove_seconds": round(prove_seconds, 3),
        "verify_seconds": round(verify_seconds, 3),
        "all_accept": True,
        "max_certificate_bits": result.max_certificate_bits,
        "kernel_calls": counters["kernel_calls"],
        "kernel_nodes": counters["kernel_nodes"],
        "fallback_nodes": 0,
        "fallback_networks": 0,
        "peak_rss_bytes": peak,
        "peak_rss_mib": round(peak / (1 << 20), 1) if peak else None,
    }


# ---------------------------------------------------------------------------
# section 2: zero-copy trial pool
# ---------------------------------------------------------------------------
def _digest(decisions: dict[Any, bool]) -> str:
    payload = repr(sorted(decisions.items(), key=lambda kv: repr(kv[0])))
    return hashlib.sha256(payload.encode()).hexdigest()


def _pool_trial(spec: tuple[Any, str, int, int]) -> list[str]:
    """Pool worker: prove the (attached) network and run seeded attack trials.

    ``spec[0]`` left the parent as a ~300-byte :class:`SharedNetworkHandle`
    and arrives here already resolved to a read-only shared network by
    ``run_trials`` — the same resolution runs on the serial path, so the
    returned decision digests must match byte for byte.
    """
    network, scheme_name, trial_seed, trials = spec
    scheme = default_registry().create(scheme_name)
    certificates = scheme.prove(network)
    engine = SimulationEngine(backend="vectorized")
    digests = [_digest(engine.verify(scheme, network, certificates).decisions)]
    rng = random.Random(trial_seed)
    nodes = sorted(certificates, key=repr)
    for _ in range(trials):
        donors = nodes[:]
        rng.shuffle(donors)
        attack = {node: certificates[donor]
                  for node, donor in zip(nodes, donors)}
        digests.append(_digest(engine.verify(scheme, network, attack).decisions))
    return digests


def run_pool_section(n: int, widths: tuple[int, ...], num_specs: int,
                     trials: int) -> dict[str, Any]:
    """Serial vs pooled trial fan-out over shared-memory handles."""
    graph = delaunay_planar_graph(n, seed=SEED + n)
    network = Network(graph, seed=SEED + n)
    exporter = SimulationEngine(backend="vectorized")
    handle = exporter.export_shared(network)
    if handle is None:
        raise SystemExit("shared-memory export unavailable on this platform")
    try:
        handle_bytes = len(pickle.dumps(handle))
        network_pickle_bytes = len(pickle.dumps(network))
        specs = [(handle, "planarity-pls", SEED + i, trials)
                 for i in range(num_specs)]

        rows: list[dict[str, Any]] = []
        baseline: list[list[str]] | None = None
        serial_seconds = None
        for workers in (1,) + widths:
            engine = SimulationEngine(workers=workers)
            start = time.perf_counter()
            results = engine.run_trials(_pool_trial, specs)
            seconds = time.perf_counter() - start
            if baseline is None:
                baseline = results
                serial_seconds = seconds
            elif results != baseline:
                raise SystemExit(
                    f"workers={workers} decisions diverge from serial")
            row = {"workers": workers, "seconds": round(seconds, 3)}
            if workers > 1:
                row["speedup"] = round(serial_seconds / seconds, 2)
                row["outcomes_identical"] = True
            rows.append(row)
            print(f"  workers={workers}: {seconds:.2f}s"
                  + (f" ({row['speedup']}x)" if workers > 1 else ""))

        return {
            "n": n,
            "specs": num_specs,
            "attack_trials_per_spec": trials,
            "handle_bytes": handle_bytes,
            "network_pickle_bytes": network_pickle_bytes,
            "rows": rows,
            "outcomes_identical": True,
            "decision_digest": baseline[0][0],
        }
    finally:
        handle.unlink()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI smoke job")
    repo_root = Path(__file__).resolve().parent.parent
    parser.add_argument("--output", type=Path,
                        default=repo_root / "BENCH_scale.json")
    parser.add_argument("--trace-output", type=Path,
                        default=Path("trace_scale.jsonl"),
                        help="span log for scripts/trace_report.py "
                             "--expect-zero-copy")
    args = parser.parse_args()

    scale_n = QUICK_SCALE_N if args.quick else FULL_SCALE_N
    pool_n = QUICK_POOL_N if args.quick else FULL_POOL_N
    widths = QUICK_POOL_WIDTHS if args.quick else FULL_POOL_WIDTHS
    num_specs = QUICK_POOL_SPECS if args.quick else FULL_POOL_SPECS
    trials = QUICK_POOL_TRIALS if args.quick else FULL_POOL_TRIALS

    tracer = start_tracing()
    try:
        scale_section = run_scale_sweep(scale_n)
        print(f"running trial pool (n={pool_n}, widths={widths}) ...")
        pool_section = run_pool_section(pool_n, widths, num_specs, trials)
    finally:
        stop_tracing()

    compile_chunks = sum(1 for span in tracer.spans
                         if span.name == "compile/chunk")
    scale_section["compile_chunks"] = compile_chunks
    scale_section["streamed"] = compile_chunks > 0
    counters = tracer.metrics.counters
    zero_copy = {
        "bytes_shared": int(counters.get("bytes_shared", 0)),
        "bytes_attached": int(counters.get("bytes_attached", 0)),
        "bytes_pickled_specs": int(counters.get("bytes_pickled.specs", 0)),
        "shm_exports": int(counters.get("shm_export", 0)),
        "shm_attaches": int(counters.get("shm_attach", 0)),
    }
    pool_section["zero_copy"] = zero_copy

    effective = effective_cpu_count()
    speedup_rows = [row for row in pool_section["rows"] if row["workers"] > 1]
    # a failed gate still writes its JSON and trace, then exits non-zero
    failure = None
    if effective is not None and effective >= 2:
        best = max(row["speedup"] for row in speedup_rows)
        if best < 1.5:
            failure = (f"multi-core box ({effective} effective CPUs) but best "
                       f"pool speedup is {best}x < 1.5x")
            speedup_assertion = f"failed ({failure})"
        else:
            speedup_assertion = (f"passed ({best}x on {effective} effective "
                                 "CPUs)")
    else:
        speedup_assertion = (f"skipped (effective_cpus={effective}: a pool "
                             "cannot beat serial without a second core)")
    print(f"speedup assertion: {speedup_assertion}")

    payload = {
        "benchmark": ("streamed n=10^6 planarity sweep + zero-copy "
                      "shared-memory trial pool"),
        "scheme": "planarity-pls",
        "seed": SEED,
        "quick": args.quick,
        "provenance": provenance(workers=max(widths),
                                 observability=observability_snapshot(tracer)),
        "scale_sweep": scale_section,
        "trial_pool": pool_section,
        "speedup_assertion": speedup_assertion,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    write_span_log(tracer, str(args.trace_output))
    print(f"wrote {args.trace_output}")
    if failure is not None:
        raise SystemExit(failure)


if __name__ == "__main__":
    main()
