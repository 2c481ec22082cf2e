"""The strategy x scheme x n campaign driver.

A campaign is a grid of :class:`CampaignCell` specs — one strategy
attacking one scheme's honest assignment on one yes-instance size, over a
fixed number of seeded corruption trials.  Cells are plain data and the
per-cell worker is a module-level function, so
:meth:`~repro.distributed.engine.SimulationEngine.run_trials` can fan a
campaign out over a process pool; each worker process keeps one engine per
backend (rebuilt engines would re-pay every cache).

Determinism contract: a cell's result is a pure function of the cell
fields plus the backend's *decisions* — trial ``t`` corrupts with
``random.Random(derive_seed(cell.seed, t))`` and the *networks and honest
assignments depend only on (scheme, n)* — and backends promise identical
decisions, so campaign results are byte-identical across worker counts
and backends (asserted by ``BENCH_adversary.json``'s gating).

The sweep measures *detection*: a sound verifier should reject almost
every structural corruption at some node.  Cells report how many trials
fooled every node ("undetected": possible when an operator happens to be
semantically neutral, e.g. swapping two equal certificates) and the mean
accepting fraction — the campaign-side complement of the one-shot attacks
in :mod:`repro.adversary.attacks`, decided through the same
:func:`~repro.adversary.attacks.decide_in_chunks` loop (a cell never stops
early: it decides every trial).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.adversary.attacks import decide_in_chunks
from repro.adversary.strategies import STRATEGIES
from repro.distributed.engine import SimulationEngine, derive_seed
from repro.distributed.registry import default_registry
from repro.graphs.generators import (
    delaunay_planar_graph,
    k5_subdivision,
    path_graph,
    random_tree,
)
from repro.graphs.graph import Graph
from repro.observability.tracer import current as current_tracer

__all__ = [
    "CampaignCell",
    "CampaignRunner",
    "campaign_graph",
    "default_cells",
    "run_campaign_cell",
]

@dataclass(frozen=True)
class CampaignCell:
    """One sweep point: ``strategy`` attacks ``scheme`` at size ``n``."""

    strategy: str
    scheme: str
    n: int
    trials: int
    seed: int

    def spec(self, backend: str) -> tuple:
        """The picklable worker spec (plain data only)."""
        return (self.strategy, self.scheme, self.n, self.trials, self.seed,
                backend)


def campaign_graph(scheme_name: str, n: int) -> Graph:
    """The fixed yes-instance each campaign cell attacks.

    Depends only on ``(scheme_name, n)`` so every backend and worker count
    attacks the identical network.  Sizes are nominal: the non-planarity
    scheme's subdivision count and the path-outerplanarity scheme's
    witness-search ceiling (labels must sort in path order, so ``n <= 9``)
    round ``n`` to the nearest realisable instance.
    """
    if scheme_name == "path-graph-pls":
        return path_graph(n)
    if scheme_name == "tree-pls":
        return random_tree(n, seed=n)
    if scheme_name == "non-planarity-pls":
        return k5_subdivision(max(1, round((n - 5) / 10)), seed=n)
    if scheme_name == "path-outerplanarity-pls":
        return path_graph(min(n, 9))
    if scheme_name in ("planarity-pls", "universal-map-pls"):
        return delaunay_planar_graph(n, seed=n)
    raise ValueError(f"no campaign instance family for scheme {scheme_name!r}")


_ENGINES: dict[str, SimulationEngine] = {}


def _engine_for(backend: str) -> SimulationEngine:
    """Per-process engine cache keyed by backend (workers fork fresh)."""
    engine = _ENGINES.get(backend)
    if engine is None:
        engine = SimulationEngine(backend=backend)
        _ENGINES[backend] = engine
    return engine


def run_campaign_cell(spec: tuple) -> dict[str, Any]:
    """Evaluate one campaign cell; the :meth:`run_trials` worker.

    Takes the plain-data spec of :meth:`CampaignCell.spec` and returns a
    JSON-safe row.  Trials are decided by
    :func:`~repro.adversary.attacks.decide_in_chunks`, so eligible schemes
    decide a whole chunk with one kernel pass.
    """
    strategy_name, scheme_name, n, trials, seed, backend = spec
    engine = _engine_for(backend)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.metrics.count(f"campaign_cells.{strategy_name}")
        tracer.metrics.count(f"campaign_trials.{strategy_name}", trials)
    scheme = default_registry().create(scheme_name)
    network = engine.network_for(campaign_graph(scheme_name, n), seed=seed)
    certificates = engine.certify(scheme, network)
    strategy = STRATEGIES[strategy_name]()
    total = network.size
    corrupted = (strategy.corrupt(network, certificates,
                                  random.Random(derive_seed(seed, t)))
                 for t in range(trials))
    counts = decide_in_chunks(engine, scheme, network, corrupted)
    undetected = sum(1 for count in counts if count == total)
    return {
        "strategy": strategy_name,
        "scheme": scheme_name,
        "n": total,
        "trials": trials,
        "seed": seed,
        "undetected_trials": undetected,
        "detection_rate": round(1.0 - undetected / trials, 6),
        "min_accepting": min(counts),
        "max_accepting": max(counts),
        "mean_accepting_fraction": round(sum(counts) / (trials * total), 6),
    }


class CampaignRunner:
    """Sweep a list of cells, optionally over a process pool.

    ``workers`` and tracing behave exactly as in
    :meth:`~repro.distributed.engine.SimulationEngine.run_trials`: each
    cell runs inside a ``trial`` span, pooled workers ship their span and
    counter snapshots back to the parent tracer, and results keep cell
    order.
    """

    def __init__(self, backend: str = "vectorized", workers: int = 1,
                 seed: int | None = None) -> None:
        self.backend = backend
        self.engine = SimulationEngine(workers=workers, seed=seed,
                                       backend=backend)

    def run(self, cells: list[CampaignCell]) -> list[dict[str, Any]]:
        specs = [cell.spec(self.backend) for cell in cells]
        return self.engine.run_trials(run_campaign_cell, specs)


def default_cells(sizes: tuple[int, ...] = (16, 24), trials: int = 32,
                  seed: int = 2020,
                  strategies: tuple[str, ...] | None = None,
                  schemes: tuple[str, ...] | None = None) -> list[CampaignCell]:
    """The full strategy x scheme x n grid with one seed per cell.

    Cell seeds are derived from the base seed and the cell's grid position
    so no two cells replay the same corruption stream.
    """
    if strategies is None:
        strategies = tuple(sorted(STRATEGIES))
    if schemes is None:
        schemes = tuple(sorted(
            name for name in default_registry().names(kind="pls")))
    cells = []
    for i, strategy in enumerate(strategies):
        for j, scheme in enumerate(schemes):
            for k, n in enumerate(sizes):
                cell_seed = derive_seed(
                    seed, (i * len(schemes) + j) * len(sizes) + k)
                cells.append(CampaignCell(strategy=strategy, scheme=scheme,
                                          n=n, trials=trials, seed=cell_seed))
    return cells
