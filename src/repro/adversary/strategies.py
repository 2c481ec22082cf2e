"""Adaptive adversary strategies over certificate assignments.

A strategy is the unit a campaign sweeps: given a network and an honest
assignment, it returns a corrupted assignment.  The contract (documented
for authors in ``docs/ADVERSARY.md``) is deliberately narrow:

* a strategy may observe the network and the assignment it is given —
  nothing else (no engine, no tracer, no global state);
* all randomness comes from the passed ``rng``; the same ``rng`` state
  must yield the same output (campaign results are committed and must be
  byte-identical across worker counts and backends);
* the input assignment is never mutated — corruption returns a fresh
  ``dict``;
* instances must be picklable (campaigns fan cells out over process
  pools), which the dataclasses below get for free.

The built-ins wrap the shared corruption vocabulary of
:mod:`repro.adversary.corruption`: one blind strategy (the fuzzer's
operator set) and four structure-aware ones, including a coordinated
multi-node pattern.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.adversary.corruption import (
    _tree_label,
    _with_tree_label,
    corrupt_assignment,
    lie_about_root,
    shift_interval_endpoint,
    swap_dfs_copies,
)

__all__ = [
    "AdversaryStrategy",
    "RandomCorruption",
    "TargetedRootLie",
    "IntervalEndpointShift",
    "DFSCopySwap",
    "CoordinatedRootSplit",
    "STRATEGIES",
]


@runtime_checkable
class AdversaryStrategy(Protocol):
    """What a campaign needs from a strategy (structural, not nominal)."""

    name: str

    def corrupt(self, network: Any, certificates: dict[Any, Any],
                rng: random.Random) -> dict[Any, Any]:
        """Return a corrupted copy of ``certificates``."""
        ...


@dataclass(frozen=True)
class RandomCorruption:
    """The fuzzer's blind operator set, applied ``rounds`` times."""

    rounds: int = 3
    name: str = "random"

    def corrupt(self, network: Any, certificates: dict[Any, Any],
                rng: random.Random) -> dict[Any, Any]:
        nodes = list(network.nodes())
        mutated = dict(certificates)
        for _ in range(self.rounds):
            mutated = corrupt_assignment(mutated, nodes, rng)
        return mutated


@dataclass(frozen=True)
class TargetedRootLie:
    """One non-root node forges a root claim (sharpest spanning-tree lie)."""

    name: str = "root-lie"

    def corrupt(self, network: Any, certificates: dict[Any, Any],
                rng: random.Random) -> dict[Any, Any]:
        return lie_about_root(certificates, network, rng)


@dataclass(frozen=True)
class IntervalEndpointShift:
    """Shift one interval endpoint by one (the Lemma 2 claims)."""

    name: str = "interval-shift"

    def corrupt(self, network: Any, certificates: dict[Any, Any],
                rng: random.Random) -> dict[Any, Any]:
        return shift_interval_endpoint(certificates, network, rng)


@dataclass(frozen=True)
class DFSCopySwap:
    """Swap one edge certificate's DFS-copy (or tour-index) commitments."""

    name: str = "copy-swap"

    def corrupt(self, network: Any, certificates: dict[Any, Any],
                rng: random.Random) -> dict[Any, Any]:
        return swap_dfs_copies(certificates, network, rng)


@dataclass(frozen=True)
class CoordinatedRootSplit:
    """Coordinated multi-node lie: a whole region defects to a second root.

    A single root lie is locally detectable at the liar's parent edge; the
    coordinated version also rewrites ``root_id`` on the defector and on
    every node within ``radius`` hops of it, so the disagreement surfaces
    only on the *frontier* between the regions.  This is the adversary the
    root-agreement checks exist for: the verifier must catch a lie that is
    locally consistent everywhere except along a thin cut.
    """

    radius: int = 1
    name: str = "root-split"

    def corrupt(self, network: Any, certificates: dict[Any, Any],
                rng: random.Random) -> dict[Any, Any]:
        candidates = []
        for node in network.nodes():
            label, _ = _tree_label(certificates.get(node))
            if label is not None and label.parent_id is not None:
                candidates.append(node)
        if not candidates:
            return corrupt_assignment(certificates, list(network.nodes()), rng)
        defector = rng.choice(candidates)
        fake_root_id = network.id_of(defector)

        # the defecting region: everything within `radius` hops
        region = {defector}
        frontier = [defector]
        for _ in range(self.radius):
            frontier = [neighbor for node in frontier
                        for neighbor in network.graph.neighbors(node)
                        if neighbor not in region]
            region.update(frontier)

        # only existing keys are rewritten, so the visiting order of the
        # region leaves the output (and its key order) unchanged
        mutated = dict(certificates)
        for node in region:
            certificate = certificates.get(node)
            label, field = _tree_label(certificate)
            if label is None:
                continue
            if node == defector:
                forged = dataclasses.replace(label, parent_id=None,
                                             root_id=fake_root_id)
            else:
                forged = dataclasses.replace(label, root_id=fake_root_id)
            mutated[node] = _with_tree_label(certificate, field, forged)
        return mutated


#: campaign registry: name -> zero-argument factory (all defaults picklable)
STRATEGIES: dict[str, Any] = {
    "random": RandomCorruption,
    "root-lie": TargetedRootLie,
    "interval-shift": IntervalEndpointShift,
    "copy-swap": DFSCopySwap,
    "root-split": CoordinatedRootSplit,
}
