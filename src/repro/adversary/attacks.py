"""Adversarial provers used in the soundness experiments (E3).

Soundness of a proof-labeling scheme is a universally quantified statement —
*no* certificate assignment makes every node of a *no*-instance accept — so
it cannot be checked exhaustively on large graphs.  The experiments attack
the verifier in three complementary ways:

* :func:`random_certificate_attack` — throw structured-but-random
  certificates at the verifier (cheap, many trials, large graphs);
* :func:`transplant_attack` — take *honest* certificates computed on a planar
  graph that shares most of the structure of the no-instance and transplant
  them (this is the strongest practical attack: every local view that also
  occurs in the planar twin will accept);
* :func:`exhaustive_attack` — enumerate every assignment from a bounded
  certificate universe on a tiny graph, establishing soundness exactly for
  that universe.

Each attack is a stream of candidate assignments fed to
:func:`decide_in_chunks`, the adversary layer's one decide loop (the
campaign cells of :mod:`repro.adversary.campaign` use it too).  The attack
stops at the first assignment that fools every node and returns the best
(most-accepting) count it saw; :attr:`AttackResult.trials` counts the
assignments decided, up to and including that first fooling one.  A sound
scheme never reaches "all nodes accept".
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.graphs.graph import Node

__all__ = [
    "AttackResult",
    "decide_in_chunks",
    "random_certificate_attack",
    "transplant_attack",
    "exhaustive_attack",
]

#: assignments decided per call (large enough to amortise the kernel
#: invocation, small enough that stopping at the first assignment that fools
#: every node never draws more than one chunk past it)
_CHUNK = 16


@dataclass
class AttackResult:
    """Outcome of an adversarial-prover attack against one network."""

    scheme_name: str
    attack_name: str
    trials: int
    best_accepting_nodes: int
    total_nodes: int
    fooled: bool

    def summary(self) -> dict[str, Any]:
        """Return a table row for the soundness experiment."""
        return {
            "scheme": self.scheme_name,
            "attack": self.attack_name,
            "trials": self.trials,
            "best_accepting_nodes": self.best_accepting_nodes,
            "total_nodes": self.total_nodes,
            "fooled": self.fooled,
        }


def decide_in_chunks(engine: SimulationEngine | None,
                     scheme: ProofLabelingScheme, network: Network,
                     assignments: Iterable[dict[Node, Any]],
                     stop_at: int | None = None) -> list[int]:
    """Accepting-node counts of ``assignments`` on ``network``, in order.

    Assignments are drawn 16 at a time and each chunk is decided with one
    :meth:`~repro.distributed.engine.SimulationEngine.count_accepting_batch`
    call; ``engine=None`` uses a fresh reference-backend engine, whose
    decisions are tested equal to
    :func:`~repro.distributed.verifier.run_verification`'s.  The counts end
    at the first one equal to ``stop_at``; the rest of that chunk is drawn
    but not decided.
    """
    engine = engine or SimulationEngine()
    counts: list[int] = []
    pending = iter(assignments)
    while chunk := list(itertools.islice(pending, _CHUNK)):
        decided = engine.count_accepting_batch(
            scheme, [(network, certificates) for certificates in chunk])
        for count in decided:
            counts.append(count)
            if count == stop_at:
                return counts
    return counts


def _attack(attack_name: str, engine: SimulationEngine | None,
            scheme: ProofLabelingScheme, network: Network,
            assignments: Iterable[dict[Node, Any]]) -> AttackResult:
    """Decide ``assignments`` until one fools every node; report the best."""
    n = network.size
    counts = decide_in_chunks(engine, scheme, network, assignments, stop_at=n)
    best = max(counts, default=0)
    return AttackResult(scheme_name=scheme.name, attack_name=attack_name,
                        trials=len(counts), best_accepting_nodes=best,
                        total_nodes=n, fooled=best == n)


def random_certificate_attack(scheme: ProofLabelingScheme, network: Network,
                              certificate_factory: Callable[[random.Random, Network, Node], Any],
                              trials: int = 50, seed: int | None = None,
                              rng: random.Random | None = None,
                              engine: SimulationEngine | None = None) -> AttackResult:
    """Attack with randomly generated certificates from ``certificate_factory``.

    ``rng`` (which takes precedence over ``seed``) drives the certificate
    forging, so a single generator can make a whole experiment reproducible;
    ``engine`` is the :class:`~repro.distributed.engine.SimulationEngine`
    that decides the trials (``None``: a fresh reference-backend engine).
    """
    if rng is None:
        rng = random.Random(seed)
    forged = ({node: certificate_factory(rng, network, node)
               for node in network.nodes()} for _ in range(trials))
    return _attack("random", engine, scheme, network, forged)


def transplant_attack(scheme: ProofLabelingScheme, network: Network,
                      donor_certificates: dict[Node, Any],
                      mutate: Callable[[random.Random, Any], Any] | None = None,
                      trials: int = 20, seed: int | None = None,
                      rng: random.Random | None = None,
                      engine: SimulationEngine | None = None) -> AttackResult:
    """Attack by transplanting honest certificates from a related *yes*-instance.

    ``donor_certificates`` must be keyed by the nodes of ``network`` (callers
    typically compute honest certificates on a planar graph sharing the node
    set, e.g. the same graph with the offending edge removed).  Optionally a
    ``mutate`` function perturbs the transplanted certificates between trials.
    ``rng`` and ``engine`` behave as in :func:`random_certificate_attack`.
    """
    if rng is None:
        rng = random.Random(seed)
    certificates = {node: donor_certificates.get(node) for node in network.nodes()}
    mutated = () if mutate is None else (
        {node: mutate(rng, cert) for node, cert in certificates.items()}
        for _ in range(trials - 1))
    return _attack("transplant", engine, scheme, network,
                   itertools.chain([certificates], mutated))


def exhaustive_attack(scheme: ProofLabelingScheme, network: Network,
                      certificate_universe: Sequence[Any],
                      max_assignments: int = 2_000_000,
                      engine: SimulationEngine | None = None) -> AttackResult:
    """Try *every* assignment of certificates from a finite universe.

    The number of assignments is ``len(universe) ** n``; callers must keep
    both small.  This gives an exact soundness statement restricted to the
    given universe (used on graphs with <= 5 nodes in the tests).
    """
    nodes = list(network.nodes())
    total = len(certificate_universe) ** len(nodes)
    if total > max_assignments:
        raise ValueError(
            f"exhaustive attack would need {total} assignments (> {max_assignments})")
    combos = itertools.product(certificate_universe, repeat=len(nodes))
    return _attack("exhaustive", engine, scheme, network,
                   (dict(zip(nodes, combo)) for combo in combos))
