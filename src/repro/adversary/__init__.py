"""The adversary layer (E3): every attack on the soundness of a scheme.

The package gathers everything a soundness experiment needs under one roof:

* :mod:`~repro.adversary.attacks` — the one-shot adversarial provers
  (random / transplant / exhaustive) and
  :func:`~repro.adversary.attacks.decide_in_chunks`, the one loop through
  which every attack and campaign cell is decided;
* :mod:`~repro.adversary.corruption` — the shared corruption vocabulary:
  the differential-fuzz mutation operators (promoted from the vectorized
  test harness so tests and campaigns corrupt certificates identically)
  plus structure-aware targeted mutations;
* :mod:`~repro.adversary.strategies` — the :class:`AdversaryStrategy`
  protocol and the built-in adaptive strategies;
* :mod:`~repro.adversary.cheating` — the cheating interactive prover for
  the dMAM protocol, with exact lucky-guess accounting against the
  ``m / p`` fingerprint bound;
* :mod:`~repro.adversary.campaign` — the strategy x scheme x n sweep
  driver feeding ``BENCH_adversary.json``.
"""

from repro.adversary.attacks import (
    AttackResult,
    exhaustive_attack,
    random_certificate_attack,
    transplant_attack,
)
from repro.adversary.campaign import (
    CampaignCell,
    CampaignRunner,
    default_cells,
    run_campaign_cell,
)
from repro.adversary.cheating import (
    CheatingDMAMProver,
    CheatingSecondStrategy,
    nonplanar_cheating_instance,
)
from repro.adversary.corruption import (
    corrupt_assignment,
    int_fields,
    lie_about_root,
    mutate_nested_certificate,
    shift_interval_endpoint,
    swap_dfs_copies,
)
from repro.adversary.strategies import (
    STRATEGIES,
    AdversaryStrategy,
    CoordinatedRootSplit,
    DFSCopySwap,
    IntervalEndpointShift,
    RandomCorruption,
    TargetedRootLie,
)

__all__ = [
    # one-shot attacks
    "AttackResult",
    "random_certificate_attack",
    "transplant_attack",
    "exhaustive_attack",
    # corruption vocabulary
    "int_fields",
    "mutate_nested_certificate",
    "corrupt_assignment",
    "lie_about_root",
    "shift_interval_endpoint",
    "swap_dfs_copies",
    # strategies
    "AdversaryStrategy",
    "RandomCorruption",
    "TargetedRootLie",
    "IntervalEndpointShift",
    "DFSCopySwap",
    "CoordinatedRootSplit",
    "STRATEGIES",
    # cheating interactive prover
    "CheatingDMAMProver",
    "CheatingSecondStrategy",
    "nonplanar_cheating_instance",
    # campaign driver
    "CampaignCell",
    "CampaignRunner",
    "default_cells",
    "run_campaign_cell",
]
