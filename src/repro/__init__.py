"""Reproduction of "Compact Distributed Certification of Planar Graphs" (PODC 2020).

The package is organised as:

* :mod:`repro.graphs` -- graph substrate (structures, generators, planarity,
  embeddings, spanning trees, minors);
* :mod:`repro.distributed` -- the distributed-verification model (networks,
  identifiers, local views, proof-labeling schemes, interactive proofs);
* :mod:`repro.core` -- the paper's contribution: the path-outerplanarity
  scheme (Lemma 2), the tree-cut transformation (Lemmas 3-4), the planarity
  proof-labeling scheme (Theorem 1), and the folklore non-planarity scheme;
* :mod:`repro.vectorized` -- bulk verification: numpy kernels deciding all
  nodes at once over the compiled CSR arrays (``backend="vectorized"`` on
  the simulation engine);
* :mod:`repro.lowerbound` -- the lower-bound constructions of Theorem 2;
* :mod:`repro.baselines` -- the universal scheme and the dMAM interactive
  protocol the paper compares against;
* :mod:`repro.analysis` -- experiment drivers producing the E1-E10 tables
  the benchmark harness prints.
"""

__version__ = "1.0.0"
