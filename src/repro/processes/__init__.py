"""Comparison processes for the paper's experiments.

Each process is implemented against the same round-process interface as
the core simulators so that the comparison experiments and the engine's
driver work uniformly:

* :mod:`repro.processes.greedy` — batch-parallel GREEDY[d] with leaky bins
  (Berenbrink et al., PODC'16 / Algorithmica'18); the paper's primary
  comparison target.
* :mod:`repro.processes.capped_dchoice` — CAPPED(c, λ) with d probes per
  ball, the capacity-vs-choices ablation.
"""

from repro.processes.capped_dchoice import CappedDChoiceProcess
from repro.processes.greedy import GreedyBatchProcess

__all__ = [
    "GreedyBatchProcess",
    "CappedDChoiceProcess",
]
