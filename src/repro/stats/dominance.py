"""Empirical stochastic-dominance checks.

The paper's pool-size analysis rests on coupling lemmas (Lemmas 1 and 6):
under the constructed coupling, the pool size of CAPPED is *pointwise* at
most the pool size of MODCAPPED in every round, which implies stochastic
dominance of the marginals. :func:`coupled_dominance_report` checks the
pointwise inequality on coupled runs, the strongest possible empirical
validation of the lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["coupled_dominance_report", "DominanceReport"]


@dataclass(frozen=True, slots=True)
class DominanceReport:
    """Outcome of a pointwise coupled-dominance check.

    Attributes
    ----------
    holds:
        True iff ``dominated[t] ≤ dominating[t]`` for every t.
    violations:
        Number of rounds where the inequality failed.
    worst_gap:
        Largest value of ``dominated[t] − dominating[t]`` (negative or zero
        when dominance holds everywhere).
    rounds:
        Number of compared rounds.
    """

    holds: bool
    violations: int
    worst_gap: float
    rounds: int

    def __str__(self) -> str:
        status = "holds" if self.holds else f"VIOLATED in {self.violations} rounds"
        return f"pointwise dominance over {self.rounds} rounds: {status} (worst gap {self.worst_gap:+g})"


def coupled_dominance_report(
    dominated: np.ndarray | list[float],
    dominating: np.ndarray | list[float],
) -> DominanceReport:
    """Check the pointwise inequality produced by the paper's couplings.

    Under the couplings of Lemmas 1 and 6 the inequality
    ``m^C(t) ≤ m^M(t)`` holds deterministically (surely, not just w.h.p.),
    so any violation in a correctly coupled run indicates an implementation
    bug. The report quantifies failures instead of raising so that tests
    can assert and diagnostics can print.
    """
    below = np.asarray(dominated, dtype=float)
    above = np.asarray(dominating, dtype=float)
    if below.shape != above.shape:
        raise ValueError(f"shape mismatch: {below.shape} vs {above.shape}")
    if below.size == 0:
        raise ValueError("need at least one round to compare")
    gaps = below - above
    violations = int(np.count_nonzero(gaps > 0))
    return DominanceReport(
        holds=violations == 0,
        violations=violations,
        worst_gap=float(gaps.max()),
        rounds=int(below.size),
    )
