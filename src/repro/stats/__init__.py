"""Probability and statistics substrate.

Streaming statistics collectors used by the simulation engine, confidence
intervals for the experiment harness, the pointwise dominance check that
validates the coupling lemmas, and the finite Markov-chain tools behind the
mean-field bin chain.
"""

from repro.stats.dominance import coupled_dominance_report
from repro.stats.intervals import normal_ci
from repro.stats.markov import stationary_distribution
from repro.stats.streaming import Histogram, RunningStats

__all__ = [
    "RunningStats",
    "Histogram",
    "normal_ci",
    "coupled_dominance_report",
    "stationary_distribution",
]
