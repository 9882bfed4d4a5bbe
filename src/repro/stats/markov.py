"""Finite Markov-chain utilities.

The fluid-limit analysis reduces a bin of CAPPED(c, λ) to a (c+1)-state
Markov chain (:mod:`repro.core.meanfield`). This module checks such a
transition matrix (:func:`validate_transition_matrix`) and finds its
stationary row vector by a direct least-squares solve, exact for the small
chains here (:func:`stationary_distribution`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["validate_transition_matrix", "stationary_distribution"]


def validate_transition_matrix(matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check that ``matrix`` is row-stochastic; return it as float array."""
    transition = np.asarray(matrix, dtype=float)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise ValueError(f"transition matrix must be square, got {transition.shape}")
    if np.any(transition < -tol):
        raise ValueError("transition matrix has negative entries")
    row_sums = transition.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > tol):
        raise ValueError(f"rows must sum to 1, got sums {row_sums}")
    return transition


def stationary_distribution(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution π with π = πP.

    Solves the linear system ``(Pᵀ − I)π = 0, Σπ = 1`` directly; for
    singular corner cases (multiple closed classes) the solve still
    returns one valid stationary vector via least squares.
    """
    transition = validate_transition_matrix(matrix)
    size = transition.shape[0]
    # (P^T - I) pi = 0 with the normalisation row appended.
    system = np.vstack([transition.T - np.eye(size), np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= tol:
        raise ValueError("failed to find a stationary distribution")
    return solution / total
