"""Unit tests for the finite Markov-chain utilities."""

import numpy as np
import pytest

from repro.stats.markov import stationary_distribution, validate_transition_matrix


def two_state(p: float, q: float) -> np.ndarray:
    """Chain flipping 0→1 w.p. p and 1→0 w.p. q."""
    return np.array([[1 - p, p], [q, 1 - q]])


class TestValidation:
    def test_accepts_valid(self):
        validate_transition_matrix(two_state(0.3, 0.6))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_transition_matrix(np.ones((2, 3)) / 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_transition_matrix(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            validate_transition_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestStationary:
    def test_two_state_closed_form(self):
        p, q = 0.3, 0.6
        pi = stationary_distribution(two_state(p, q))
        assert pi[0] == pytest.approx(q / (p + q))
        assert pi[1] == pytest.approx(p / (p + q))

    def test_identity_chain_any_distribution(self):
        pi = stationary_distribution(np.eye(3))
        assert pi.sum() == pytest.approx(1.0)

    def test_doubly_stochastic_is_uniform(self):
        matrix = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        pi = stationary_distribution(matrix)
        assert np.allclose(pi, 1 / 3)

    def test_fixed_point_property(self, rng):
        raw = rng.uniform(0.1, 1.0, size=(5, 5))
        matrix = raw / raw.sum(axis=1, keepdims=True)
        pi = stationary_distribution(matrix)
        assert np.allclose(pi @ matrix, pi, atol=1e-9)


class TestMixingTime:
    def test_capped_bin_chain_mixes_quickly(self):
        # The fluid-limit bin chain mixes in O(c) rounds — the separation
        # of time scales behind the warm-start strategy. Mixing time here is
        # the first step at which the worst point-mass start is within total
        # variation 0.05 of the stationary distribution.
        from repro.core.meanfield import bin_transition_matrix

        steps = {}
        for c in (1, 2, 4):
            transition = bin_transition_matrix(1.5, c)
            pi = stationary_distribution(transition)
            states = np.eye(transition.shape[0])
            for step in range(1, 1001):
                states = states @ transition
                if 0.5 * np.abs(states - pi).sum(axis=1).max() < 0.05:
                    break
            assert step <= 6 * c + 6
            steps[c] = step
        assert steps == {1: 1, 2: 3, 4: 9}
