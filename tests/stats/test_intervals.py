"""Unit tests for confidence intervals."""

import pytest

from repro.stats.intervals import normal_ci


class TestNormalCI:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normal_ci([])

    def test_single_sample_degenerates(self):
        ci = normal_ci([4.2])
        assert ci.low == ci.high == ci.estimate == 4.2

    def test_contains_true_mean_usually(self, rng):
        misses = 0
        for _ in range(200):
            samples = rng.normal(10.0, 3.0, size=40)
            if not normal_ci(samples, confidence=0.95).contains(10.0):
                misses += 1
        # ~5% expected; allow generous slack for 200 trials.
        assert misses <= 25

    def test_width_shrinks_with_samples(self, rng):
        small = normal_ci(rng.normal(0, 1, size=20))
        large = normal_ci(rng.normal(0, 1, size=2000))
        assert large.half_width < small.half_width

    def test_symmetric_around_mean(self, rng):
        samples = rng.normal(5, 1, size=50)
        ci = normal_ci(samples)
        assert ci.estimate - ci.low == pytest.approx(ci.high - ci.estimate)

    def test_nonstandard_confidence_level(self, rng):
        samples = rng.normal(0, 1, size=100)
        narrow = normal_ci(samples, confidence=0.80)
        wide = normal_ci(samples, confidence=0.99)
        assert narrow.half_width < wide.half_width

    def test_str_renders(self):
        text = str(normal_ci([1.0, 2.0, 3.0]))
        assert "[" in text and "]" in text
