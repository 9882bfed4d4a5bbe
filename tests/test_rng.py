"""Unit tests for deterministic randomness management."""

import numpy as np
import pytest

from repro.rng import RngFactory, resolve_rng


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(seed=5).generator("x")
        b = RngFactory(seed=5).generator("x")
        assert a.integers(1 << 40) == b.integers(1 << 40)

    def test_different_names_different_streams(self):
        factory = RngFactory(seed=5)
        a = factory.generator("alpha")
        b = factory.generator("beta")
        assert list(a.integers(1 << 30, size=8)) != list(b.integers(1 << 30, size=8))

    def test_different_seeds_different_streams(self):
        a = RngFactory(seed=1).generator("x")
        b = RngFactory(seed=2).generator("x")
        assert list(a.integers(1 << 30, size=8)) != list(b.integers(1 << 30, size=8))

    def test_same_name_returns_fresh_state(self):
        factory = RngFactory(seed=9)
        first = factory.generator("s")
        first.integers(10, size=100)  # advance
        second = factory.generator("s")
        third = factory.generator("s")
        assert second.integers(1 << 30) == third.integers(1 << 30)

    def test_child_factories_independent(self):
        parent = RngFactory(seed=3)
        values = {parent.child(i).generator("x").integers(1 << 40) for i in range(20)}
        assert len(values) == 20

    def test_child_reproducible(self):
        assert (
            RngFactory(seed=3).child(4).generator("x").integers(1 << 40)
            == RngFactory(seed=3).child(4).generator("x").integers(1 << 40)
        )


class TestResolveRng:
    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert resolve_rng(generator) is generator

    def test_int_seed(self):
        a = resolve_rng(7, "n")
        b = resolve_rng(7, "n")
        assert a.integers(1 << 40) == b.integers(1 << 40)

    def test_factory_input(self):
        factory = RngFactory(seed=1)
        generator = resolve_rng(factory, "name")
        assert isinstance(generator, np.random.Generator)

    def test_numpy_integer_seed(self):
        assert isinstance(resolve_rng(np.int64(3)), np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_rng("seed")  # type: ignore[arg-type]
