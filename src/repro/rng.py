"""Deterministic randomness management.

Every stochastic component in this library draws its randomness from a
``numpy.random.Generator`` that is threaded explicitly through the code; there
is no module-level global RNG state. This module centralises how generators
are created so that

* a single integer seed reproduces an entire experiment,
* independent components (e.g. the two processes of a coupled run, or the
  replicates of a parameter sweep) receive *statistically independent*
  streams derived from that one seed, and
* the mapping from ``(seed, name)`` to a stream is stable across runs and
  platforms.

The implementation is a thin wrapper around :class:`numpy.random.SeedSequence`
spawning, which is the numpy-sanctioned way to derive independent child
streams.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["RngFactory", "resolve_rng"]


def _stable_key_hash(key: str) -> int:
    """Hash ``key`` to a 32-bit integer, stably across interpreter runs.

    Python's built-in ``hash`` is salted per process for strings, so we use
    CRC32 which is deterministic and fast. Collisions are acceptable: the
    hash is mixed into a ``SeedSequence`` together with the root entropy, so
    two colliding names merely share a stream, they do not bias it.
    """
    return zlib.crc32(key.encode("utf-8"))


@dataclass
class RngFactory:
    """Factory producing named, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed of the experiment. Two factories with the same seed
        produce identical streams for identical names.

    Examples
    --------
    >>> factory = RngFactory(seed=7)
    >>> a = factory.generator("arrivals")
    >>> b = factory.generator("choices")
    >>> a is not b
    True
    >>> a2 = RngFactory(seed=7).generator("arrivals")
    >>> int(a.integers(1 << 30)) == int(a2.integers(1 << 30))
    True
    """

    seed: int

    def generator(self, name: str = "") -> np.random.Generator:
        """Return a fresh generator for the stream called ``name``.

        Calling this twice with the same name returns two generators in the
        *same state* (useful for replaying a component), not a continuation.
        """
        entropy = (self.seed, _stable_key_hash(name))
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child(self, index: int) -> "RngFactory":
        """Derive a child factory, e.g. one per replicate of a sweep."""
        mixed = np.random.SeedSequence((self.seed, 0x5EED, index)).generate_state(1)[0]
        return RngFactory(seed=int(mixed))


def resolve_rng(
    rng: np.random.Generator | RngFactory | int | None,
    name: str = "",
) -> np.random.Generator:
    """Normalise the many accepted RNG inputs to a ``numpy`` Generator.

    Accepts a ready generator (returned as-is), an :class:`RngFactory`
    (a named stream is derived), an integer seed, or ``None`` for fresh
    OS entropy.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngFactory):
        return rng.generator(name)
    if isinstance(rng, (int, np.integer)):
        return RngFactory(seed=int(rng)).generator(name)
    raise TypeError(f"cannot build a random generator from {type(rng).__name__}")
