"""CAPPED(c, λ) with d probes per ball — a capacity-vs-choices ablation.

The paper deliberately uses **one** random choice per ball and buys its
improvement with buffer capacity, noting that "an advantage of the
GREEDY[d] process from [PODC'16] is that it only needs d random choices to
allocate a ball" while their process retries. The natural follow-up —
what does a *combination* buy? — is exactly the kind of ablation the
paper's design discussion invites.

``CappedDChoiceProcess`` extends CAPPED(c, λ): every pool ball samples
``d`` bins and sends its allocation request to a sampled bin with the most
free buffer space at the *beginning of the round* (batch semantics, as in
GREEDY[d]; ties towards the first-sampled probe). Acceptance and FIFO
deletion are unchanged: the oldest requests win, capacity caps admissions,
rejected balls return to the pool. Only the throw differs, so the class is
a :class:`~repro.core.capped.CappedProcess` that overrides how the round's
bin choices are drawn; the round loop, the round-kernel dispatch,
checkpointing and the invariants are inherited.

For d = 1 this is exactly CAPPED(c, λ) up to how randomness is consumed
(the test suite checks distributional agreement). The ablation bench shows
where a second choice helps (small c) and where capacity has already
absorbed the contention (c near the sweet spot).
"""

from __future__ import annotations

import numpy as np

from repro.core.capped import CappedProcess
from repro.errors import ConfigurationError
from repro.kernels.round import positional_waits as _positional_waits
from repro.processes.greedy import least_loaded
from repro.telemetry.runtime import PhaseClock
from repro.workloads.arrivals import ArrivalProcess

__all__ = ["CappedDChoiceProcess"]

_EMPTY = np.zeros(0, dtype=np.int64)


class CappedDChoiceProcess(CappedProcess):
    """CAPPED(c, λ) where each ball probes ``d`` bins per round.

    Parameters
    ----------
    n, capacity, lam:
        As in :class:`~repro.core.capped.CappedProcess` (capacity must be
        finite — with unbounded bins this degenerates to GREEDY[d]).
    d:
        Probes per ball per round; d = 1 recovers the paper's process.
    kernel:
        ``"fused"`` (default) commits every ball's probes in one draw and
        resolves the round, deletion included, in one whole-round kernel
        call; ``"legacy"`` is the per-bucket sweep.
        Bit-identical for the same seed, including RNG consumption
        (row-major ``(count, d)`` draws concatenate to one ``(thrown, d)``
        draw — see ``docs/kernels.md``).

    Choices injected through :meth:`step` are the committed bins, one per
    thrown ball oldest first; no probes are drawn for them.
    """

    rng_stream = "capped-dchoice"

    def __init__(
        self,
        n: int,
        capacity: int,
        lam: float,
        d: int = 2,
        rng=None,
        arrivals: ArrivalProcess | None = None,
        initial_pool: int = 0,
        kernel: str = "fused",
    ) -> None:
        if capacity is None or capacity < 1:
            raise ConfigurationError(f"capacity must be a positive int, got {capacity}")
        if d < 1:
            raise ConfigurationError(f"need at least one probe, got d={d}")
        super().__init__(
            n, capacity, lam, rng=rng, arrivals=arrivals, initial_pool=initial_pool, kernel=kernel
        )
        self.d = d

    def _draw_choices(self, thrown: int) -> np.ndarray:
        """Probe ``d`` bins per ball; commit to the emptiest probed bin.

        Start-of-round loads only (batch semantics); ties go to the first
        sampled probe, matching the GREEDY[d] baseline's rule. One
        ``(thrown, d)`` draw per round — no prefetch buffer, since the
        commit reads loads that change every round.
        """
        probes = self.rng.integers(0, self.n, size=(thrown, self.d))
        return least_loaded(probes, self.bins.loads)

    def _resolve_legacy(
        self,
        t: int,
        choices: np.ndarray | None,
        clock: PhaseClock | None = None,
    ) -> tuple[int, np.ndarray]:
        """The original per-bucket sweep — the executable reference.

        Commits are drawn up front, one ``(count, d)`` draw per bucket
        (loads are untouched until the first accept, so no defensive copy
        is needed), and pool removals are committed in one bulk call, so
        the sweep never iterates a mutating structure.
        """
        labels, counts = self.pool.as_arrays()
        if choices is None:
            committed_chunks = [self._draw_choices(int(count)) for count in counts]
        else:
            committed_chunks = np.split(np.asarray(choices), np.cumsum(counts)[:-1])
        if clock is not None:
            clock.lap("throw")

        wait_chunks: list[np.ndarray] = []
        removed = np.zeros(len(labels), dtype=np.int64)
        for i, (label, committed) in enumerate(zip(labels, committed_chunks)):
            requests = np.bincount(committed, minlength=self.n)
            accepted = np.minimum(requests, self.bins.free_slots())
            bucket_accepted = int(accepted.sum())
            if bucket_accepted:
                nonzero = np.nonzero(accepted)[0]
                starts = (t - label) + self.bins.loads[nonzero]
                wait_chunks.append(_positional_waits(starts, accepted[nonzero]))
                self.bins.accept(requests)
                removed[i] = bucket_accepted
        if removed.any():
            self.pool.remove_bulk(removed)

        waits = np.concatenate(wait_chunks) if wait_chunks else _EMPTY
        return int(removed.sum()), waits
