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
from repro.processes.greedy import least_loaded
from repro.workloads.arrivals import ArrivalProcess

__all__ = ["CappedDChoiceProcess"]


class CappedDChoiceProcess(CappedProcess):
    """CAPPED(c, λ) where each ball probes ``d`` bins per round.

    Parameters
    ----------
    n, capacity, lam:
        As in :class:`~repro.core.capped.CappedProcess` (capacity must be
        finite — with unbounded bins this degenerates to GREEDY[d]).
    d:
        Probes per ball per round; d = 1 recovers the paper's process.
        Every ball's probes are committed in one ``(thrown, d)`` draw,
        the same words as one ``(count, d)`` draw per age bucket (see
        ``docs/kernels.md``), and the round resolves in one whole-round
        kernel call.

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
    ) -> None:
        if capacity is None or capacity < 1:
            raise ConfigurationError(f"capacity must be a positive int, got {capacity}")
        if d < 1:
            raise ConfigurationError(f"need at least one probe, got d={d}")
        super().__init__(n, capacity, lam, rng=rng, arrivals=arrivals, initial_pool=initial_pool)
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
