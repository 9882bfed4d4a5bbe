"""The per-bucket reference sweep that the round kernels are checked against.

Algorithm 1 read literally, one age bucket at a time (oldest first, or
youngest first under the ablation order): each bin takes as many of the
bucket's requests as its free slots allow, then every non-empty bin that is
not down deletes one ball. The CI speed gates time it as their reference.
It draws one ``rng.integers`` per bucket (a ``(count, d)`` probe matrix for
d-choice), oldest first and before any acceptance: the same words as the
processes' one draw per round, so both emit the same records for a seed.
"""

import numpy as np

from repro.core.capped import CappedProcess
from repro.kernels.round import SerialRound
from repro.processes.capped_dchoice import CappedDChoiceProcess

__all__ = ["SweepCappedProcess", "SweepDChoiceProcess", "positional_waits"]


def positional_waits(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Run ``i`` yields ``starts[i], starts[i] + 1, …`` for ``lengths[i]`` balls."""
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + offsets


class _BucketSweep:
    """Resolves every round with the per-bucket sweep instead of a kernel."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._buffer_draws = False  # one direct draw per bucket, no prefetch

    def accept(self, t: int, choices=None):
        """Acceptance alone, process untouched: the loads after it, the balls
        taken from each age bucket (oldest first) and their waits."""
        labels, counts = self.pool.labels(), self.pool.counts()
        if choices is None:
            chunks = [self._draw_choices(count) for count in counts]
        else:
            chunks = np.split(np.asarray(choices), np.cumsum(counts)[:-1])
        loads = self.bins.loads.copy()
        if self.bins.capacity is None:
            free = np.full(self.n, sum(counts))  # no bin is asked for more
        else:
            free = np.maximum(self.bins.capacity - loads, 0)
        free[self.bins.down | self.bins.draining] = 0
        order = range(len(counts))
        taken, waits = [0] * len(counts), [np.zeros(0, dtype=np.int64)]
        for b in reversed(order) if self.acceptance_order == "youngest" else order:
            requests = np.bincount(chunks[b], minlength=self.n)
            accepted = np.minimum(requests, free)
            taken[b] = int(accepted.sum())
            if taken[b]:
                # A bin's first accepted ball joins its queue at its load.
                hit = np.flatnonzero(accepted)
                waits.append(positional_waits((t - labels[b]) + loads[hit], accepted[hit]))
                loads += accepted
                free -= accepted
        return loads, taken, np.concatenate(waits)

    def _resolve_round(self, t, thrown, choices, clock=None) -> SerialRound:
        loads, taken, waits = self.accept(t, choices)
        self.pool.remove_bulk(taken)
        peak_load = int(loads.max())
        serving = (loads > 0) & ~self.bins.down
        loads -= serving
        histogram = np.bincount(waits)
        wait_values = np.flatnonzero(histogram)
        resolved = SerialRound(
            new_loads=loads,
            accepted_per_bucket=taken,
            accepted_total=sum(taken),
            deleted=int(np.count_nonzero(serving)),
            max_load=int(loads.max()),
            peak_load=peak_load,
            wait_values=wait_values,
            wait_counts=histogram[wait_values],
            next_hist=None,  # nothing carried: the next round recounts
        )
        self.bins.commit_round(resolved)
        return resolved


class SweepCappedProcess(_BucketSweep, CappedProcess):
    """:class:`CappedProcess` resolved by the per-bucket sweep."""


class SweepDChoiceProcess(_BucketSweep, CappedDChoiceProcess):
    """:class:`CappedDChoiceProcess` resolved by the per-bucket sweep."""
