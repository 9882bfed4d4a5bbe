"""Batch-parallel GREEDY[d] with leaky bins (Berenbrink et al., PODC'16).

The paper's main comparison target ("Self-Stabilizing Balls and Bins in
Batches — The Power of Leaky Bins"). Per round:

1. ``λn`` new balls arrive.
2. Each ball samples ``d`` bins independently and uniformly at random and
   commits to one with the **least load at the beginning of the round** —
   balls of the current batch are *not* counted (this is the defining
   batch-parallel semantics; see the paper's introduction for why counting
   them would be unrealistic).
3. Bins have unbounded FIFO queues; at the end of the round every
   non-empty bin deletes (serves) its first ball.

Known bounds (PODC'16): waiting time / maximum load at any time is w.h.p.
``O(1/(1−λ)·log(n/(1−λ)))`` for d = 1 and ``O(log(n/(1−λ)))`` for d = 2.
CAPPED(c, λ) improves this to ``~ln(1/(1−λ))/c + log log n + O(c)`` — the
comparison experiment CLAIM-BASE regenerates exactly this contrast.

Waiting times use the position identity (see
:mod:`repro.balls.bin_array`): with one deletion per non-empty bin per
round, a ball entering queue position ``p`` in round ``t`` is served at the
end of round ``t + p``, so its waiting time ``p`` is known at arrival.
Only the round's wait *histogram* is recorded, so the balls never need
ranking: a bin holding ``ℓ`` balls that receives ``r`` of this round's
balls hands out the waits ``ℓ, ℓ+1, …, ℓ+r−1`` whatever their order, and
the histogram is the prefix sum of ``+1`` at every ``ℓ`` and ``−1`` at
every ``ℓ + r`` (interval counting: two bincounts and a cumsum, no sort).

The least-loaded commit, :func:`least_loaded`, is shared with
:class:`~repro.processes.capped_dchoice.CappedDChoiceProcess`.

GREEDY[1] is distributionally identical to CAPPED(∞, λ); the test suite
cross-validates the two implementations.
"""

from __future__ import annotations

import numpy as np

from repro.engine.metrics import RoundRecord
from repro.errors import ConfigurationError, InvariantViolation
from repro.rng import resolve_rng
from repro.workloads.arrivals import ArrivalProcess, DeterministicArrivals

__all__ = ["GreedyBatchProcess", "interval_wait_histogram", "least_loaded"]

_EMPTY = np.zeros(0, dtype=np.int64)


def least_loaded(probes: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Commit each ball to its least-loaded probe.

    ``probes`` is a ``(count, d)`` block of bin indices, one row per ball;
    ``loads`` are the bin loads the comparison reads. The d columns are
    scanned left to right with a strict ``<``, so ties go to the
    first-sampled minimum — ``probes[arange, argmin(loads[probes], 1)]``
    without the per-row ``argmin`` or the fancy gather.
    """
    best = probes[:, 0]
    if probes.shape[1] > 1:
        best_load = loads[best]
        for j in range(1, probes.shape[1]):
            probe = probes[:, j]
            probe_load = loads[probe]
            better = probe_load < best_load
            best = np.where(better, probe, best)
            best_load = np.minimum(best_load, probe_load)
    return best


def interval_wait_histogram(
    loads: np.ndarray, requests: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Wait histogram ``(values, counts)`` of one round's arrivals.

    Bin ``i`` holds ``loads[i]`` balls at the start of the round and
    receives ``requests[i]`` new ones, which take the queue positions —
    hence the waits — ``loads[i] … loads[i] + requests[i] − 1`` in some
    order. The prefix sum of ``+1`` at every interval start and ``−1`` at
    every interval end counts the balls at each wait, so no ball is ever
    ranked within its bin. Equal to ``np.unique(waits, return_counts=True)``
    of the per-ball waits, dtypes included.
    """
    hit = np.flatnonzero(requests)
    low = loads[hit]
    high = low + requests[hit]
    size = int(high.max(initial=0)) + 1
    occupancy = np.cumsum(np.bincount(low, minlength=size) - np.bincount(high, minlength=size))
    values = np.flatnonzero(occupancy)
    return values, occupancy[values]


class GreedyBatchProcess:
    """Round-based GREEDY[d] with unbounded leaky bins.

    Parameters
    ----------
    n:
        Number of bins.
    d:
        Choices per ball (d ≥ 1).
    lam:
        Injection rate λ ∈ [0, 1) with integral ``λn`` (unless a custom
        arrival process is supplied).
    rng:
        Seed, generator, or factory.
    arrivals:
        Optional custom arrival process.

    Examples
    --------
    >>> process = GreedyBatchProcess(n=64, d=2, lam=0.75, rng=3)
    >>> record = process.step()
    >>> record.accepted
    48
    """

    def __init__(
        self,
        n: int,
        d: int,
        lam: float,
        rng=None,
        arrivals: ArrivalProcess | None = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one bin, got n={n}")
        if d < 1:
            raise ConfigurationError(f"need at least one choice, got d={d}")
        self.n = n
        self.d = d
        self.lam = lam
        self.rng = resolve_rng(rng, "greedy")
        self.arrivals = arrivals if arrivals is not None else DeterministicArrivals(n=n, lam=lam)
        self.loads = np.zeros(n, dtype=np.int64)
        self.round = 0
        self.peak_load = 0

    @property
    def pool_size(self) -> int:
        """Always 0 — GREEDY never rejects balls (unbounded bins)."""
        return 0

    def commit_bins(self, arrivals: int) -> np.ndarray:
        """Sample d choices per ball and commit to the least loaded.

        Load comparisons use the loads at the *beginning of the round*
        only. Ties among a ball's d choices go to the first-sampled
        minimum (an arbitrary-but-fixed rule, as in the source papers).
        """
        if arrivals == 0:
            return _EMPTY
        return least_loaded(self.rng.integers(0, self.n, size=(arrivals, self.d)), self.loads)

    def step(self) -> RoundRecord:
        """Advance one round of batch GREEDY[d]."""
        self.round += 1
        t = self.round
        loads = self.loads

        generated = self.arrivals.arrivals(t, self.rng)
        requests = np.bincount(self.commit_bins(generated), minlength=self.n)
        wait_values, wait_counts = interval_wait_histogram(loads, requests)
        loads += requests

        peak = int(loads.max())
        if peak > self.peak_load:
            self.peak_load = peak

        nonempty = loads > 0
        deleted = int(np.count_nonzero(nonempty))
        loads -= nonempty

        return RoundRecord(
            round=t,
            arrivals=generated,
            thrown=generated,
            accepted=generated,
            deleted=deleted,
            pool_size=0,
            total_load=int(loads.sum()),
            max_load=max(peak - 1, 0),
            wait_values=wait_values,
            wait_counts=wait_counts,
        )

    def check_invariants(self) -> None:
        """Loads must be non-negative."""
        if np.any(self.loads < 0):
            raise InvariantViolation("negative bin load in GREEDY process")

    def get_state(self) -> dict:
        """Checkpoint the process (loads, counters, RNG) for exact resume."""
        return {
            "round": self.round,
            "loads": self.loads.tolist(),
            "peak_load": self.peak_load,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        loads = np.asarray(state["loads"], dtype=np.int64)
        if loads.shape != (self.n,):
            raise ValueError(f"state has {loads.shape} loads, expected ({self.n},)")
        self.round = int(state["round"])
        self.loads = loads.copy()
        self.peak_load = int(state["peak_load"])
        self.rng.bit_generator.state = state["rng"]
        self.check_invariants()
