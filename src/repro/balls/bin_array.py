"""Vectorised array-of-bins state for the fast simulators.

For round-based processes with one FIFO deletion per bin per round, the
*identity* of queued balls is redundant: a ball that enters a bin at queue
position ``p`` (0-indexed from the head) in round ``t`` is deleted at the end
of round ``t + p``, because exactly one ball leaves the head each round while
the bin is non-empty. Its waiting time is therefore fully determined at
acceptance time:

``waiting time = (t - label) + p``  —  pool delay plus queue delay.

:class:`BinArray` exploits this by storing only the integer load of each bin
in a numpy array, which makes every per-round operation O(n) vectorised
arithmetic. The exact per-ball simulators keep real queues and are used in
the tests to validate this position-based accounting.

Fault support
-------------
Bins can be marked *down* (:meth:`set_down`): a down bin's round ceiling is
its load and it performs no FIFO deletion, so it neither accepts nor serves
until :meth:`set_up`. Capacities can be changed mid-run (:meth:`set_capacity`),
which models temporary capacity degradation; because a degradation can drop
capacity below the current load, the invariant checked is ``load <= high-water
capacity`` — a bin never holds more balls than the largest capacity it has
ever been configured with. Note that the positional wait identity above
assumes uninterrupted unit service; while a bin is down its queue is frozen,
so waits recorded during an outage window are lower bounds.

Elastic membership
------------------
Bins can join and leave mid-run (``repro.churn``). :meth:`grow` appends fresh
empty bins; :meth:`shrink` removes bins by index under one of the
:data:`SHRINK_POLICIES`: ``rehash`` (queued balls on removed bins are
displaced — the caller re-injects them into the pool), ``drop`` (queued balls
are destroyed, the count is returned for accounting), and ``drain`` (the bins
must already be empty; :meth:`seal` turns acceptance off while FIFO service
continues, so a caller seals first and removes once the queues empty). Both
operations keep the histogram carry, the down/draining masks, the high-water
capacities and the running counters coherent, and :meth:`set_state` adopts
the snapshot's bin count so a checkpoint taken after a resize restores into
a process constructed at the original size.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, InvariantViolation

__all__ = ["BinArray", "SHRINK_POLICIES"]

#: How :meth:`BinArray.shrink` treats queued balls on removed bins.
#: ``rehash``: displaced balls are reported to the caller for re-injection
#: into the pool (they re-enter the placement process). ``drop``: displaced
#: balls are destroyed (the count is returned for accounting). ``drain``:
#: removal requires the bins to be empty — seal them first and remove later.
SHRINK_POLICIES = ("rehash", "drop", "drain")


class BinArray:
    """Loads of ``n`` bins with a shared capacity, as a numpy vector.

    Parameters
    ----------
    n:
        Number of bins.
    capacity:
        Buffer capacity: a shared int ``c``, a per-bin integer array of
        shape ``(n,)`` (heterogeneous bins, after the non-uniform-bins
        line of work the paper cites [6]), or ``None`` for unbounded
        (CAPPED(∞, λ) ≡ GREEDY[1]).
    """

    __slots__ = (
        "n",
        "capacity",
        "loads",
        "down",
        "draining",
        "_any_down",
        "_any_draining",
        "_capacity_high_water",
        "_hist_cache",
        "_maybe_overcap",
        "_peak_load",
        "_total_accepted",
        "_total_deleted",
        "_total_load",
    )

    def __init__(self, n: int, capacity) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one bin, got n={n}")
        if capacity is not None and not np.isscalar(capacity):
            capacity = np.asarray(capacity, dtype=np.int64)
            if capacity.shape != (n,):
                raise ConfigurationError(
                    f"per-bin capacities must have shape ({n},), got {capacity.shape}"
                )
            if np.any(capacity < 1):
                raise ConfigurationError("per-bin capacities must all be at least 1")
            capacity = capacity.copy()
        elif capacity is not None:
            if capacity < 1:
                raise ConfigurationError(f"capacity must be at least 1, got {capacity}")
            capacity = int(capacity)
        self.n = n
        self.capacity = capacity
        self.loads = np.zeros(n, dtype=np.int64)
        self.down = np.zeros(n, dtype=bool)
        self._any_down = False
        self.draining = np.zeros(n, dtype=bool)
        self._any_draining = False
        # Largest capacity each bin has ever had, as an (n,) array; None once
        # unbounded.
        if capacity is None:
            self._capacity_high_water = None
        elif np.isscalar(capacity):
            self._capacity_high_water = np.full(n, capacity, dtype=np.int64)
        else:
            self._capacity_high_water = capacity.copy()
        self._maybe_overcap = False
        # Load histogram carried between kernel rounds (see
        # cached_load_hist); any loads mutation outside commit_round
        # drops it.
        self._hist_cache = None
        self._peak_load = 0
        self._total_accepted = 0
        self._total_deleted = 0
        self._total_load = 0

    @property
    def peak_load(self) -> int:
        """Largest single-bin load ever observed."""
        return self._peak_load

    @property
    def total_accepted(self) -> int:
        """Balls accepted over the lifetime of the array."""
        return self._total_accepted

    @property
    def total_deleted(self) -> int:
        """Balls deleted over the lifetime of the array."""
        return self._total_deleted

    @property
    def total_load(self) -> int:
        """Sum of all bin loads (O(1): maintained as a running counter)."""
        return self._total_load

    @property
    def down_count(self) -> int:
        """Number of bins currently down."""
        return int(np.count_nonzero(self.down)) if self._any_down else 0

    @property
    def draining_count(self) -> int:
        """Number of bins currently sealed for draining."""
        return int(np.count_nonzero(self.draining)) if self._any_draining else 0

    @property
    def frozen(self) -> np.ndarray | None:
        """The down mask while any bin is down, else ``None``.

        Down bins are frozen in a round: the round kernels skip their
        deletion, and :meth:`serial_round_limit` stops their acceptance.
        """
        return self.down if self._any_down else None

    def serial_round_limit(self, ball_keys: np.ndarray):
        """Per-bin load ceiling and histogram width for the round kernels.

        Returns ``(capacity_limit, hist_size)`` for
        :func:`repro.kernels.round.resolve_capped_round_serial`, where
        ``ball_keys`` are this round's thrown balls' bins. The ceiling is
        ``max(capacity, load)``: a plain int for the common shared-capacity
        case (so the kernel clips against a scalar), an array only after a
        capacity degradation may have left bins over their cap, or while
        bins are down or draining (their ceiling is clamped to the current
        load, so they accept nothing). Unbounded bins get a ceiling no bin
        can reach this round: the max load plus the largest number of
        balls any one bin is asked to take.
        """
        if self.capacity is None:
            requests = int(np.bincount(ball_keys).max()) if ball_keys.size else 0
            limit = int(self.loads.max()) + requests
            hist_size = limit + 1
        elif np.isscalar(self.capacity):
            if self._maybe_overcap and self._peak_load > self.capacity:
                limit = np.maximum(self.capacity, self.loads)
                hist_size = self._peak_load + 1
            else:
                limit = int(self.capacity)
                hist_size = limit + 1
        elif self._maybe_overcap:
            limit = np.maximum(self.capacity, self.loads)
            hist_size = max(int(self.capacity.max()), self._peak_load) + 1
        else:
            limit = self.capacity
            hist_size = int(self.capacity.max()) + 1
        if self._any_down or self._any_draining:
            closed = self.down | self.draining
            limit = np.where(closed, self.loads, limit)
        return limit, hist_size

    def commit_round(self, resolved) -> None:
        """Install a :class:`~repro.kernels.round.SerialRound` outcome.

        The round kernels own their ``new_loads`` array (loads after
        acceptance *and* the FIFO deletion), so committing is a reference
        swap plus counter updates — no O(n) pass. This is the only way a
        round changes the loads.
        """
        self.loads = resolved.new_loads
        self._hist_cache = resolved.next_hist
        self._total_accepted += resolved.accepted_total
        self._total_deleted += resolved.deleted
        self._total_load += resolved.accepted_total - resolved.deleted
        if resolved.peak_load > self._peak_load:
            self._peak_load = resolved.peak_load

    def cached_load_hist(self, hist_size: int):
        """Load histogram carried over from the previous serial round.

        ``commit_round`` stores the kernel's O(hist_size) post-deletion
        shift of its own histogram; while no other operation touches the
        loads, it *is* ``bincount(loads, minlength=hist_size)`` and the
        next round can skip that opening O(n) pass. Returns ``None``
        (recompute) whenever any other mutation intervened or the
        histogram width changed. The caller consumes the cache — the
        kernel mutates it — so it is handed out exactly once.
        """
        hist = self._hist_cache
        if hist is None or len(hist) != hist_size:
            return None
        self._hist_cache = None
        return hist

    def set_down(self, indices, wipe: bool = False) -> int:
        """Mark bins as down (crashed). Returns the number of balls wiped.

        With ``wipe=False`` (preserved buffers) queue contents survive the
        outage frozen in place; with ``wipe=True`` the crashed bins lose
        their queued balls, which is the count returned so callers can
        account for the loss.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        self._hist_cache = None
        wiped = 0
        if wipe and indices.size:
            wiped = int(self.loads[indices].sum())
            self.loads[indices] = 0
            self._total_load -= wiped
        self.down[indices] = True
        self._any_down = bool(self.down.any())
        return wiped

    def set_up(self, indices) -> None:
        """Bring bins back up; a preserved queue resumes FIFO service."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        self.down[indices] = False
        self._any_down = bool(self.down.any())

    def seal(self, indices) -> None:
        """Seal bins for draining: no acceptance, FIFO service continues.

        A sealed bin accepts no new balls but keeps deleting one per round,
        so its queue empties in at most ``load`` rounds — after which
        :meth:`shrink` with the ``drain`` policy can remove it without
        displacing anything. Loads are untouched, so the histogram carry
        stays valid; only the round ceiling changes.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        self.draining[indices] = True
        self._any_draining = bool(self.draining.any())

    def unseal(self, indices) -> None:
        """Reopen sealed bins for acceptance (an aborted drain)."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        self.draining[indices] = False
        self._any_draining = bool(self.draining.any())

    def set_capacity(self, capacity, indices=None) -> None:
        """Change the buffer capacity mid-run (capacity degradation faults).

        Parameters
        ----------
        capacity:
            New capacity: an int (``>= 1``), an integer array matching
            ``indices`` (or ``(n,)`` when ``indices`` is None), or ``None``
            for unbounded (only without ``indices``).
        indices:
            Bins to change; ``None`` applies to all bins.

        Existing loads are never truncated — a bin holding more than its new
        capacity simply accepts nothing until it drains. The
        invariant tracked is the per-bin high-water capacity.
        """
        if capacity is None:
            if indices is not None:
                raise ConfigurationError("cannot set unbounded capacity on a subset of bins")
            self.capacity = None
            self._capacity_high_water = None
            return
        if indices is None:
            if np.isscalar(capacity):
                if capacity < 1:
                    raise ConfigurationError(f"capacity must be at least 1, got {capacity}")
                capacity = int(capacity)
            else:
                capacity = np.asarray(capacity, dtype=np.int64)
                if capacity.shape != (self.n,):
                    raise ConfigurationError(
                        f"per-bin capacities must have shape ({self.n},), got {capacity.shape}"
                    )
                if np.any(capacity < 1):
                    raise ConfigurationError("per-bin capacities must all be at least 1")
                capacity = capacity.copy()
            self.capacity = capacity
        else:
            indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
            values = np.atleast_1d(np.asarray(capacity, dtype=np.int64))
            if values.size == 1:
                values = np.full(indices.shape, int(values[0]), dtype=np.int64)
            if values.shape != indices.shape:
                raise ConfigurationError(
                    f"capacity values {values.shape} do not match indices {indices.shape}"
                )
            if np.any(values < 1):
                raise ConfigurationError("per-bin capacities must all be at least 1")
            if self.capacity is None:
                raise ConfigurationError("cannot degrade a subset of an unbounded array")
            if np.isscalar(self.capacity):
                self.capacity = np.full(self.n, self.capacity, dtype=np.int64)
            self.capacity[indices] = values
        # A degradation may leave bins over their new (smaller) capacity;
        # from here on the round ceiling must clip against
        # max(capacity, load) rather than capacity alone.
        self._maybe_overcap = True
        # Update the high-water mark (unbounded never returns to bounded here).
        if self._capacity_high_water is not None:
            np.maximum(self._capacity_high_water, self.capacity, out=self._capacity_high_water)

    def capacity_of(self, indices) -> np.ndarray:
        """Current capacities of the given bins (for save/restore by injectors)."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if self.capacity is None:
            raise ConfigurationError("unbounded arrays have no per-bin capacity")
        if np.isscalar(self.capacity):
            return np.full(indices.shape, int(self.capacity), dtype=np.int64)
        return self.capacity[indices].copy()

    # -- elastic membership -------------------------------------------------

    def grow(self, count: int, capacity=None) -> np.ndarray:
        """Append ``count`` fresh empty bins (a join burst).

        Parameters
        ----------
        count:
            Bins to add (``>= 1``).
        capacity:
            Capacity of the new bins. ``None`` inherits: the shared scalar
            for homogeneous arrays, the current maximum for per-bin
            arrays. Unbounded arrays stay unbounded (an explicit capacity
            is rejected there — mixed bounded/unbounded bins are not a
            representable state).

        Returns
        -------
        numpy.ndarray
            Indices of the new bins (always the trailing range — existing
            bin indices are stable across a grow).
        """
        if count < 1:
            raise ConfigurationError(f"must add at least one bin, got {count}")
        if self.capacity is None:
            if capacity is not None:
                raise ConfigurationError("cannot add bounded bins to an unbounded array")
            new_cap = None
        elif capacity is None:
            new_cap = (
                int(self.capacity) if np.isscalar(self.capacity) else int(self.capacity.max())
            )
        else:
            new_cap = int(capacity)
            if new_cap < 1:
                raise ConfigurationError(f"capacity must be at least 1, got {capacity}")
        old_n = self.n
        self.n = old_n + count
        self.loads = np.concatenate([self.loads, np.zeros(count, dtype=np.int64)])
        self.down = np.concatenate([self.down, np.zeros(count, dtype=bool)])
        self.draining = np.concatenate([self.draining, np.zeros(count, dtype=bool)])
        if self.capacity is not None:
            if np.isscalar(self.capacity):
                if new_cap != int(self.capacity):
                    # Heterogeneous from here on.
                    self.capacity = np.concatenate(
                        [
                            np.full(old_n, self.capacity, dtype=np.int64),
                            np.full(count, new_cap, dtype=np.int64),
                        ]
                    )
                # else: shared scalar covers the new bins unchanged.
            else:
                self.capacity = np.concatenate(
                    [self.capacity, np.full(count, new_cap, dtype=np.int64)]
                )
        if self._capacity_high_water is not None:
            self._capacity_high_water = np.concatenate(
                [self._capacity_high_water, np.full(count, new_cap, dtype=np.int64)]
            )
        self._hist_cache = None
        return np.arange(old_n, self.n, dtype=np.int64)

    def shrink(self, indices, policy: str = "rehash") -> int:
        """Remove bins by index (a leave burst). Returns the displaced count.

        ``policy`` (one of :data:`SHRINK_POLICIES`) decides what the
        returned count *means*: with ``rehash`` the caller must re-inject
        that many balls into the pool (consistent re-hashing of the
        removed bins' queues); with ``drop`` they are simply gone; with
        ``drain`` the bins must already be empty (seal first, remove once
        drained) and the count is always zero.

        Removal compacts the array: surviving bins keep their relative
        order but indices above a removed bin shift down. Callers that
        track bin indices across rounds (the injector's down map) must be
        re-mapped — see ``repro.churn.removal_mapping``.
        """
        if policy not in SHRINK_POLICIES:
            raise ConfigurationError(
                f"shrink policy must be one of {SHRINK_POLICIES}, got {policy!r}"
            )
        indices = np.unique(np.atleast_1d(np.asarray(indices, dtype=np.int64)))
        if indices.size == 0:
            return 0
        if indices[0] < 0 or indices[-1] >= self.n:
            raise ConfigurationError(
                f"shrink indices must lie in [0, {self.n}), got "
                f"[{int(indices[0])}, {int(indices[-1])}]"
            )
        if indices.size >= self.n:
            raise ConfigurationError("cannot remove every bin")
        displaced = int(self.loads[indices].sum())
        if policy == "drain" and displaced:
            raise ConfigurationError(
                f"drain removal requires empty bins, but {displaced} balls remain "
                "(seal the bins and wait for their queues to empty)"
            )
        keep = np.ones(self.n, dtype=bool)
        keep[indices] = False
        self.loads = self.loads[keep]
        self.down = self.down[keep]
        self._any_down = bool(self.down.any())
        self.draining = self.draining[keep]
        self._any_draining = bool(self.draining.any())
        if self.capacity is not None and not np.isscalar(self.capacity):
            self.capacity = self.capacity[keep]
        if self._capacity_high_water is not None:
            self._capacity_high_water = self._capacity_high_water[keep]
        self.n -= int(indices.size)
        self._total_load -= displaced
        self._hist_cache = None
        return displaced

    def get_state(self) -> dict:
        """Snapshot for checkpoint/restore.

        Includes the *current* capacity (None / int / per-bin list): a
        capacity-degradation fault may have changed it since construction,
        and restoring only the high-water mark would silently resume with
        the wrong acceptance budget.
        """
        if self.capacity is None or np.isscalar(self.capacity):
            capacity = self.capacity if self.capacity is None else int(self.capacity)
        else:
            capacity = self.capacity.tolist()
        state = {
            "loads": self.loads.tolist(),
            "capacity": capacity,
            "peak_load": self._peak_load,
            "total_accepted": self._total_accepted,
            "total_deleted": self._total_deleted,
        }
        if self._any_down:
            state["down"] = self.down.tolist()
        if self._any_draining:
            state["draining"] = self.draining.tolist()
        if self._capacity_high_water is not None:
            state["capacity_high_water"] = self._capacity_high_water.tolist()
        return state

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`.

        Membership is adopted from the snapshot: a state recorded after a
        :meth:`grow`/:meth:`shrink` restores into an array constructed at
        a different size by resizing to match (churn-aware checkpointing).
        """
        loads = np.asarray(state["loads"], dtype=np.int64)
        if loads.ndim != 1 or loads.size < 1:
            raise ValueError(f"state loads must be a non-empty vector, got shape {loads.shape}")
        if loads.shape != (self.n,):
            # Elastic membership: the snapshot was taken after bins joined
            # or left. Adopt its bin count wholesale.
            self.n = int(loads.size)
        self.loads = loads.copy()
        down = state.get("down")
        self.down = (
            np.asarray(down, dtype=bool).copy()
            if down is not None
            else np.zeros(self.n, dtype=bool)
        )
        self._any_down = bool(self.down.any())
        draining = state.get("draining")
        self.draining = (
            np.asarray(draining, dtype=bool).copy()
            if draining is not None
            else np.zeros(self.n, dtype=bool)
        )
        self._any_draining = bool(self.draining.any())
        if "capacity" in state:
            # Snapshots taken before any degradation carry the constructed
            # capacity back unchanged; mid-degradation ones restore the
            # exact reduced budget.
            capacity = state["capacity"]
            if capacity is None or isinstance(capacity, int):
                self.capacity = capacity
            else:
                self.capacity = np.asarray(capacity, dtype=np.int64)
            if capacity is None:
                self._capacity_high_water = None
        high_water = state.get("capacity_high_water")
        if high_water is not None:
            self._capacity_high_water = np.asarray(high_water, dtype=np.int64)
        self._peak_load = int(state["peak_load"])
        self._total_accepted = int(state["total_accepted"])
        self._total_deleted = int(state["total_deleted"])
        self._total_load = int(self.loads.sum())
        # A restored snapshot may predate or follow a degradation; assume
        # loads can exceed capacity until proven otherwise.
        self._maybe_overcap = True
        self._hist_cache = None
        self.check_invariants()

    def check_invariants(self) -> None:
        """Loads must be non-negative and within the high-water capacity.

        The bound is the *high-water* capacity rather than the current one:
        a capacity-degradation fault may legitimately leave a bin holding
        more balls than its (temporarily reduced) current capacity, but a
        bin can never hold more than the largest capacity it ever had.
        """
        if (
            self.loads.shape != (self.n,)
            or self.down.shape != (self.n,)
            or self.draining.shape != (self.n,)
        ):
            raise InvariantViolation(
                f"membership arrays out of sync with n={self.n}: loads {self.loads.shape}, "
                f"down {self.down.shape}, draining {self.draining.shape}"
            )
        if (
            self.capacity is not None
            and not np.isscalar(self.capacity)
            and self.capacity.shape != (self.n,)
        ):
            raise InvariantViolation(
                f"per-bin capacities {self.capacity.shape} out of sync with n={self.n}"
            )
        if np.any(self.loads < 0):
            raise InvariantViolation("negative bin load")
        if self._total_load != int(self.loads.sum()):
            raise InvariantViolation(
                f"total-load counter {self._total_load} != actual {int(self.loads.sum())}"
            )
        if self._hist_cache is not None and list(self._hist_cache) != np.bincount(
            self.loads, minlength=len(self._hist_cache)
        ).tolist():
            raise InvariantViolation("load-histogram cache out of sync with loads")
        if self._capacity_high_water is not None and np.any(self.loads > self._capacity_high_water):
            worst = int(np.argmax(self.loads - self._capacity_high_water))
            raise InvariantViolation(
                f"bin {worst} load {int(self.loads[worst])} exceeds its high-water "
                f"capacity {int(self._capacity_high_water[worst])}"
            )
