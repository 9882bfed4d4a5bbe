"""The CAPPED(c, λ) process — Algorithm 1 of the paper.

One round of CAPPED(c, λ) (paper Section II):

1. Generate ``λn`` new balls and add them to the pool.
2. Every pool ball picks a bin independently and uniformly at random.
3. A bin ``i`` with load ``ℓ_i`` receiving ``ν_i`` requests accepts the
   ``min(c − ℓ_i, ν_i)`` oldest balls (ties broken arbitrarily); accepted
   balls leave the pool and join the bin's FIFO queue.
4. Every non-empty bin deletes the ball it allocated first (FIFO). The
   waiting time of a ball deleted in round ``t`` is its age ``t − label``.

Two implementations are provided:

:class:`CappedProcess`
    The fast simulator. Balls of equal age are exchangeable, so the pool is
    an :class:`~repro.balls.pool.AgePool` of per-label counts. Each round
    is one call to a whole-round kernel (:mod:`repro.kernels.round`) that
    resolves acceptance for all age buckets and the FIFO deletion
    together, with no per-ball sorting and no Python loop over bins (the
    tests check it against a per-bucket reference sweep, bit for bit,
    RNG consumption included — see ``docs/kernels.md``). Waiting times use
    the position identity (see :mod:`repro.balls.bin_array`): a ball
    accepted at queue position ``p`` in round ``t`` is deleted at end of
    round ``t+p``, so its waiting time ``(t − label) + p`` is recorded at
    acceptance.

:class:`ExactCappedSimulator`
    The literal per-ball reference implementation with real FIFO queues and
    deletion-time waiting times. Slow, but driven with *identical* bin
    choices it reproduces the fast simulator exactly — the integration
    tests rely on this.

``capacity=None`` gives unbounded bins: CAPPED(∞, λ) ≡ GREEDY[1] of
[Berenbrink et al., PODC'16] (paper Section II).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.balls.ball import Ball, BallIdAllocator
from repro.balls.bin_array import BinArray
from repro.balls.buffer import BinBuffer
from repro.balls.pool import AgePool
from repro.engine.metrics import RoundRecord
from repro.errors import ConfigurationError, InvariantViolation
from repro.kernels.round import SerialRound, resolve_capped_round, resolve_capped_round_serial
from repro.rng import resolve_rng
from repro.telemetry.runtime import PhaseClock, current as _telemetry_current
from repro.workloads.arrivals import ArrivalProcess, DeterministicArrivals

__all__ = ["CappedProcess", "ExactCappedSimulator"]

_EMPTY = np.zeros(0, dtype=np.int64)

#: Smallest logical block, in words, whose choices are drawn on the prefetch
#: thread (in chunks of half a block, never below this size). A chunk this
#: large is a draw of about a millisecond, so the fixed hand-off to and from
#: the thread stays a small part of it; every quick- and broker-profile
#: block is below 2¹⁵ words and is drawn inline as before.
_THREAD_FLOOR = 1 << 17


class CappedProcess:
    """Fast vectorised CAPPED(c, λ) simulator.

    Parameters
    ----------
    n:
        Number of bins.
    capacity:
        Buffer size ``c`` (``None`` for CAPPED(∞, λ) ≡ GREEDY[1]).
    lam:
        Injection rate λ ∈ [0, 1); ``λn`` must be an integer unless a
        custom ``arrivals`` process is supplied.
    rng:
        Seed, generator, or :class:`~repro.rng.RngFactory`.
    arrivals:
        Optional custom arrival process; defaults to the paper's
        deterministic ``λn`` per round.
    initial_pool:
        Balls (labelled round 0) pre-loaded into the pool. The paper
        starts from an empty system; warm-starting at the mean-field
        equilibrium pool (see :mod:`repro.core.meanfield`) skips the
        ``Θ(1/(1−λ))``-round cold-start relaxation without changing any
        steady-state statistic.
    acceptance_order:
        ``"oldest"`` (paper's Algorithm 1, default) or ``"youngest"`` —
        an ablation switch. Oldest-first is the aging mechanism behind
        the waiting-time theorem; youngest-first keeps the same pool-size
        *dynamics* (acceptance counts depend only on request counts) but
        starves old balls, blowing up the waiting-time tail. The
        ``ablation_aging`` experiment quantifies this.

    Examples
    --------
    >>> process = CappedProcess(n=64, capacity=2, lam=0.75, rng=1)
    >>> record = process.step()
    >>> record.arrivals
    48
    """

    #: Name of the RNG stream derived from a seed or factory; subclasses
    #: that throw differently draw from a stream of their own.
    rng_stream = "capped"

    def __init__(
        self,
        n: int,
        capacity: int | None,
        lam: float,
        rng=None,
        arrivals: ArrivalProcess | None = None,
        initial_pool: int = 0,
        acceptance_order: str = "oldest",
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one bin, got n={n}")
        if initial_pool < 0:
            raise ConfigurationError(f"initial_pool must be non-negative, got {initial_pool}")
        if acceptance_order not in ("oldest", "youngest"):
            raise ConfigurationError(
                f"acceptance_order must be 'oldest' or 'youngest', got {acceptance_order!r}"
            )
        self.n = n
        #: Bin count at construction. ``n`` tracks the *live* membership
        #: (it changes under churn); checkpoints compare ``initial_n`` so
        #: a snapshot taken after a resize restores into a process built
        #: with the original configuration.
        self.initial_n = n
        self.capacity = capacity
        self.lam = lam
        self.acceptance_order = acceptance_order
        self.rng = resolve_rng(rng, self.rng_stream)
        self.arrivals = arrivals if arrivals is not None else DeterministicArrivals(n=n, lam=lam)
        self.pool = AgePool()
        if initial_pool:
            self.pool.add(0, initial_pool)
        self.bins = BinArray(n, capacity)
        self.round = 0
        # Choice prefetch buffer. Bounded integer draws split across
        # calls concatenate bit-identically to one big call (the
        # RNG-stream contract), so generating choices in large blocks and
        # slicing per round consumes the *same* words in the *same* order
        # as one draw per age bucket would — records stay identical while
        # the generator runs in long uninterrupted C loops and the
        # per-round draw becomes a zero-copy view.
        # Only safe while nothing else consumes this stream mid-block:
        # stochastic arrival processes share the generator, so the
        # buffer is enabled only for the paper's deterministic arrivals.
        #
        # Positions count words of the stream since the last reset (a
        # resize or a restore). ``_end`` is the end of the current
        # *logical* block, whose size rule is part of the trajectory; the
        # words themselves sit in physical chunks ``(start, base state,
        # words)``, drawn inline one block at a time or, for blocks of
        # ``_THREAD_FLOOR`` words and more, ahead of the stream on a
        # background thread (see docs/kernels.md).
        self._chunks: list[tuple[int, dict, np.ndarray]] = []
        self._pos = 0
        self._end = 0
        self._received = 0
        self._drawn = 0
        self._chunk = 0
        self._pending: tuple[int, Future] | None = None
        self._prefetch: tuple[ThreadPoolExecutor, weakref.finalize] | None = None
        self._buffer_draws = type(self.arrivals) is DeterministicArrivals

    @property
    def pool_size(self) -> int:
        """Current pool size ``m(t)``."""
        return self.pool.size

    # -- elastic membership (repro.churn) -----------------------------------

    def _flush_choice_buffer(self) -> None:
        """Move the stream to the end of the current logical block.

        The buffer was drawn with modulus ``n``; after a resize those words
        would map to the wrong bin range (or out of range entirely), so
        the rest of the block is discarded. Resizes are deterministic
        schedule events, so an uninterrupted run and a checkpoint resume
        discard the identical words and trajectories stay bit-identical.
        The in-flight chunk is joined first; if the thread drew past the
        block end, the generator is rewound to the chunk that holds the end
        and redrawn up to it. Call this before ``n`` changes: the redraw
        needs the modulus the stream was drawn with.
        """
        self._join_pending()
        end = self._end
        if self._received > end:
            start, base = next((s, b) for s, b, _ in reversed(self._chunks) if s <= end)
            self.rng.bit_generator.state = base
        else:
            start = self._received
        for offset in range(start, end, _THREAD_FLOOR):
            self.rng.integers(0, self.n, size=min(_THREAD_FLOOR, end - offset))
        self._reset_choices()

    def _join_pending(self) -> None:
        """Wait for the in-flight chunk and keep it; the generator is then idle."""
        if self._pending is not None:
            start, future = self._pending
            base, words = future.result()
            self._pending = None
            self._chunks.append((start, base, words))
            self._received = start + words.size

    def _reset_choices(self) -> None:
        """Empty the buffer and stop the prefetch thread (after joining it)."""
        self._join_pending()
        if self._prefetch is not None:
            self._prefetch[1]()  # shuts the executor down, joining its thread
            self._prefetch = None
        self._chunks = []
        self._pos = self._end = self._received = self._drawn = self._chunk = 0

    def grow_bins(self, count: int, capacity=None) -> np.ndarray:
        """Add ``count`` fresh empty bins mid-run (a join burst).

        Arrivals stay tied to the configured λ·n₀ (traffic is exogenous —
        it does not rise because servers joined), so the effective per-bin
        load λ·n₀/n(t) drops. Returns the new bins' indices.
        """
        added = self.bins.grow(count, capacity=capacity)
        self._flush_choice_buffer()
        self.n = self.bins.n
        return added

    def shrink_bins(self, indices, policy: str = "rehash") -> int:
        """Remove bins mid-run (a leave burst). Returns the displaced count.

        With the ``rehash`` policy the removed bins' queued balls re-enter
        the pool labelled with the *current* round: they are re-thrown
        from scratch next round, so their pool delay restarts (the
        positional representation keeps no per-ball identity to preserve
        accrued queue credit — a documented approximation, see
        ``docs/churn.md``). ``drop`` destroys them; ``drain`` requires the
        bins to be empty (see :meth:`seal_bins`).
        """
        displaced = self.bins.shrink(indices, policy=policy)
        self._flush_choice_buffer()
        self.n = self.bins.n
        if displaced and policy == "rehash":
            self.pool.add(self.round, displaced)
        return displaced

    def seal_bins(self, indices) -> None:
        """Seal bins for draining: no new acceptance, FIFO service continues."""
        self.bins.seal(indices)

    def unseal_bins(self, indices) -> None:
        """Reopen sealed bins for acceptance."""
        self.bins.unseal(indices)

    def step(self, choices: np.ndarray | None = None) -> RoundRecord:
        """Advance one round (Algorithm 1) and report it.

        Parameters
        ----------
        choices:
            Optional pre-drawn bin choices, one per thrown ball, ordered
            oldest ball first (new balls last). Used by the coupling and
            by deterministic tests; when omitted, choices are drawn from
            the process RNG, served from the prefetch buffer (the same
            words one draw per age bucket would take, see
            ``docs/kernels.md``).
        """
        self.round += 1
        t = self.round

        # Telemetry attribution is read-only and RNG-free: the clock exists
        # only when a session is enabled, so the disabled cost is one
        # global read plus a handful of None checks per round. Every round
        # is fused; the constant label keeps the rounds_total{kernel=...}
        # series that reports and dashboards read.
        tel = _telemetry_current()
        clock = PhaseClock(tel, kernel="fused") if tel is not None else None

        generated = self.arrivals.arrivals(t, self.rng)
        self.pool.add(t, generated)
        thrown = self.pool.size

        if choices is not None and len(choices) != thrown:
            raise ConfigurationError(
                f"injected choices must cover all {thrown} thrown balls, got {len(choices)}"
            )

        resolved = self._resolve_round(t, thrown, choices, clock)
        if clock is not None:
            clock.lap("accept")
            clock.lap("delete")

        record = RoundRecord(
            round=t,
            arrivals=generated,
            thrown=thrown,
            accepted=resolved.accepted_total,
            deleted=resolved.deleted,
            pool_size=self.pool.size,
            total_load=self.bins.total_load,
            max_load=resolved.max_load,
            wait_values=resolved.wait_values,
            wait_counts=resolved.wait_counts,
        )
        if clock is not None:
            clock.lap("collect")
            clock.finish()
        return record

    def _draw_choices(self, thrown: int) -> np.ndarray:
        """Bin choices for this round, served from the prefetch buffer.

        Returns a view into one chunk when the round fits in it, else the
        stitched pieces. A round that runs past the logical block end
        opens the next block, sized to cover several rounds; a small block
        is drawn inline right away, a large one is left to the background
        thread, which keeps one chunk in flight while this round resolves.
        The chunk base states, with the offsets, are what :meth:`get_state`
        snapshots — a restore regenerates the block and resumes mid-buffer
        bit-identically.
        """
        if not self._buffer_draws:
            return self.rng.integers(0, self.n, size=thrown)
        if not thrown:
            return _EMPTY
        pos, want = self._pos, self._pos + thrown
        if want > self._end:
            # ~4 rounds per block, clamped so huge-n runs don't hold tens of
            # megabytes of unspent randomness.
            block = max(min(max(4 * thrown, 1 << 14), 1 << 21), want - self._end)
            self._end += block
            if self._chunk or block >= _THREAD_FLOOR:
                self._chunk = max(block // 2, _THREAD_FLOOR)
            else:
                base = self.rng.bit_generator.state
                self._chunks.append((self._drawn, base, self.rng.integers(0, self.n, size=block)))
                self._drawn = self._received = self._end
        if self._chunk:
            if self._pending is None:
                self._submit_chunk()
            while self._received < want:
                self._join_pending()
                self._submit_chunk()
        parts = []
        for start, _, words in self._chunks:
            lo, hi = max(pos - start, 0), min(want - start, words.size)
            if lo < hi:
                parts.append(words[lo:hi])
        self._pos = want
        while len(self._chunks) > 1 and self._chunks[1][0] <= want:
            del self._chunks[0]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _submit_chunk(self) -> None:
        """Start drawing the next chunk of the stream on the prefetch thread."""
        if self._prefetch is None:
            executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="choice-prefetch")
            self._prefetch = (executor, weakref.finalize(self, executor.shutdown))
        start = self._drawn
        self._drawn += self._chunk
        future = self._prefetch[0].submit(_draw_chunk, self.rng, self.n, self._chunk)
        self._pending = (start, future)

    def _resolve_round(
        self,
        t: int,
        thrown: int,
        choices: np.ndarray | None,
        clock: PhaseClock | None = None,
    ) -> SerialRound:
        """One whole round in one kernel call (see repro.kernels.round).

        Acceptance for all age buckets and the FIFO deletion are resolved
        together and installed by :meth:`BinArray.commit_round`; the
        returned :class:`SerialRound` carries the wait *histogram*, never
        per-ball waits. ``clock`` (telemetry only) marks the throw phase
        once the bin choices exist; the caller closes the accept phase.
        """
        if choices is None:
            choices = self._draw_choices(thrown)
        else:
            choices = np.asarray(choices, dtype=np.int64)
        if clock is not None:
            clock.lap("throw")

        # All per-bucket bookkeeping is scalar, so the pool's plain-int
        # lists go straight to the kernel. Choices arrive oldest-first
        # (the coupling and test convention), which is already the
        # kernel's priority-major layout; only the youngest-first ablation
        # has to reorder its bucket chunks.
        counts = self.pool.counts()
        ages = [t - label for label in self.pool.labels()]
        reversed_priority = self.acceptance_order == "youngest" and len(counts) > 1
        if reversed_priority:
            chunks = np.split(choices, np.cumsum(counts)[:-1])
            choices = np.concatenate(chunks[::-1])
            counts.reverse()
            ages.reverse()
        bins = self.bins
        capacity_limit, hist_size = bins.serial_round_limit(choices)
        if bins.total_load == 0 and np.isscalar(capacity_limit) and capacity_limit == 1:
            # The homogeneous c = 1 steady state: every bin is empty.
            resolved = resolve_capped_round(bins.loads, capacity_limit, choices, counts, ages)
        else:
            resolved = resolve_capped_round_serial(
                bins.loads,
                capacity_limit,
                choices,
                counts,
                ages,
                hist_size,
                initial_hist=bins.cached_load_hist(hist_size),
                frozen=bins.frozen,
            )
        if resolved.accepted_total:
            accepted_per_bucket = resolved.accepted_per_bucket
            if reversed_priority:
                accepted_per_bucket = accepted_per_bucket[::-1]
            self.pool.remove_bulk(accepted_per_bucket)
        bins.commit_round(resolved)
        return resolved

    def check_invariants(self) -> None:
        """Verify pool and bin-state consistency."""
        self.pool.check_invariants()
        self.bins.check_invariants()
        if self.bins.n != self.n:
            raise InvariantViolation(
                f"process n={self.n} out of sync with bin membership n={self.bins.n}"
            )
        oldest = self.pool.oldest_label
        if oldest is not None and oldest > self.round:
            raise InvariantViolation(
                f"pool contains balls from future round {oldest} (now {self.round})"
            )

    def get_state(self) -> dict:
        """Checkpoint the full process state (including the RNG).

        The snapshot is a plain dict of JSON-able values plus the numpy
        bit-generator state; restoring it with :meth:`set_state` resumes
        the *identical* trajectory — useful for long paper-profile runs
        and for record/replay debugging.
        """
        state = {"round": self.round, "pool": self.pool.get_state(), "bins": self.bins.get_state()}
        if self._pending is None and self._received == self._pos:
            # Nothing drawn past the position: the generator sits there.
            state["rng"] = self.rng.bit_generator.state
            return state
        # Mid-buffer, or a draw in flight: snapshot the base state of the
        # chunk that holds the position plus the offsets from it, so the
        # restore can regenerate the words and resume inside them —
        # without serialising the unspent randomness itself.
        start, base, _ = self._chunks[0]
        state["rng"] = base
        if self._end > start:
            state["choice_block"] = self._end - start
            state["choice_pos"] = self._pos - start
        return state

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state` (same initial-n/c/λ process).

        Membership is adopted from the snapshot: restoring a state taken
        after churn resized the bins updates ``n`` to match (``initial_n``
        is what checkpoint compatibility is checked against). The live
        ``n`` must be adopted *before* the choice block regenerates below —
        the block's modulus is the snapshot's bin count.
        """
        self._reset_choices()
        self.round = int(state["round"])
        self.pool.set_state(state["pool"])
        self.bins.set_state(state["bins"])
        self.n = self.bins.n
        self.rng.bit_generator.state = state["rng"]
        block = int(state.get("choice_block", 0))
        if block:
            base = self.rng.bit_generator.state
            self._chunks = [(0, base, self.rng.integers(0, self.n, size=block))]
            self._pos = int(state["choice_pos"])
            self._end = self._received = self._drawn = block
        self.check_invariants()


def _draw_chunk(rng: np.random.Generator, n: int, size: int) -> tuple[dict, np.ndarray]:
    """One prefetch chunk and the generator state it was drawn from.

    Runs on the prefetch thread; ``Generator.integers`` releases the GIL
    while it fills the array, so the draw overlaps the round's resolve.
    """
    return rng.bit_generator.state, rng.integers(0, n, size=size)


class ExactCappedSimulator:
    """Per-ball reference implementation of CAPPED(c, λ).

    Keeps every ball as an object, every bin as a real FIFO queue, and
    records a ball's waiting time at its actual deletion round. Use for
    validation and small-scale studies; it is orders of magnitude slower
    than :class:`CappedProcess`.
    """

    def __init__(
        self,
        n: int,
        capacity: int | None,
        lam: float,
        rng=None,
        arrivals: ArrivalProcess | None = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one bin, got n={n}")
        self.n = n
        self.capacity = capacity
        self.lam = lam
        self.rng = resolve_rng(rng, "capped-exact")
        self.arrivals = arrivals if arrivals is not None else DeterministicArrivals(n=n, lam=lam)
        cap = capacity if capacity is not None else float("inf")
        self.bin_buffers = [BinBuffer(cap) for _ in range(n)]
        self.pool: list[Ball] = []  # kept sorted oldest-first by construction
        self._ids = BallIdAllocator()
        self.round = 0

    @property
    def pool_size(self) -> int:
        """Current pool size ``m(t)``."""
        return len(self.pool)

    def step(self, choices: np.ndarray | None = None) -> RoundRecord:
        """Advance one round; semantics identical to :class:`CappedProcess`.

        ``choices`` (optional) must list one bin per pool ball in pool
        order (oldest first, new balls last) — the same convention as the
        fast simulator, enabling exact trajectory comparisons.
        """
        self.round += 1
        t = self.round

        generated = self.arrivals.arrivals(t, self.rng)
        self.pool.extend(self._ids.make_batch(t, generated))
        thrown = len(self.pool)

        if choices is None:
            choices = self.rng.integers(0, self.n, size=thrown)
        elif len(choices) != thrown:
            raise ConfigurationError(
                f"injected choices must cover all {thrown} thrown balls, got {len(choices)}"
            )

        requests_per_bin: dict[int, list[Ball]] = defaultdict(list)
        for ball, bin_index in zip(self.pool, choices):
            requests_per_bin[int(bin_index)].append(ball)

        accepted_serials: set[int] = set()
        for bin_index, requesting in requests_per_bin.items():
            buffer = self.bin_buffers[bin_index]
            # The pool is oldest-first, so `requesting` is already sorted;
            # BinBuffer.accept re-sorts defensively, which is a no-op here.
            candidates = sorted(requesting)
            free = buffer.free_slots
            take = len(candidates) if free == float("inf") else min(len(candidates), int(free))
            for ball in candidates[:take]:
                buffer.push(ball)
                accepted_serials.add(ball.serial)

        if accepted_serials:
            self.pool = [b for b in self.pool if b.serial not in accepted_serials]

        waits: list[int] = []
        deleted = 0
        for buffer in self.bin_buffers:
            ball = buffer.delete_first()
            if ball is not None:
                deleted += 1
                waits.append(ball.age(t))

        if waits:
            wait_values, wait_counts = np.unique(
                np.asarray(waits, dtype=np.int64), return_counts=True
            )
        else:
            wait_values, wait_counts = _EMPTY, _EMPTY

        loads = [b.load for b in self.bin_buffers]
        return RoundRecord(
            round=t,
            arrivals=generated,
            thrown=thrown,
            accepted=len(accepted_serials),
            deleted=deleted,
            pool_size=len(self.pool),
            total_load=sum(loads),
            max_load=max(loads) if loads else 0,
            wait_values=wait_values,
            wait_counts=wait_counts,
        )

    def drain(self, max_rounds: int = 100_000) -> list[int]:
        """Run with arrivals suppressed until the system is empty.

        Returns all waiting times observed while draining. Used by tests to
        compare complete waiting-time multisets against the fast simulator.
        """
        saved = self.arrivals
        self.arrivals = DeterministicArrivals(n=self.n, lam=0.0)
        waits: list[int] = []
        try:
            for _ in range(max_rounds):
                if not self.pool and all(b.load == 0 for b in self.bin_buffers):
                    return waits
                record = self.step()
                for value, count in zip(record.wait_values, record.wait_counts):
                    waits.extend([int(value)] * int(count))
        finally:
            self.arrivals = saved
        raise InvariantViolation(f"system failed to drain within {max_rounds} rounds")

    def check_invariants(self) -> None:
        """Verify buffer capacities and pool ordering."""
        for buffer in self.bin_buffers:
            buffer.check_invariants()
        labels = [ball.label for ball in self.pool]
        if labels != sorted(labels):
            raise InvariantViolation("exact pool is not ordered oldest-first")
