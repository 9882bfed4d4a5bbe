"""The whole-round CAPPED kernels: acceptance and FIFO deletion in one call.

Algorithm 1 read literally walks the age buckets oldest-first and pays an
O(n) request count, a clip against free slots and a load update *per
bucket*, then a separate deletion pass (the tests keep that sweep as their
reference). The kernels here resolve a whole round — acceptance for *all*
age buckets, the wait histogram, and the end-of-round FIFO deletion — in
one call, with no per-ball sorting and no Python loop over bins.

The key observation is exchangeability: balls generated in the same round
are interchangeable, so acceptance never needs per-ball identity — only
the *count* of requests per (bin, age bucket). Waiting times need no
per-ball expansion either: a ball accepted at queue position ``p`` waits
its bucket's age plus ``p`` (see :mod:`repro.balls.bin_array` for the
position identity).

Both kernels take the same leading arguments — round-start loads, the
per-bin load ceiling, and the thrown balls' bin indices in priority-major
order — and return a :class:`SerialRound`, which the caller installs with
``BinArray.commit_round`` and ``AgePool.remove_bulk`` (one call each per
round):

:func:`resolve_capped_round_serial`
    The general kernel: any finite ceiling, scalar or per bin, which
    covers shared and heterogeneous capacities, degraded bins, draining
    and down bins (their ceiling is their load) and unbounded bins (a
    ceiling no bin can reach this round). Down bins are also frozen in
    the deletion.

:func:`resolve_capped_round`
    The unit-take kernel for the homogeneous c = 1 steady state: ceiling
    1 and every bin empty at round start. Each bin accepts at most its
    highest-priority requester, found by a descending-priority sweep of
    slice scatters, and deletes it again at round end.

The kernels never mutate their inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.telemetry.runtime import current as _telemetry_current

__all__ = ["SerialRound", "resolve_capped_round", "resolve_capped_round_serial"]


# Buckets at most this large are resolved ball-by-ball in scalar Python:
# below a couple dozen balls even a single ``np.unique`` call costs more
# than the whole loop. Equilibrium pools put their oldest buckets here.
_TINY_BUCKET = 24


@dataclass(slots=True)
class SerialRound:
    """Outcome of one whole round (acceptance *and* FIFO deletion).

    Produced by both kernels, which own the ``new_loads`` array outright
    — the caller installs it with ``BinArray.commit_round`` (a reference
    swap, no copy) instead of applying per-key deltas. Everything else is
    scalars or small arrays derived from the load histogram, so committing
    a round touches no O(n) memory beyond the kernel's own passes.

    Attributes
    ----------
    new_loads:
        ``(N,)`` bin loads after acceptance and the end-of-round deletion.
    accepted_per_bucket:
        Balls accepted from each priority bucket — a plain ``list`` of K
        ints (``AgePool.remove_bulk`` consumes it without conversion).
    accepted_total:
        Total balls accepted.
    deleted:
        Bins that performed their FIFO deletion (non-empty after accept
        and not down).
    max_load:
        Maximum bin load after the deletion.
    peak_load:
        Maximum bin load after acceptance (before the deletion) — the
        round's high-water mark for ``BinArray.peak_load``.
    wait_values / wait_counts:
        Sorted wait histogram of the balls accepted this round.
    next_hist:
        ``bincount(new_loads, minlength=hist_size)`` as a plain list —
        the load histogram *after* the deletion, computed by an
        O(hist_size) shift of the post-acceptance histogram. Feeding it
        back as ``initial_hist`` of the next call skips that round's
        opening O(N) bincount.
    """

    new_loads: np.ndarray
    accepted_per_bucket: list[int]
    accepted_total: int
    deleted: int
    max_load: int
    peak_load: int
    wait_values: np.ndarray
    wait_counts: np.ndarray
    next_hist: list[int]


def resolve_capped_round(
    loads: np.ndarray,
    capacity_limit: int,
    ball_keys: np.ndarray,
    bucket_counts: list[int],
    bucket_ages: list[int],
) -> SerialRound:
    """Whole-round unit-take kernel: ceiling 1 and every bin empty.

    This is the homogeneous c = 1 steady state (every bin is emptied by
    the previous round's deletion). Each bin accepts at most one ball,
    the one from its highest-priority requesting bucket, so a
    descending-priority sweep of slice scatters (``winner[keys_b] = b``,
    the highest-priority bucket written last, so it wins) finds it
    without counting requests at all. Every accepted ball sits at queue
    position 0 and waits exactly its bucket's age, so the wait histogram
    *is* the per-bucket totals; every bin that accepted deletes its ball
    again, so the loads stay zero and ``new_loads`` is ``loads`` itself.

    Parameters
    ----------
    loads:
        Bin loads at round start; must all be zero.
    capacity_limit:
        Must be 1; taken so both kernels share their leading arguments.
    ball_keys / bucket_counts / bucket_ages:
        As for :func:`resolve_capped_round_serial`. The ages must be
        distinct (true for age buckets), since each is one wait value.
    """
    tel = _telemetry_current()
    start = time.perf_counter() if tel is not None else 0.0
    num_buckets = len(bucket_counts)
    # The first-touch scatter is bandwidth-bound; a byte-wide winner array
    # cuts its traffic 8× (the live bucket count fits easily — K ~ 7).
    dtype = np.int8 if num_buckets < 127 else np.int64
    winner = np.full(loads.size, num_buckets, dtype=dtype)
    end = ball_keys.size
    for b in range(num_buckets - 1, -1, -1):
        winner[ball_keys[end - bucket_counts[b] : end]] = b
        end -= bucket_counts[b]
    accepted_per_bucket = np.bincount(winner, minlength=num_buckets + 1)[:num_buckets].tolist()
    accepted_total = sum(accepted_per_bucket)
    waits = sorted((age, taken) for age, taken in zip(bucket_ages, accepted_per_bucket) if taken)
    result = SerialRound(
        new_loads=loads,
        accepted_per_bucket=accepted_per_bucket,
        accepted_total=accepted_total,
        deleted=accepted_total,
        max_load=0,
        peak_load=1 if accepted_total else 0,
        wait_values=np.array([age for age, _ in waits], dtype=np.int64),
        wait_counts=np.array([taken for _, taken in waits], dtype=np.int64),
        next_hist=[loads.size, 0],
    )
    if tel is not None:
        tel.inc("kernel_dispatch_total", path="unit_take")
        tel.observe("kernel_resolve_seconds", time.perf_counter() - start, path="unit_take")
    return result


def _top(hist: list[int]) -> int:
    """Highest load level a histogram holds (0 when every bin is empty)."""
    for k in range(len(hist) - 1, 0, -1):
        if hist[k]:
            return k
    return 0


def resolve_capped_round_serial(
    loads: np.ndarray,
    capacity_limit,
    ball_keys: np.ndarray,
    bucket_counts: list[int],
    bucket_ages: list[int],
    hist_size: int,
    initial_hist: list[int] | None = None,
    frozen: np.ndarray | None = None,
) -> SerialRound:
    """Whole-round kernel for any finite per-bin ceiling: accept + delete.

    Three ideas cut the per-round memory traffic to a handful of O(N)
    passes:

    1. **Clip against the ceiling, not free slots.** Track the evolving
       loads ``Q`` (starting at ``loads``) and clip
       ``Q = min(Q + R_b, capacity_limit)`` per bucket. For a shared
       capacity the limit is a *scalar* — no free-slots array is ever
       built, maintained, or subtracted.
    2. **Everything else comes from the load histogram.** ``H =
       bincount(Q)`` has ``hist_size`` entries. The per-bucket change
       ``ΔH`` telescopes into the wait histogram: bucket ``b``'s accepted
       balls at a bin occupy the queue positions from its load before the
       bucket up to its load after it, so ``cumsum(ΔH)`` is the bucket's
       queue-position occupancy. Its sum is the bucket's acceptance; the
       deletion count and the max load come from ``H`` too. No non-zero
       scans over bins, ever.
    3. **Sparse buckets never touch O(N) memory.** A bucket with at most
       ``N >> 3`` balls (older buckets at equilibrium are tiny) is
       resolved by gather/scatter on its unique keys alone; ``H`` is
       adjusted through the same ΔH bookkeeping, so dense and sparse
       buckets compose freely in one sweep. (Buckets small enough that
       even ``np.unique`` dispatch overhead dominates — a couple dozen
       balls — are resolved ball-by-ball in Python instead.)

    The FIFO deletion ``max(Q − 1, 0)`` is fused into the same pass
    structure, and the returned ``new_loads`` is handed to the caller by
    reference — ``BinArray.commit_round`` installs it without a copy.

    Parameters
    ----------
    loads:
        Bin loads at round start; **not mutated** (the kernel builds its
        own ``Q``).
    capacity_limit:
        Per-bin load ceiling (``BinArray.serial_round_limit``): a scalar
        for shared capacities, an ``(N,)`` array for heterogeneous,
        degraded, draining or down bins. Must dominate ``loads``
        element-wise; a bin whose ceiling is its load accepts nothing.
    ball_keys:
        One bin index per thrown ball, laid out in priority-major order:
        the ``bucket_counts[0]`` balls of the highest-priority bucket
        first, then bucket 1, and so on. Ball order *within* a bucket
        never matters (exchangeability).
    bucket_counts:
        Balls per priority bucket. Bucket 0 is accepted first:
        oldest-first callers pass age buckets oldest-first, the
        youngest-first ablation passes them reversed. Plain lists (the
        ``AgePool`` bookkeeping) go straight through; all per-bucket
        arithmetic here is scalar.
    bucket_ages:
        Age ``t − label`` of each priority bucket's balls, aligned with
        ``bucket_counts``.
    hist_size:
        ``max(capacity_limit) + 1`` — fixed size for the load histogram.
    initial_hist:
        Optional ``bincount(loads, minlength=hist_size)`` as a list,
        computed by a previous call (``SerialRound.next_hist``); passing
        it skips the opening O(N) bincount. The caller owns the
        staleness contract: it must describe ``loads`` exactly. The list
        is consumed (mutated) by the kernel.
    frozen:
        Optional ``(N,)`` mask of down bins. Their ceilings must equal
        their loads, and they skip the deletion: their queues neither
        grow nor drain.

    Returns
    -------
    SerialRound
        The committed-round summary; install with
        ``BinArray.commit_round``.
    """
    num_keys = loads.size
    if type(bucket_counts) is not list:
        bucket_counts = np.asarray(bucket_counts).tolist()
    if type(bucket_ages) is not list:
        bucket_ages = np.asarray(bucket_ages).tolist()
    num_buckets = len(bucket_counts)
    sparse_threshold = num_keys >> 3
    scalar_limit = np.isscalar(capacity_limit)

    tel = _telemetry_current()
    start = time.perf_counter() if tel is not None else 0.0

    # The load histogram, wait histogram, and all per-bucket ΔH
    # bookkeeping live in plain Python lists: they have O(capacity) ≈
    # single-digit entries, where list arithmetic beats numpy dispatch
    # overhead several-fold.
    if initial_hist is not None:
        hist = initial_hist if type(initial_hist) is list else np.asarray(initial_hist).tolist()
    else:
        hist = np.bincount(loads, minlength=hist_size).tolist()
    # Ages are monotone (descending for oldest-first, ascending for the
    # youngest-first ablation), so the extremes bound the histogram.
    max_age = max(bucket_ages[0], bucket_ages[-1]) if num_buckets else 0
    wait_hist = [0] * (max_age + hist_size)
    accepted_per_bucket = [0] * num_buckets
    accepted_total = 0
    current = loads
    owned = False  # whether `current` is kernel-owned scratch (mutable)
    offset = 0
    for b in range(num_buckets):
        count = bucket_counts[b]
        if count == 0:
            continue
        keys_b = ball_keys[offset : offset + count]
        offset += count
        age = bucket_ages[b]

        if count <= _TINY_BUCKET:
            # Ball-by-ball: within one bucket every ball has the same
            # priority, so greedy per-ball admission equals the per-key
            # clip, and a ball landing at in-round load ``q`` takes queue
            # position ``q`` (wait = age + q). A couple dozen scalar ops
            # undercut any vectorized formulation at this size.
            taken = 0
            for key in keys_b.tolist():
                held = current[key]
                limit = capacity_limit if scalar_limit else capacity_limit[key]
                if held < limit:
                    if not owned:
                        current = current.copy()
                        owned = True
                    current[key] = held + 1
                    hist[held] -= 1
                    hist[held + 1] += 1
                    wait_hist[age + held] += 1
                    taken += 1
            if taken:
                accepted_per_bucket[b] = taken
                accepted_total += taken
            continue

        if count <= sparse_threshold:
            # Unique keys via counting, not sorting: one bincount plus a
            # flatnonzero replaces the whole np.unique sort-diff chain.
            requests = np.bincount(keys_b, minlength=num_keys)
            unique_keys = np.flatnonzero(requests)
            request_counts = requests[unique_keys]
            held = current[unique_keys]
            limit = capacity_limit if scalar_limit else capacity_limit[unique_keys]
            take = np.minimum(request_counts, limit - held)
            if not take.any():
                continue
            moved = held + take
            delta = (
                np.bincount(held, minlength=hist_size)
                - np.bincount(moved, minlength=hist_size)
            ).tolist()
            for k in range(hist_size):
                if delta[k]:
                    hist[k] -= delta[k]
            if not owned:
                current = current.copy()
                owned = True
            current[unique_keys] = moved
        else:
            requests = np.bincount(keys_b, minlength=num_keys)
            if owned:
                np.add(current, requests, out=requests)
            else:
                requests += current
            np.minimum(requests, capacity_limit, out=requests)
            current = requests
            owned = True
            new_hist = np.bincount(current, minlength=hist_size).tolist()
            delta = [a - b2 for a, b2 in zip(hist, new_hist)]
            hist = new_hist

        # cumsum(ΔH) is this bucket's queue-position occupancy; shift by
        # its age and accumulate straight into the wait histogram.
        run = 0
        taken = 0
        for k in range(hist_size):
            run += delta[k]
            if run:
                wait_hist[age + k] += run
                taken += run
        if taken:
            accepted_per_bucket[b] = taken
            accepted_total += taken

    peak_load = _top(hist)
    if not owned:
        current = current.copy()
    if frozen is None:
        np.subtract(current, 1, out=current)
        np.maximum(current, 0, out=current)
        serving = hist
    else:
        np.subtract(current, (current > 0) & ~frozen, out=current)
        # Frozen bins keep their histogram column through the deletion.
        still = np.bincount(loads[frozen], minlength=hist_size).tolist()
        serving = [a - h for a, h in zip(hist, still)]
    deleted = sum(serving) - serving[0]

    # The deletion shifts the serving bins down one load level (empty bins
    # stay empty) — an O(hist_size) update that seeds the next round.
    next_hist = serving[1:]
    next_hist.append(0)
    next_hist[0] += serving[0]
    if frozen is not None:
        next_hist = [a + h for a, h in zip(next_hist, still)]

    wait_values = []
    wait_counts = []
    for w, occupants in enumerate(wait_hist):
        if occupants:
            wait_values.append(w)
            wait_counts.append(occupants)
    result = SerialRound(
        new_loads=current,
        accepted_per_bucket=accepted_per_bucket,
        accepted_total=accepted_total,
        deleted=deleted,
        max_load=_top(next_hist),
        peak_load=peak_load,
        wait_values=np.array(wait_values, dtype=np.int64),
        wait_counts=np.array(wait_counts, dtype=np.int64),
        next_hist=next_hist,
    )
    if tel is not None:
        tel.inc("kernel_dispatch_total", path="serial")
        tel.observe("kernel_resolve_seconds", time.perf_counter() - start, path="serial")
    return result
