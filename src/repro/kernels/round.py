"""The fused single-pass CAPPED acceptance kernel.

The legacy round step of :class:`~repro.core.capped.CappedProcess` walks
the age buckets oldest-first and pays ``np.bincount(minlength=n)``, a
``minimum`` against free slots, and a full ``accept()`` pass *per bucket*
— several full O(n) element passes per age bucket per round, plus a
Python round-trip each. The fused kernel resolves capped acceptance for
*all* age buckets in one shot, with no per-ball sorting and no Python
loop over bins.

The key observation is exchangeability: balls generated in the same round
are interchangeable, so acceptance never needs per-ball identity — only
the *count* of requests per (bin, age bucket). Two regimes follow:

**Unit-take fast path** (``free.max() <= 1``, which always holds for
``c = 1`` — the paper's flagship configuration): every bin accepts at
most one ball, namely its highest-priority requester. A descending-
priority sweep of slice scatters (``winner[keys_of_bucket_b] = b``,
oldest bucket written last) leaves each touched bin holding its winning
bucket — O(#thrown) scattered writes and a handful of O(n) mask passes,
with no request counting at all.

**Counting general path**: one composite ``bincount`` over
``bucket·n + key`` counts every (bucket, key) request pair at once —
a counting sort of the thrown balls by age bucket and key without ever
sorting per ball. A running row clip ``cum_b = min(cum_{b-1} + R_b,
free)`` then applies the greedy oldest-first rule as K contiguous
vector passes (the winner-map idea generalized past ``free <= 1``:
instead of one winning bucket per key, each key holds a clipped
cumulative *count* per bucket). There is no per-bucket Python
round-trip through bin state and no budget bookkeeping — the clip is
the budget.

Waiting times never need per-ball expansion on this path: bucket
``b``'s accepted balls at key ``k`` occupy the queue-position range
``[loads_k + cum_{b-1,k}, loads_k + cum_{b,k})``, so the per-position
occupancy of bucket ``b`` is the difference of two *position
histograms* ``bincount(loads + cum_b)`` — and those histograms
telescope across buckets (bucket ``b``'s end positions are bucket
``b+1``'s starts), K+1 bincounts total. Shifting each bucket's
occupancy by its age and summing gives the wait histogram directly;
empty runs cancel between adjacent histograms, so nothing is ever
scanned for non-zeros. A ball at position ``p`` waits ``age_b + p``
rounds (see :mod:`repro.balls.bin_array` for the position identity);
the legacy reference expands per-ball waits with
:func:`positional_waits`.

The kernel never mutates its inputs; callers commit the result through
``BinArray.commit_accepted`` and ``AgePool.remove_bulk`` (one call each
per round).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.telemetry.runtime import current as _telemetry_current

__all__ = [
    "ResolvedRound",
    "SerialRound",
    "positional_waits",
    "resolve_capped_round",
    "resolve_capped_round_serial",
    "wait_histogram",
]

_EMPTY = np.zeros(0, dtype=np.int64)


def wait_histogram(waits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (values, counts) of a waiting-time sample.

    Equivalent to ``np.unique(waits, return_counts=True)`` but via one
    bincount — waits are small non-negative ints, so counting beats the
    O(m log m) sort for the large per-round samples near λ → 1.
    """
    if not waits.size:
        return _EMPTY, _EMPTY
    histogram = np.bincount(waits)
    values = np.flatnonzero(histogram)
    return values, histogram[values]


def positional_waits(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand per-run (start, length) pairs into individual waiting times.

    Run ``i`` contributes the values ``starts[i], starts[i]+1, ...,
    starts[i]+lengths[i]−1`` — one per accepted ball, in queue order.
    """
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY
    repeated_starts = np.repeat(starts, lengths)
    cumulative = np.cumsum(lengths) - lengths
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cumulative, lengths)
    return repeated_starts + offsets


@dataclass(slots=True)
class ResolvedRound:
    """Outcome of one fused acceptance pass.

    Array dtypes are an implementation detail: the unit-take path returns
    the narrowest representation that holds the values (boolean per-key
    counts), so consume the fields numerically rather than relying on
    ``int64`` or on writability.

    Attributes
    ----------
    accepted_per_key:
        ``(N,)`` — balls accepted by each key, ``min(total requests, free)``.
    accepted_per_bucket:
        ``(K,)`` — balls accepted from each priority bucket (bucket 0 is
        highest priority), ready for ``AgePool.remove_bulk``.
    accepted_total:
        Total balls accepted.
    wait_hist:
        Sorted ``(values, counts)`` histogram of the accepted balls'
        waiting times (``age + queue position``), as
        :func:`wait_histogram` would return for the per-ball waits.
    """

    accepted_per_key: np.ndarray
    accepted_per_bucket: np.ndarray
    accepted_total: int
    wait_hist: tuple[np.ndarray, np.ndarray]


def _resolve_unit_take(
    free: np.ndarray,
    loads: np.ndarray,
    ball_keys: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_ages: np.ndarray,
) -> ResolvedRound:
    """Fast path for ``free <= 1`` everywhere (always true at c = 1).

    Each key accepts at most one ball: the one from its highest-priority
    requesting bucket. A descending-priority sweep of slice scatters
    (oldest bucket written last, so it wins) finds that bucket per key
    without counting requests at all.
    """
    num_keys = free.size
    num_buckets = bucket_counts.size
    # The first-touch scatter is bandwidth-bound; a byte-wide winner array
    # cuts its traffic 8× (the live bucket count fits easily — K ~ 7).
    dtype = np.int8 if num_buckets < 127 else np.int64
    winner = np.full(num_keys, num_buckets, dtype=dtype)
    bounds = np.cumsum(bucket_counts)
    for b in range(num_buckets - 1, -1, -1):
        winner[ball_keys[bounds[b] - bucket_counts[b] : bounds[b]]] = b

    # At homogeneous c = 1 every bin is emptied by the end-of-round
    # deletion, so at round start no bin is full and every load is zero;
    # these checks are cheap single passes that skip the full-bin masking
    # and the per-ball wait gather in that (dominant) case. Neither is
    # assumed: heterogeneous, degraded, or down bins take the full
    # branches.
    if int(free.min()) <= 0:
        # Evict full/down keys from the winner map itself so the mask
        # and the per-bucket counts below both see the clipped outcome.
        winner[free <= 0] = num_buckets
    accepted_mask = winner < num_buckets
    accepted_per_bucket = np.bincount(winner, minlength=num_buckets + 1)[:num_buckets]
    accepted_total = int(accepted_per_bucket.sum())

    if loads.any():
        # Each accepted ball sits at queue position ``loads[key]``, so it
        # waits its bucket's age plus that load.
        accepted_keys = np.flatnonzero(accepted_mask)
        waits = bucket_ages[winner[accepted_keys]] + loads[accepted_keys]
        wait_hist = wait_histogram(waits)
    else:
        # With every load zero each accepted ball waits exactly its
        # bucket's age, so the histogram *is* the per-bucket totals and
        # no per-ball array need exist at all.
        live = np.flatnonzero(accepted_per_bucket)
        ages_live = bucket_ages[live]
        order = np.argsort(ages_live)
        wait_hist = (ages_live[order], accepted_per_bucket[live][order])
    return ResolvedRound(
        accepted_per_key=accepted_mask,
        accepted_per_bucket=accepted_per_bucket,
        accepted_total=accepted_total,
        wait_hist=wait_hist,
    )


def _resolve_counting(
    free: np.ndarray,
    loads: np.ndarray,
    ball_keys: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_ages: np.ndarray,
) -> ResolvedRound:
    """General path: counting sort over (bucket, key) plus a running clip.

    One composite ``bincount`` over ``bucket·num_keys + key`` produces the
    full request matrix ``R`` (counting-sorting the balls by age bucket
    and key); the greedy oldest-first rule is then K contiguous row
    passes ``cum_b = min(cum_{b-1} + R_b, free)`` clipped in place over
    the same matrix. ``cum_b`` is element-wise non-decreasing in ``b``
    (``cum_{b-1} <= free`` always, so adding ``R_b >= 0`` and re-clipping
    can only grow it), which makes ``cum`` exactly the per-key cumulative
    acceptance through bucket ``b`` — the last row *is* the per-key
    acceptance, no budget bookkeeping required.

    The wait histogram comes from telescoped position histograms: bucket
    ``b``'s accepted balls at key ``k`` sit at queue positions
    ``[loads_k + cum_{b-1,k}, loads_k + cum_{b,k})``, so ``H_b =
    bincount(loads + cum_b)`` gives bucket ``b``'s end positions *and*
    bucket ``b+1``'s start positions. ``cumsum(H_{b-1} − H_b)`` is then
    bucket ``b``'s per-position occupancy (keys with no acceptance in
    ``b`` contribute equally to both histograms and cancel), and shifting
    by ``age_b`` accumulates straight into the wait histogram — no
    per-ball array, no non-zero scan, and every heavy pass is a
    contiguous O(num_keys) operation.
    """
    num_keys = free.size
    num_buckets = bucket_counts.size
    if num_buckets == 1:
        cum = np.bincount(ball_keys, minlength=num_keys).reshape(1, num_keys)
    else:
        offsets = np.repeat(np.arange(num_buckets, dtype=np.int64) * num_keys, bucket_counts)
        cum = np.bincount(ball_keys + offsets, minlength=num_buckets * num_keys).reshape(
            num_buckets, num_keys
        )
    np.minimum(cum[0], free, out=cum[0])
    for b in range(1, num_buckets):
        np.add(cum[b], cum[b - 1], out=cum[b])
        np.minimum(cum[b], free, out=cum[b])

    # Telescoped position histograms: hists[b] counts the start positions
    # of bucket b and the end positions of bucket b−1.
    pos = np.empty(num_keys, dtype=np.int64)
    hists = [np.bincount(loads)]
    for b in range(num_buckets):
        np.add(cum[b], loads, out=pos)
        hists.append(np.bincount(pos))
    width = max(h.size for h in hists)
    wait_hist = np.zeros(int(bucket_ages.max()) + width, dtype=np.int64)
    accepted_per_bucket = np.empty(num_buckets, dtype=np.int64)
    accepted_total = 0
    for b in range(num_buckets):
        h_start, h_end = hists[b], hists[b + 1]
        occupancy = np.zeros(max(h_start.size, h_end.size), dtype=np.int64)
        occupancy[: h_start.size] += h_start
        occupancy[: h_end.size] -= h_end
        np.cumsum(occupancy, out=occupancy)
        taken = int(occupancy.sum())
        accepted_per_bucket[b] = taken
        accepted_total += taken
        if taken:
            age = int(bucket_ages[b])
            wait_hist[age : age + occupancy.size] += occupancy
    values = np.flatnonzero(wait_hist)
    return ResolvedRound(
        accepted_per_key=cum[num_buckets - 1],
        accepted_per_bucket=accepted_per_bucket,
        accepted_total=accepted_total,
        wait_hist=(values, wait_hist[values]),
    )


def resolve_capped_round(
    free: np.ndarray,
    loads: np.ndarray,
    ball_keys: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_ages: np.ndarray,
) -> ResolvedRound:
    """Resolve capped acceptance for all thrown balls in one pass.

    Parameters
    ----------
    free:
        Per-key free slots (``BinArray.free_slots()``); not mutated.
    loads:
        Per-key loads at the start of the round; not mutated.
    ball_keys:
        One bin index per thrown ball, laid out in priority-major order:
        the ``bucket_counts[0]`` balls of the highest-priority bucket
        first, then bucket 1, and so on. Ball order *within* a bucket
        never matters (exchangeability).
    bucket_counts:
        ``(K,)`` — balls per priority bucket. Bucket 0 is accepted first:
        oldest-first callers pass age buckets oldest-first, the
        youngest-first ablation passes them reversed.
    bucket_ages:
        ``(K,)`` — age ``t − label`` of each priority bucket's balls.
        Must be distinct (true by construction for age buckets): the
        zero-load unit-take path reads the histogram straight off the
        per-bucket totals.

    Returns
    -------
    ResolvedRound
        Acceptance counts and the wait histogram. Loads and pool state
        are *not* updated — callers commit via ``BinArray.commit_accepted``
        and ``AgePool.remove_bulk``.
    """
    num_buckets = bucket_counts.size
    if ball_keys.size == 0 or num_buckets == 0:
        return ResolvedRound(
            np.zeros(free.size, dtype=np.int64),
            np.zeros(num_buckets, dtype=np.int64),
            0,
            (_EMPTY, _EMPTY),
        )
    # Dispatch: unit-take covers c = 1 exactly and saturated heterogeneous
    # rounds opportunistically; the sentinel for unbounded bins (2**62)
    # keeps those on the general path.
    unit_take = int(free.max()) <= 1
    resolve = _resolve_unit_take if unit_take else _resolve_counting
    # Telemetry (path counts + resolve timing) is read-only and costs one
    # global read when disabled; it lands in a *separate* metric from the
    # phase laps so attribution never double-counts the accept phase.
    tel = _telemetry_current()
    if tel is None:
        return resolve(free, loads, ball_keys, bucket_counts, bucket_ages)
    start = time.perf_counter()
    resolved = resolve(free, loads, ball_keys, bucket_counts, bucket_ages)
    path = "unit_take" if unit_take else "counting"
    tel.inc("kernel_dispatch_total", path=path)
    tel.observe("kernel_resolve_seconds", time.perf_counter() - start, path=path)
    return resolved


# Buckets at most this large are resolved ball-by-ball in scalar Python:
# below a couple dozen balls even a single ``np.unique`` call costs more
# than the whole loop. Equilibrium pools put their oldest buckets here.
_TINY_BUCKET = 24


@dataclass(slots=True)
class SerialRound:
    """Outcome of one whole serial round (acceptance *and* FIFO deletion).

    Produced by :func:`resolve_capped_round_serial`, which owns the
    ``new_loads`` array outright — the caller installs it with
    ``BinArray.commit_round`` (a reference swap, no copy) instead of
    applying per-key deltas. Everything else is scalars or small arrays
    derived from the load histogram, so committing a round touches no
    O(n) memory beyond the kernel's own passes.

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
        Bins that performed their FIFO deletion (non-empty after accept).
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


def resolve_capped_round_serial(
    loads: np.ndarray,
    capacity_limit,
    ball_keys: np.ndarray,
    bucket_counts: np.ndarray,
    bucket_ages: np.ndarray,
    hist_size: int,
    initial_hist: np.ndarray | None = None,
) -> SerialRound:
    """Whole-round serial kernel for finite capacities: accept + delete.

    The bandwidth-lean specialisation of the counting path for the serial
    simulators (one process, bounded bins, no down bins). Three ideas cut
    the per-round memory traffic to a handful of O(N) passes:

    1. **Clip against effective capacity, not free slots.** Track the
       evolving loads ``Q`` (starting at ``loads``) and clip
       ``Q = min(Q + R_b, capacity_limit)`` per bucket. For a shared
       finite capacity the limit is a *scalar* — no free-slots array is
       ever built, maintained, or subtracted.
    2. **Everything else comes from the load histogram.** ``H =
       bincount(Q)`` has ``hist_size`` entries (≤ capacity + 1). The
       per-bucket change ``ΔH`` telescopes into the wait histogram
       (``cumsum(ΔH)`` is the bucket's queue-position occupancy — see
       :func:`_resolve_counting`), its sum is the bucket's acceptance,
       ``N − H[0]`` is the deletion count, and the last non-zero index is
       the max load. No non-zero scans over bins, ever.
    3. **Sparse buckets never touch O(N) memory.** A bucket with at most
       ``N >> 3`` balls (older buckets at equilibrium are tiny) is
       resolved by gather/scatter on its unique keys alone; ``H`` is
       adjusted through the same ΔH bookkeeping, so dense and sparse
       buckets compose freely in one sweep. (Buckets small enough that
       even ``np.unique`` dispatch overhead dominates — a couple dozen
       balls — are resolved ball-by-ball in Python instead.)

    The FIFO deletion ``max(Q − 1, 0)`` is fused into the same pass
    structure, and the returned ``new_loads`` is handed to the caller by
    reference — with lazy free-slot recomputation in ``BinArray``, a
    fault-free round moves ~3× fewer bytes than the general counting
    path.

    Parameters
    ----------
    loads:
        Bin loads at round start; **not mutated** (the kernel builds its
        own ``Q``).
    capacity_limit:
        Effective per-bin load ceiling ``max(capacity, load)``: a scalar
        for shared capacities, an ``(N,)`` array for heterogeneous or
        degraded bins. Must dominate ``loads`` element-wise.
    ball_keys / bucket_counts / bucket_ages:
        As for :func:`resolve_capped_round` (priority-major layout).
        ``bucket_counts`` and ``bucket_ages`` may be plain lists — the
        serial callers pass the ``AgePool`` bookkeeping straight through
        without building arrays, since all per-bucket arithmetic here is
        scalar.
    hist_size:
        ``max(capacity_limit) + 1`` — fixed size for the load histogram.
    initial_hist:
        Optional ``bincount(loads, minlength=hist_size)`` as a list,
        computed by a previous call (``SerialRound.next_hist``); passing
        it skips the opening O(N) bincount. The caller owns the
        staleness contract: it must describe ``loads`` exactly. The list
        is consumed (mutated) by the kernel.

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
    max_age = int(max(bucket_ages[0], bucket_ages[-1]))
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

    deleted = num_keys - hist[0]
    peak_load = 0
    for k in range(hist_size - 1, 0, -1):
        if hist[k]:
            peak_load = k
            break
    if not owned:
        current = current.copy()
    np.subtract(current, 1, out=current)
    np.maximum(current, 0, out=current)

    # The deletion shifts the histogram down one load level (empty bins
    # stay empty) — an O(hist_size) update that seeds the next round.
    next_hist = hist[1:]
    next_hist.append(0)
    next_hist[0] += hist[0]

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
        max_load=max(peak_load - 1, 0),
        peak_load=peak_load,
        wait_values=np.array(wait_values, dtype=np.int64),
        wait_counts=np.array(wait_counts, dtype=np.int64),
        next_hist=next_hist,
    )
    if tel is not None:
        tel.inc("kernel_dispatch_total", path="serial")
        tel.observe("kernel_resolve_seconds", time.perf_counter() - start, path="serial")
    return result
