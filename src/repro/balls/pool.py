"""The pool of unallocated balls, bucketed by generation round.

The paper's pool ``M(t)`` contains every ball that has been generated but not
yet accepted by a bin. Two facts make a *bucketed* representation the right
data structure:

1. Balls generated in the same round are exchangeable — the process treats
   them identically ("ties broken arbitrarily") — so only the *count* per
   generation round matters for the dynamics.
2. Acceptance is oldest-first, so iteration must visit buckets in increasing
   label order.

:class:`AgePool` therefore stores ``{label: count}`` in label order, giving
O(#distinct ages) rounds instead of O(#balls), which is what makes the
vectorised simulator fast. The exact per-ball simulator uses explicit
:class:`~repro.balls.ball.Ball` lists instead and is cross-validated against
this representation in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import InvariantViolation

__all__ = ["AgePool"]


class AgePool:
    """Multiset of balls keyed by generation round, oldest first.

    Examples
    --------
    >>> pool = AgePool()
    >>> pool.add(label=1, count=3)
    >>> pool.add(label=2, count=2)
    >>> pool.size
    5
    >>> pool.remove_oldest(4)
    >>> list(pool.buckets())
    [(2, 1)]
    """

    __slots__ = ("_labels", "_counts", "_size")

    def __init__(self) -> None:
        # Parallel lists sorted by label ascending. Labels are appended in
        # increasing order by the simulators (one new bucket per round), so
        # appends keep the order without searching.
        self._labels: list[int] = []
        self._counts: list[int] = []
        self._size = 0

    @property
    def size(self) -> int:
        """Total number of balls in the pool (``m(t)`` in the paper)."""
        return self._size

    @property
    def num_buckets(self) -> int:
        """Number of distinct generation rounds present."""
        return len(self._labels)

    @property
    def oldest_label(self) -> int | None:
        """Smallest generation round present, or ``None`` if empty."""
        return self._labels[0] if self._labels else None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AgePool(size={self._size}, buckets={self.num_buckets})"

    def count(self, label: int) -> int:
        """Number of pool balls generated in round ``label``."""
        lo = self._find(label)
        if lo is None:
            return 0
        return self._counts[lo]

    def _find(self, label: int) -> int | None:
        # Linear scan is fine: bucket counts are tiny (bounded by the
        # waiting time, which the paper bounds by ~log log n + O(c)).
        for i, existing in enumerate(self._labels):
            if existing == label:
                return i
        return None

    def add(self, label: int, count: int) -> None:
        """Add ``count`` balls generated in round ``label``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        if self._labels and label < self._labels[-1]:
            # Out-of-order insert; keep sorted order. Only failure-injection
            # tests exercise this path — simulators insert monotonically.
            idx = self._find(label)
            if idx is not None:
                self._counts[idx] += count
            else:
                pos = 0
                while pos < len(self._labels) and self._labels[pos] < label:
                    pos += 1
                self._labels.insert(pos, label)
                self._counts.insert(pos, count)
        elif self._labels and label == self._labels[-1]:
            self._counts[-1] += count
        else:
            self._labels.append(label)
            self._counts.append(count)
        self._size += count

    def buckets(self) -> Iterator[tuple[int, int]]:
        """Yield ``(label, count)`` pairs oldest first."""
        yield from zip(self._labels, self._counts)

    def labels(self) -> list[int]:
        """Labels present, oldest first (a copy)."""
        return list(self._labels)

    def counts(self) -> list[int]:
        """Counts aligned with :meth:`labels` (a copy)."""
        return list(self._counts)

    def remove_bulk(self, removed: list[int]) -> None:
        """Remove ``removed[i]`` balls from the i-th bucket (oldest first).

        The counterpart of :meth:`counts`: one call commits a whole
        round's per-bucket acceptance counts, in O(#buckets) total instead
        of one :meth:`remove` lookup per bucket.

        Raises
        ------
        InvariantViolation
            If ``removed`` is not aligned with the current buckets or any
            entry exceeds its bucket's count.
        """
        if len(removed) != len(self._labels):
            raise InvariantViolation(
                f"bulk removal of {len(removed)} entries does not match "
                f"{len(self._labels)} buckets"
            )
        kept_labels: list[int] = []
        kept_counts: list[int] = []
        total = 0
        for label, have, take in zip(self._labels, self._counts, removed):
            if take < 0 or take > have:
                raise InvariantViolation(
                    f"cannot remove {take} balls labeled {label}: bucket holds {have}"
                )
            total += take
            if have != take:
                kept_labels.append(label)
                kept_counts.append(have - take)
        self._labels = kept_labels
        self._counts = kept_counts
        self._size -= total

    def remove(self, label: int, count: int) -> None:
        """Remove ``count`` balls generated in round ``label``.

        Raises
        ------
        InvariantViolation
            If the bucket holds fewer than ``count`` balls — simulators only
            remove balls they previously threw, so underflow is a bug.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        idx = self._find(label)
        if idx is None or self._counts[idx] < count:
            have = 0 if idx is None else self._counts[idx]
            raise InvariantViolation(
                f"cannot remove {count} balls labeled {label}: bucket holds {have}"
            )
        self._counts[idx] -= count
        self._size -= count
        if self._counts[idx] == 0:
            del self._labels[idx]
            del self._counts[idx]

    def remove_oldest(self, count: int) -> None:
        """Remove the ``count`` oldest balls across buckets.

        Raises
        ------
        InvariantViolation
            If the pool holds fewer than ``count`` balls.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count > self._size:
            raise InvariantViolation(
                f"cannot remove {count} balls from a pool of size {self._size}"
            )
        remaining = count
        while remaining > 0:
            take = min(remaining, self._counts[0])
            self._counts[0] -= take
            remaining -= take
            self._size -= take
            if self._counts[0] == 0:
                del self._labels[0]
                del self._counts[0]

    def max_age(self, current_round: int) -> int:
        """Age of the oldest pool ball in ``current_round`` (0 if empty)."""
        if not self._labels:
            return 0
        return current_round - self._labels[0]

    def clear(self) -> None:
        """Empty the pool."""
        self._labels.clear()
        self._counts.clear()
        self._size = 0

    def get_state(self) -> dict:
        """Snapshot for checkpoint/restore (plain JSON-able dict)."""
        return {"labels": list(self._labels), "counts": list(self._counts)}

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self._labels = [int(x) for x in state["labels"]]
        self._counts = [int(x) for x in state["counts"]]
        self._size = sum(self._counts)
        self.check_invariants()

    def check_invariants(self) -> None:
        """Verify internal consistency (sortedness, positive counts, size)."""
        if any(c <= 0 for c in self._counts):
            raise InvariantViolation("pool bucket with non-positive count")
        if any(a >= b for a, b in zip(self._labels, self._labels[1:])):
            raise InvariantViolation("pool labels not strictly increasing")
        if sum(self._counts) != self._size:
            raise InvariantViolation(f"pool size cache {self._size} != actual {sum(self._counts)}")
