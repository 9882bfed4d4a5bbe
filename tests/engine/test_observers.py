"""Unit tests for observers."""

import numpy as np
import pytest

from repro.engine.metrics import RoundRecord
from repro.engine.observers import InvariantChecker, Observer, TraceRecorder
from repro.errors import InvariantViolation

_EMPTY = np.zeros(0, dtype=np.int64)


def record(round_index: int, pool: int = 0) -> RoundRecord:
    return RoundRecord(round=round_index, pool_size=pool, wait_values=_EMPTY, wait_counts=_EMPTY)


class FlakyProcess:
    """check_invariants fails after being armed."""

    def __init__(self):
        self.armed = False
        self.calls = 0

    def check_invariants(self):
        self.calls += 1
        if self.armed:
            raise InvariantViolation("armed")


class TestTraceRecorder:
    def test_records_all(self):
        trace = TraceRecorder()
        for i in range(3):
            trace.on_round(record(i + 1, pool=i), process=None)
        assert len(trace) == 3
        assert trace.pool_sizes() == [0, 1, 2]

    def test_satisfies_protocol(self):
        assert isinstance(TraceRecorder(), Observer)


class TestInvariantChecker:
    def test_checks_every_round_by_default(self):
        checker = InvariantChecker()
        process = FlakyProcess()
        for i in range(5):
            checker.on_round(record(i + 1), process)
        assert process.calls == 5
        assert checker.checks_run == 5

    def test_respects_interval(self):
        checker = InvariantChecker(every=3)
        process = FlakyProcess()
        for i in range(9):
            checker.on_round(record(i + 1), process)
        assert process.calls == 3

    def test_propagates_violation(self):
        checker = InvariantChecker()
        process = FlakyProcess()
        process.armed = True
        with pytest.raises(InvariantViolation):
            checker.on_round(record(1), process)

    def test_violation_message_localizes_failure(self):
        checker = InvariantChecker()
        process = FlakyProcess()
        process.armed = True
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_round(record(42, pool=9), process)
        message = str(excinfo.value)
        assert "round 42" in message
        assert "FlakyProcess" in message
        assert "pool=9" in message
        assert "armed" in message  # the underlying error survives
        assert isinstance(excinfo.value.__cause__, InvariantViolation)

    def test_tolerates_processes_without_invariants(self):
        checker = InvariantChecker()
        checker.on_round(record(1), process=object())

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            InvariantChecker(every=0)
