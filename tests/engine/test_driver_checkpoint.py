"""Kill-and-resume bit-identity through SimulationDriver checkpoints.

The contract under test: kill a checkpointed run at any round, run the same
driver configuration again against the same checkpoint directory, and the
final :class:`SimulationResult` — and the RoundRecord stream feeding it —
is bit-identical to an uninterrupted run.
"""

import pytest

from repro.checkpoint import CheckpointStore
from repro.churn import CapacityDegradation, Injector, Schedule, StochasticCrashes
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import TraceRecorder
from repro.errors import CheckpointIncompatible, ConfigurationError
from repro.processes.capped_dchoice import CappedDChoiceProcess


class KillAt:
    """Wrap a process to raise KeyboardInterrupt right after round R steps."""

    def __init__(self, process, at_round):
        self._process = process
        self._at_round = at_round

    def __getattr__(self, name):
        return getattr(self._process, name)

    @property
    def __class__(self):  # keep the snapshot's process-class tag honest
        return type(self._process)

    def step(self):
        record = self._process.step()
        records = record if isinstance(record, list) else [record]
        if records[0].round == self._at_round:
            raise KeyboardInterrupt
        return record


def result_key(result):
    return (
        result.summary,
        result.pool_series.tolist(),
        result.burn_in,
        result.measured,
        result.stationary,
    )


def records_key(records):
    return [
        (
            r.round,
            r.arrivals,
            r.thrown,
            r.accepted,
            r.deleted,
            r.pool_size,
            r.total_load,
            r.max_load,
            r.wait_values.tolist(),
            r.wait_counts.tolist(),
        )
        for r in records
    ]


def assert_kill_resume_identical(tmp_path, make_process, kill_round, burn_in=15, measure=25):
    """Kill at ``kill_round``, resume, compare against an uninterrupted run."""
    reference = SimulationDriver(burn_in=burn_in, measure=measure).run(make_process())

    interrupted = SimulationDriver(
        burn_in=burn_in, measure=measure, checkpoint_dir=tmp_path, checkpoint_every=4
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(KillAt(make_process(), kill_round))

    resumed = SimulationDriver(
        burn_in=burn_in, measure=measure, checkpoint_dir=tmp_path, checkpoint_every=4
    )
    result = resumed.run(make_process())
    assert resumed.last_restore is not None
    assert result_key(result) == result_key(reference)
    return resumed


class TestCappedKillResume:
    @pytest.mark.parametrize("capacity", [1, 4])
    @pytest.mark.parametrize("kill_round", [3, 16, 39])
    def test_bit_identical_at_any_phase(self, tmp_path, capacity, kill_round):
        def make():
            return CappedProcess(n=64, capacity=capacity, lam=0.75, rng=11)

        assert_kill_resume_identical(tmp_path, make, kill_round)

    def test_round_record_stream_identical(self, tmp_path):
        # Not just the summary: the per-round records seen by observers on
        # the resumed run continue the reference stream exactly.
        def make(observer=None):
            process = CappedProcess(n=64, capacity=2, lam=0.75, rng=5)
            observers = [] if observer is None else [observer]
            return process, observers

        ref_trace = TraceRecorder()
        process, observers = make(ref_trace)
        SimulationDriver(burn_in=10, measure=20, observers=observers).run(process)

        trace = TraceRecorder()
        process, observers = make(trace)
        driver = SimulationDriver(
            burn_in=10,
            measure=20,
            observers=observers,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
        )
        with pytest.raises(KeyboardInterrupt):
            driver.run(KillAt(process, 17))

        resumed_trace = TraceRecorder()
        process, observers = make(resumed_trace)
        SimulationDriver(
            burn_in=10,
            measure=20,
            observers=observers,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
        ).run(process)
        reference = records_key(ref_trace.records)
        # Before the kill, the interrupted run saw the reference prefix.
        interrupted = records_key(trace.records)
        assert interrupted == reference[: len(interrupted)]
        # The resumed run replays from the snapshot round; its records are
        # the exact tail of the reference stream.
        resumed_records = records_key(resumed_trace.records)
        assert resumed_records == reference[-len(resumed_records):]


class TestDChoiceKillResume:
    def test_bit_identical(self, tmp_path):
        def make():
            return CappedDChoiceProcess(n=64, capacity=2, d=2, lam=0.75, rng=7)

        assert_kill_resume_identical(tmp_path, make, kill_round=22)


class TestFaultScheduleKillResume:
    def test_bit_identical_through_active_faults(self, tmp_path):
        schedule = Schedule(
            events=(
                StochasticCrashes(crash_prob=0.02, recover_prob=0.3, first_round=1),
                CapacityDegradation(at_round=20, duration=12, capacity=1, fraction=0.5),
            ),
            seed=99,
        )

        def make():
            process = CappedProcess(n=64, capacity=4, lam=0.75, rng=13)
            injector = Injector(schedule)
            return process, injector

        process, injector = make()
        reference = SimulationDriver(burn_in=15, measure=25, observers=[injector]).run(process)

        process, injector = make()
        driver = SimulationDriver(
            burn_in=15,
            measure=25,
            observers=[injector],
            checkpoint_dir=tmp_path,
            checkpoint_every=4,
        )
        with pytest.raises(KeyboardInterrupt):
            driver.run(KillAt(process, 27))

        process, injector = make()
        resumed = SimulationDriver(
            burn_in=15,
            measure=25,
            observers=[injector],
            checkpoint_dir=tmp_path,
            checkpoint_every=4,
        )
        result = resumed.run(process)
        assert resumed.last_restore is not None
        assert result_key(result) == result_key(reference)
        # The injector's own ledger must line up too, not just the result.
        assert injector.crashes + injector.recoveries > 0


class TestCorruptionFallback:
    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        def make():
            return CappedProcess(n=64, capacity=2, lam=0.75, rng=21)

        reference = SimulationDriver(burn_in=10, measure=20).run(make())

        driver = SimulationDriver(
            burn_in=10, measure=20, checkpoint_dir=tmp_path, checkpoint_every=3
        )
        with pytest.raises(KeyboardInterrupt):
            driver.run(KillAt(make(), 25))

        store = CheckpointStore(tmp_path)
        newest_round, newest = store.snapshots()[0]
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])

        resumed = SimulationDriver(
            burn_in=10, measure=20, checkpoint_dir=tmp_path, checkpoint_every=3
        )
        result = resumed.run(make())
        assert resumed.last_restore.reason == "corrupt"
        assert resumed.last_restore.round < newest_round
        assert result_key(result) == result_key(reference)


class TestRestoreValidation:
    def test_other_configuration_rejected(self, tmp_path):
        driver = SimulationDriver(
            burn_in=5, measure=10, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        driver.run(CappedProcess(n=32, capacity=2, lam=0.75, rng=1))

        other = SimulationDriver(burn_in=5, measure=11, checkpoint_dir=tmp_path, checkpoint_every=2)
        with pytest.raises(CheckpointIncompatible, match="measure"):
            other.run(CappedProcess(n=32, capacity=2, lam=0.75, rng=1))

    def test_other_process_rejected(self, tmp_path):
        driver = SimulationDriver(
            burn_in=5, measure=10, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        driver.run(CappedProcess(n=32, capacity=2, lam=0.75, rng=1))

        other = SimulationDriver(burn_in=5, measure=10, checkpoint_dir=tmp_path, checkpoint_every=2)
        with pytest.raises(CheckpointIncompatible, match="n "):
            other.run(CappedProcess(n=64, capacity=2, lam=0.75, rng=1))

    def test_cadence_requires_directory(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            SimulationDriver(burn_in=1, measure=1, checkpoint_every=5)

    def test_completed_run_restores_to_final_state(self, tmp_path):
        # Running again over a finished run's directory replays nothing:
        # the restored counters already satisfy both phases on the nearest
        # snapshot, so only the post-snapshot tail is recomputed.
        def make():
            return CappedProcess(n=32, capacity=2, lam=0.75, rng=2)

        first = SimulationDriver(
            burn_in=5, measure=10, checkpoint_dir=tmp_path, checkpoint_every=5
        ).run(make())
        again = SimulationDriver(burn_in=5, measure=10, checkpoint_dir=tmp_path, checkpoint_every=5)
        second = again.run(make())
        assert again.last_restore is not None
        assert result_key(first) == result_key(second)
