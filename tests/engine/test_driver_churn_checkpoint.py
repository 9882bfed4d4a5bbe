"""Kill-and-resume bit-identity with churn/fault/autoscale observers attached.

Extends the checkpoint contract of ``test_driver_checkpoint.py`` to elastic
runs: a kill at any round — including rounds bracketing a membership resize
— resumes bit-identically because the driver snapshots observer state
(injector RNG position, pending drains, autoscaler window) alongside the
process.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointStore
from repro.churn import scenario_from_dict
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import TraceRecorder
from repro.errors import CheckpointIncompatible


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
        if record.round == self._at_round:
            raise KeyboardInterrupt
        return record


SCENARIO = {
    "churn": {
        "seed": 11,
        "min_n": 16,
        "events": [
            {"type": "join_burst", "at_round": 12, "count": 16},
            {"type": "leave_burst", "at_round": 24, "count": 12, "policy": "drain"},
            {"type": "leave_burst", "at_round": 34, "fraction": 0.25, "policy": "rehash"},
        ],
    },
    "faults": {
        "seed": 7,
        "events": [
            {"type": "crash_burst", "at_round": 18, "fraction": 0.1, "duration": 10},
        ],
    },
    "autoscaling": {
        "controller": "utilization",
        "target": 0.4,
        "band": 0.05,
        "window": 6,
        "check_every": 6,
        "cooldown": 12,
        "max_step": 8,
        "min_n": 16,
    },
    "autoscale_seed": 3,
}

BURN_IN, MEASURE = 10, 35


def make_process():
    return CappedProcess(n=64, capacity=2, lam=0.75, rng=11)


def run_reference():
    trace = TraceRecorder()
    observers = scenario_from_dict(SCENARIO).build_observers() + [trace]
    process = make_process()
    SimulationDriver(burn_in=BURN_IN, measure=MEASURE, observers=observers).run(process)
    return trace, process


def records_key(records):
    return [
        (
            r.round,
            r.arrivals,
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


# Kill rounds bracket every membership change in SCENARIO: before the join
# (11), on the resize round itself (12), mid-drain (26), right after the
# rehash shrink (35), and late (42).
@pytest.mark.parametrize("kill_round", [11, 12, 26, 35, 42])
def test_kill_resume_bit_identical_through_churn(tmp_path, kill_round):
    ref_trace, ref_process = run_reference()
    reference = records_key(ref_trace.records)

    # Same observer shape as the resumed run (the restore validates it).
    observers = scenario_from_dict(SCENARIO).build_observers() + [TraceRecorder()]
    interrupted = SimulationDriver(
        burn_in=BURN_IN,
        measure=MEASURE,
        observers=observers,
        checkpoint_dir=tmp_path,
        checkpoint_every=4,
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(KillAt(make_process(), kill_round))

    trace = TraceRecorder()
    observers = scenario_from_dict(SCENARIO).build_observers() + [trace]
    resumed_driver = SimulationDriver(
        burn_in=BURN_IN,
        measure=MEASURE,
        observers=observers,
        checkpoint_dir=tmp_path,
        checkpoint_every=4,
    )
    process = make_process()
    resumed_driver.run(process)
    assert resumed_driver.last_restore is not None

    # The resumed record stream is the exact tail of the reference stream,
    # and the final elastic membership matches.
    resumed = records_key(trace.records)
    assert resumed == reference[-len(resumed) :]
    assert process.n == ref_process.n
    assert process.bins.loads.tolist() == ref_process.bins.loads.tolist()
    assert process.pool.size == ref_process.pool.size
    process.check_invariants()


def test_observer_counters_restored(tmp_path):
    # The counters the injectors accumulate (joins, rehashes, scale events)
    # survive the kill/resume cycle rather than resetting to zero.
    scenario = scenario_from_dict(SCENARIO)
    ref_observers = scenario.build_observers()
    SimulationDriver(burn_in=BURN_IN, measure=MEASURE, observers=ref_observers).run(
        make_process()
    )
    ref_injector, ref_scaler = ref_observers

    observers = scenario.build_observers()
    with pytest.raises(KeyboardInterrupt):
        SimulationDriver(
            burn_in=BURN_IN,
            measure=MEASURE,
            observers=observers,
            checkpoint_dir=tmp_path,
            checkpoint_every=4,
        ).run(KillAt(make_process(), 30))

    observers = scenario.build_observers()
    SimulationDriver(
        burn_in=BURN_IN,
        measure=MEASURE,
        observers=observers,
        checkpoint_dir=tmp_path,
        checkpoint_every=4,
    ).run(make_process())
    injector, scaler = observers
    assert injector.joins == ref_injector.joins
    assert injector.leaves == ref_injector.leaves
    assert injector.balls_rehashed == ref_injector.balls_rehashed
    assert injector.events_log == ref_injector.events_log
    assert injector.crashes == ref_injector.crashes
    assert (scaler.scale_outs, scaler.scale_ins, scaler.events_log) == (
        ref_scaler.scale_outs,
        ref_scaler.scale_ins,
        ref_scaler.events_log,
    )


# sha256 of the reference run's records and final loads, computed while
# fault and churn events still had one injector each: merging them into one
# injector must not move the trajectory.
PINNED_DIGEST = "4a7368ff8e23e25e6074e3670afac60d0455b4965bfcfd90d6602ed07629dd6f"


def test_mixed_scenario_trajectory_is_pinned():
    trace, process = run_reference()
    payload = json.dumps([records_key(trace.records), process.bins.loads.tolist()])
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_DIGEST


# Round-20 snapshots of SCENARIO (and of its faults + autoscaling part)
# written when faults and churn had separate injectors: one observer state
# each, with the old state keys (``rng``, ``requests_dropped``, ...).
TWO_INJECTOR_SNAPSHOTS = json.loads(
    Path(__file__).with_name("two_injector_snapshots.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    ("name", "parts", "match"),
    [
        (
            "churn_faults_autoscale",
            ("churn", "faults", "autoscaling", "autoscale_seed"),
            "3 observer states for 2 observers",
        ),
        ("faults_autoscale", ("faults", "autoscaling", "autoscale_seed"), "injector state"),
    ],
)
def test_two_injector_snapshot_is_incompatible(tmp_path, name, parts, match):
    snapshot = TWO_INJECTOR_SNAPSHOTS[name]
    CheckpointStore(tmp_path).save(snapshot["round"], snapshot["payload"])
    observers = scenario_from_dict({part: SCENARIO[part] for part in parts}).build_observers()
    driver = SimulationDriver(
        burn_in=BURN_IN, measure=MEASURE, observers=observers, checkpoint_dir=tmp_path
    )
    with pytest.raises(CheckpointIncompatible, match=match):
        driver.run(make_process())


def test_refused_restore_leaves_the_process_unmoved(tmp_path):
    # The faults + autoscaling snapshot passes the driver's own checks and
    # carries a valid process state; only the injector refuses its part.
    # Restore is all or nothing, so the process keeps its fresh state.
    snapshot = TWO_INJECTOR_SNAPSHOTS["faults_autoscale"]
    CheckpointStore(tmp_path).save(snapshot["round"], snapshot["payload"])
    parts = ("faults", "autoscaling", "autoscale_seed")
    scenario = scenario_from_dict({part: SCENARIO[part] for part in parts})
    observers = scenario.build_observers()
    driver = SimulationDriver(
        burn_in=BURN_IN, measure=MEASURE, observers=observers, checkpoint_dir=tmp_path
    )
    process = CappedProcess(n=64, capacity=2, lam=0.75, rng=11)
    fresh = process.get_state()
    with pytest.raises(CheckpointIncompatible, match="injector state"):
        driver.run(process)
    assert process.round == 0
    assert process.n == 64
    assert process.get_state() == fresh
    assert [observer.get_state() for observer in observers] == [
        observer.get_state() for observer in scenario.build_observers()
    ]
