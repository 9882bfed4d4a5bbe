"""Tests for the occupancy/wait-driven autoscaler."""

import numpy as np
import pytest

from repro.churn import Autoscaler, AutoscalingPolicy, scenario_from_dict
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.errors import ConfigurationError
from repro.processes.greedy import GreedyBatchProcess


def run_with_autoscaler(process, scaler, rounds):
    for _ in range(rounds):
        record = process.step()
        scaler.on_round(record, process)


class TestPolicyValidation:
    def test_defaults_valid(self):
        AutoscalingPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"controller": "cpu"},
            {"target": 0.0},
            {"band": 1.0},
            {"window": 0},
            {"check_every": 0},
            {"cooldown": -1},
            {"max_step": 0},
            {"min_n": 0},
            {"min_n": 10, "max_n": 5},
            {"policy": "explode"},
            {"capacity_max": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalingPolicy(**kwargs)

    def test_drain_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            AutoscalingPolicy(policy="drain")

    def test_scaler_requires_policy_instance(self):
        with pytest.raises(ConfigurationError):
            Autoscaler({"target": 0.5})

    def test_rejects_process_without_membership_surface(self):
        # GREEDY has no grow_bins/shrink_bins, so there is nothing to scale.
        process = GreedyBatchProcess(n=16, d=2, lam=0.75, rng=0)
        scaler = Autoscaler(AutoscalingPolicy(controller="p99_wait", target=1.0))
        with pytest.raises(ConfigurationError, match="grow_bins/shrink_bins"):
            scaler.on_round(process.step(), process)


class TestUtilizationController:
    def test_scales_out_under_high_occupancy(self):
        # High lam on a c=4 pool holds occupancy near 0.5, far above the
        # 0.25 target. (c=1 would not work: accepted balls are always the
        # oldest, so FIFO deletion empties the bins every round.)
        process = CappedProcess(n=32, capacity=4, lam=0.96875, rng=1, initial_pool=64)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="utilization", target=0.25, band=0.1, window=5, check_every=5,
                cooldown=0, max_step=8,
            ),
            seed=3,
        )
        run_with_autoscaler(process, scaler, 10)
        assert scaler.scale_outs >= 1
        assert process.n > 32
        process.check_invariants()

    def test_scales_in_under_low_occupancy(self):
        process = CappedProcess(n=64, capacity=4, lam=0.25, rng=2)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="utilization", target=0.5, band=0.1, window=5, check_every=5,
                cooldown=0, max_step=16, min_n=8,
            ),
            seed=3,
        )
        run_with_autoscaler(process, scaler, 30)
        assert scaler.scale_ins >= 1
        assert 8 <= process.n < 64
        process.check_invariants()

    def test_deadband_holds_membership(self):
        # A signal inside target ± band never triggers a decision.
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=3)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="utilization", target=0.35, band=0.9, window=5, check_every=5,
                cooldown=0,
            ),
            seed=1,
        )
        run_with_autoscaler(process, scaler, 30)
        assert scaler.scale_outs == 0 and scaler.scale_ins == 0
        assert process.n == 32

    def test_cooldown_limits_event_rate(self):
        process = CappedProcess(n=64, capacity=4, lam=0.25, rng=2)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="utilization", target=0.5, band=0.05, window=2, check_every=2,
                cooldown=20, max_step=4, min_n=8,
            ),
            seed=3,
        )
        run_with_autoscaler(process, scaler, 40)
        events = [t for t, _ in scaler.events_log]
        assert all(b - a >= 20 for a, b in zip(events, events[1:]))

    def test_unbounded_pool_rejected(self):
        process = CappedProcess(n=16, capacity=None, lam=0.5, rng=1)
        scaler = Autoscaler(AutoscalingPolicy(controller="utilization"))
        record = process.step()
        with pytest.raises(ConfigurationError):
            scaler.on_round(record, process)

    def test_capacity_raise_at_max_n(self):
        process = CappedProcess(n=16, capacity=2, lam=0.9375, rng=4, initial_pool=64)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="utilization", target=0.2, band=0.05, window=3, check_every=3,
                cooldown=0, max_n=16, capacity_max=4,
            ),
            seed=5,
        )
        run_with_autoscaler(process, scaler, 30)
        assert scaler.capacity_raises >= 1
        assert process.bins.capacity > 2
        assert process.n == 16
        process.check_invariants()

    def test_one_scaler_per_process(self):
        a = CappedProcess(n=16, capacity=2, lam=0.5, rng=1)
        b = CappedProcess(n=16, capacity=2, lam=0.5, rng=2)
        scaler = Autoscaler(AutoscalingPolicy())
        scaler.on_round(a.step(), a)
        with pytest.raises(ConfigurationError):
            scaler.on_round(b.step(), b)


    def test_scale_out_mid_degradation_returns_to_nominal_capacity(self):
        # The scale-out at round 4 lands while every bin runs at capacity 1;
        # the injector hears of it and lifts the 8 new bins back to 3 when
        # the degradation window closes.
        scenario = scenario_from_dict(
            {
                "faults": {
                    "seed": 1,
                    "events": [
                        {
                            "type": "capacity_degradation",
                            "at_round": 2,
                            "duration": 10,
                            "capacity": 1,
                        }
                    ],
                },
                "autoscaling": {
                    "controller": "utilization",
                    "target": 0.01,
                    "window": 2,
                    "check_every": 4,
                    "cooldown": 100,
                    "max_step": 8,
                },
            }
        )
        process = CappedProcess(n=32, capacity=3, lam=0.75, rng=1)
        observers = scenario.build_observers()
        SimulationDriver(burn_in=0, measure=20, observers=observers).run(process)
        assert observers[1].scale_outs == 1
        assert np.asarray(process.bins.capacity).tolist() == [3] * 40


class TestP99Controller:
    def test_scales_out_on_high_waits(self):
        # Saturated c=1 run: waits blow past a 1-round target.
        process = CappedProcess(n=32, capacity=1, lam=0.96875, rng=6, initial_pool=256)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="p99_wait", target=1.0, band=0.2, window=5, check_every=5,
                cooldown=0, max_step=16,
            ),
            seed=7,
        )
        run_with_autoscaler(process, scaler, 25)
        assert scaler.scale_outs >= 1
        assert process.n > 32
        process.check_invariants()

    def test_works_on_unbounded_pool(self):
        # p99 controller never reads capacity, so c=None is fine.
        process = CappedProcess(n=16, capacity=None, lam=0.5, rng=8)
        scaler = Autoscaler(
            AutoscalingPolicy(controller="p99_wait", target=5.0, window=3, check_every=3)
        )
        run_with_autoscaler(process, scaler, 10)
        process.check_invariants()


class TestStateRoundTrip:
    def _build(self):
        process = CappedProcess(n=64, capacity=4, lam=0.25, rng=9)
        scaler = Autoscaler(
            AutoscalingPolicy(
                controller="utilization", target=0.5, band=0.05, window=4, check_every=4,
                cooldown=8, max_step=8, min_n=8,
            ),
            seed=11,
        )
        return process, scaler

    def test_snapshot_resumes_identically(self):
        process, scaler = self._build()
        run_with_autoscaler(process, scaler, 13)
        proc_state = process.get_state()
        scaler_state = scaler.get_state()

        run_with_autoscaler(process, scaler, 20)
        reference = (process.n, scaler.scale_ins, scaler.scale_outs, scaler.events_log)

        restored = CappedProcess(n=64, capacity=4, lam=0.25, rng=0)
        restored.set_state(proc_state)
        _, scaler2 = self._build()
        scaler2.set_state(scaler_state)
        run_with_autoscaler(restored, scaler2, 20)
        assert (restored.n, scaler2.scale_ins, scaler2.scale_outs, scaler2.events_log) == reference
