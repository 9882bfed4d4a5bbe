"""Telemetry must never change simulation results: bit-identical trajectories.

The zero-interference contract (docs/observability.md): enabling telemetry
— registry, phase clocks, spans, sinks — produces exactly the same
trajectories and summaries as running without it.
"""

from repro import telemetry
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.telemetry import JsonlEventSink


def run_capped():
    process = CappedProcess(n=64, capacity=2, lam=0.75, rng=7)
    driver = SimulationDriver(burn_in=30, measure=60)
    result = driver.run(process)
    return (
        result.pool_series.tolist(),
        result.normalized_pool,
        result.avg_wait,
        result.max_wait,
    )


def test_capped_bit_identical_with_telemetry(tmp_path):
    baseline = run_capped()
    with telemetry.session(sinks=[JsonlEventSink(tmp_path / "events.jsonl")]) as tel:
        instrumented = run_capped()
        assert tel.registry.counter("rounds_total").value(kernel="fused") == 90.0
    assert instrumented == baseline


def test_back_to_back_sessions_do_not_interfere():
    baseline = run_capped()
    with telemetry.session():
        pass
    assert run_capped() == baseline
