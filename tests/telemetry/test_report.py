"""Phase-attribution report tests, including the >= 95% coverage bar."""

import pytest

from repro import telemetry
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.telemetry import build_manifest, phase_attribution, render_report
from repro.telemetry.registry import MetricsRegistry


def synthetic_metrics():
    reg = MetricsRegistry()
    rounds = reg.histogram("round_seconds")
    phases = reg.histogram("kernel_phase_seconds")
    for _ in range(10):
        rounds.observe(1.0, kernel="fused")
        phases.observe(0.6, kernel="fused", phase="accept")
        phases.observe(0.3, kernel="fused", phase="throw")
        phases.observe(0.1, kernel="fused", phase="delete")
    return reg.snapshot()


class TestPhaseAttribution:
    def test_synthetic_exact_coverage(self):
        rows = phase_attribution(synthetic_metrics())
        assert len(rows) == 1
        row = rows[0]
        assert row["labels"] == {"kernel": "fused"}
        assert row["rounds"] == 10
        assert row["total_s"] == pytest.approx(10.0)
        assert row["coverage"] == pytest.approx(1.0)
        # Phases sorted by descending time share.
        assert [p["phase"] for p in row["phases"]] == ["accept", "throw", "delete"]
        assert row["phases"][0]["fraction"] == pytest.approx(0.6)

    def test_empty_metrics(self):
        assert phase_attribution({}) == []

    def test_unmatched_phases_ignored(self):
        reg = MetricsRegistry()
        reg.histogram("round_seconds").observe(1.0, kernel="fused")
        reg.histogram("kernel_phase_seconds").observe(0.5, kernel="legacy", phase="accept")
        (row,) = phase_attribution(reg.snapshot())
        assert row["phases"] == []
        assert row["coverage"] == 0.0


def test_live_run_coverage_meets_bar():
    """Acceptance: named phases attribute >= 95% of measured round time."""
    with telemetry.session() as tel:
        process = CappedProcess(n=128, capacity=2, lam=0.75, rng=3)
        SimulationDriver(burn_in=40, measure=80).run(process)
        rows = phase_attribution(tel.registry.snapshot())
    (row,) = [r for r in rows if r["labels"].get("kernel") == "fused"]
    assert row["rounds"] == 120
    assert row["coverage"] >= 0.95


class TestRenderReport:
    def test_renders_phases_and_counters(self):
        metrics = synthetic_metrics()
        reg_extra = {"runner_tasks_total": {
            "kind": "counter",
            "help": "",
            "series": [{"labels": {"source": "computed"}, "value": 7.0}],
        }}
        manifest = build_manifest(
            {"n": 64}, metrics={**metrics, **reg_extra}, command=["repro", "simulate"]
        )
        lines = render_report(manifest)
        text = "\n".join(lines)
        assert "run: repro simulate" in text
        assert "kernel=fused" in text
        assert "accept" in text and "(residual)" in text
        assert "runner_tasks_total=7" in text

    def test_no_rounds_message(self):
        manifest = build_manifest({}, metrics={}, command=["repro"])
        text = "\n".join(render_report(manifest))
        assert "no round timing recorded" in text
