"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--id", "bogus"])


class TestList:
    def test_lists_experiments_and_profiles(self):
        code, text = run_cli("list")
        assert code == 0
        assert "fig4_left" in text
        assert "paper" in text and "quick" in text


class TestTheory:
    def test_general_capacity(self):
        code, text = run_cli("theory", "--c", "2", "--lam", "0.75", "--n", "1024")
        assert code == 0
        assert "Thm2 pool bound" in text
        assert "sweet spot" in text
        assert "Thm1" not in text

    def test_unit_capacity_includes_thm1(self):
        code, text = run_cli("theory", "--c", "1", "--lam", "0.75", "--n", "1024")
        assert code == 0
        assert "Thm1 pool bound" in text


class TestMeanfield:
    def test_outputs_equilibrium(self):
        code, text = run_cli("meanfield", "--c", "1", "--lam", "0.75")
        assert code == 0
        assert "normalized pool" in text
        assert "1.3863" in text  # nu/n = ln 4


class TestSimulate:
    def test_capped_point(self):
        code, text = run_cli(
            "simulate", "--n", "256", "--c", "2", "--lam", "0.75", "--rounds", "50"
        )
        assert code == 0
        assert "pool/n" in text

    def test_greedy_point(self):
        code, text = run_cli(
            "simulate",
            "--process",
            "greedy",
            "--d",
            "2",
            "--n",
            "256",
            "--lam",
            "0.75",
            "--rounds",
            "50",
            "--burn-in",
            "50",
        )
        assert code == 0
        assert "avg_wait" in text

    def test_d_rejected_for_capped(self):
        code, text = run_cli(
            "simulate", "--n", "256", "--c", "2", "--lam", "0.75", "--rounds", "20", "--d", "3"
        )
        assert code == 2
        assert "--d only applies to --process greedy" in text

    def test_c_rejected_for_greedy(self):
        code, text = run_cli(
            "simulate", "--process", "greedy", "--n", "256", "--c", "2", "--lam", "0.75"
        )
        assert code == 2
        assert "--c only applies to --process capped" in text


class TestExperiments:
    def test_single_experiment_with_csv(self, tmp_path):
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--csv-dir",
            str(tmp_path),
        )
        assert code == 0
        assert "PASS" in text
        assert (tmp_path / "dominance.csv").exists()

    def test_plot_flag(self):
        code, text = run_cli("experiments", "--id", "dominance", "--profile", "quick", "--plot")
        assert code == 0
        assert "+----" in text or "|" in text

    def test_nonpositive_jobs_rejected(self):
        code, text = run_cli(
            "experiments", "--id", "dominance", "--profile", "quick", "--jobs", "0"
        )
        assert code == 2
        assert "--jobs" in text

    def test_resume_requires_cache_dir(self):
        code, text = run_cli("experiments", "--id", "dominance", "--profile", "quick", "--resume")
        assert code == 2
        assert "--cache-dir" in text

    def test_cache_dir_routes_through_runner(self, tmp_path):
        cache = tmp_path / "cache"
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--cache-dir",
            str(cache),
            "--no-progress",
            "--timing",
        )
        assert code == 0
        assert "experiments: 1" in text
        assert (cache / "journal.jsonl").exists()

        # A resumed rerun must recompute nothing.
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--cache-dir",
            str(cache),
            "--resume",
            "--no-progress",
        )
        assert code == 0
        assert "experiments: 1 (journal 1, cache 0)" in text

    def test_nonpositive_task_timeout_rejected(self):
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--task-timeout",
            "0",
        )
        assert code == 2
        assert "--task-timeout" in text

    def test_negative_max_retries_rejected(self):
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--max-retries",
            "-1",
        )
        assert code == 2
        assert "--max-retries" in text

    def test_keep_going_and_fail_fast_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--all", "--keep-going", "--fail-fast"])

    def test_experiment_error_exits_3(self, monkeypatch):
        def boom(experiment_id, profile):
            raise RuntimeError("simulated explosion")

        monkeypatch.setattr("repro.cli.run_experiment", boom)
        code, text = run_cli("experiments", "--id", "dominance", "--profile", "quick")
        assert code == 3
        assert "ERROR dominance: RuntimeError: simulated explosion" in text
        assert "errors: 1 experiment(s) failed: dominance" in text

    def test_keep_going_reports_every_error(self, monkeypatch):
        def boom(experiment_id, profile):
            raise RuntimeError("nope")

        monkeypatch.setattr("repro.cli.run_experiment", boom)
        code, text = run_cli("experiments", "--all", "--profile", "quick", "--keep-going")
        assert code == 3
        from repro.analysis.experiments import EXPERIMENTS

        assert text.count("ERROR ") == len(EXPERIMENTS)

    def test_fail_fast_stops_at_first_error(self, monkeypatch):
        def boom(experiment_id, profile):
            raise RuntimeError("nope")

        monkeypatch.setattr("repro.cli.run_experiment", boom)
        code, text = run_cli("experiments", "--all", "--profile", "quick", "--fail-fast")
        assert code == 3
        assert text.count("ERROR ") == 1

    def test_runner_failures_surface_as_errors(self, monkeypatch):
        from repro.parallel.runner import RunnerReport

        def fake_run_experiments(ids, **kwargs):
            return RunnerReport(
                experiments_total=len(list(ids)),
                experiments_failed=1,
                failures={"dominance": "quarantined tasks left holes"},
            )

        monkeypatch.setattr("repro.parallel.run_experiments", fake_run_experiments)
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--jobs",
            "2",
            "--no-progress",
        )
        assert code == 3
        assert "ERROR dominance: quarantined tasks left holes" in text

    def test_json_and_markdown_outputs(self, tmp_path):
        code, text = run_cli(
            "experiments",
            "--id",
            "drain_stages",
            "--profile",
            "quick",
            "--json-dir",
            str(tmp_path / "json"),
            "--markdown",
            str(tmp_path / "report.md"),
        )
        assert code == 0
        assert (tmp_path / "json" / "drain_stages.json").exists()
        report = (tmp_path / "report.md").read_text()
        assert report.startswith("# Reproduction report")
        assert "drain_stages" in report


class TestFluid:
    def test_prints_trajectory(self):
        code, text = run_cli("fluid", "--c", "1", "--lam", "0.75", "--rounds", "20")
        assert code == 0
        assert "pool/n" in text
        assert "relaxation" in text

    def test_spike_start(self):
        code, text = run_cli(
            "fluid", "--c", "2", "--lam", "0.5", "--rounds", "10", "--initial-pool", "4.0"
        )
        assert code == 0
        assert "4.0000" in text


class TestTrace:
    def test_record_then_summarize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code, text = run_cli(
            "trace",
            "record",
            str(path),
            "--n",
            "128",
            "--c",
            "2",
            "--lam",
            "0.75",
            "--rounds",
            "40",
        )
        assert code == 0
        assert "wrote 40 rounds" in text
        code, text = run_cli("trace", "summarize", str(path), "--n", "128")
        assert code == 0
        assert "pool/n" in text and "max_wait" in text

    def test_record_respects_burn_in(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code, text = run_cli(
            "trace",
            "record",
            str(path),
            "--n",
            "64",
            "--c",
            "1",
            "--lam",
            "0.5",
            "--rounds",
            "10",
            "--burn-in",
            "5",
        )
        assert code == 0
        # Burn-in rounds are also streamed (observers see every round).
        assert "wrote 15 rounds" in text


class TestCompare:
    def test_identical_files_ok(self, tmp_path):
        run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--json-dir",
            str(tmp_path),
        )
        path = tmp_path / "dominance.json"
        code, text = run_cli("compare", str(path), str(path))
        assert code == 0
        assert "OK" in text

    def test_mismatch_flagged(self, tmp_path):
        import json

        run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--json-dir",
            str(tmp_path),
        )
        path_a = tmp_path / "dominance.json"
        payload = json.loads(path_a.read_text())
        payload["rows"][0]["worst_gap"] = payload["rows"][0]["worst_gap"] * 100.0
        payload["profile"] = "tampered"
        path_b = tmp_path / "tampered.json"
        path_b.write_text(json.dumps(payload))
        code, text = run_cli("compare", str(path_a), str(path_b), "--tolerance", "0.1")
        assert code == 1
        assert "outlier" in text


class TestTelemetryCli:
    SIM_ARGS = (
        "simulate",
        "--n",
        "64",
        "--c",
        "2",
        "--lam",
        "0.75",
        "--rounds",
        "30",
        "--seed",
        "3",
    )

    def test_simulate_capture_writes_artifacts(self, tmp_path):
        tel_dir = tmp_path / "tel"
        code, text = run_cli(*self.SIM_ARGS, "--telemetry-dir", str(tel_dir))
        assert code == 0
        assert f"telemetry written to {tel_dir}" in text
        assert (tel_dir / "events.jsonl").exists()
        assert (tel_dir / "metrics.prom").exists()
        assert (tel_dir / "manifest.json").exists()

    def test_simulate_output_identical_with_capture(self, tmp_path):
        code_plain, plain = run_cli(*self.SIM_ARGS)
        code_tel, tel = run_cli(*self.SIM_ARGS, "--telemetry-dir", str(tmp_path / "tel"))
        assert code_plain == code_tel == 0
        assert tel.startswith(plain)  # capture only appends the dir notice

    def test_manifest_validates_and_prom_parses(self, tmp_path):
        from repro.telemetry import load_manifest, parse_prometheus

        tel_dir = tmp_path / "tel"
        run_cli(*self.SIM_ARGS, "--telemetry-dir", str(tel_dir))
        manifest = load_manifest(tel_dir)
        assert manifest["config"]["n"] == 64
        assert manifest["seeds"] == [3]
        families = parse_prometheus((tel_dir / "metrics.prom").read_text())
        assert "rounds_total" in families
        assert "round_seconds" in families

    def test_report_command(self, tmp_path):
        tel_dir = tmp_path / "tel"
        run_cli(*self.SIM_ARGS, "--telemetry-dir", str(tel_dir))
        code, text = run_cli("telemetry", "report", str(tel_dir))
        assert code == 0
        assert "kernel=fused" in text
        assert "accept" in text and "(residual)" in text
        assert "attributed=" in text

    def test_report_missing_manifest_errors(self, tmp_path):
        code, text = run_cli("telemetry", "report", str(tmp_path))
        assert code == 2
        assert "error:" in text

    def test_experiments_capture_includes_runner_metrics(self, tmp_path):
        from repro.telemetry import load_manifest

        tel_dir = tmp_path / "tel"
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--telemetry-dir",
            str(tel_dir),
            "--no-progress",
        )
        assert code == 0
        metrics = load_manifest(tel_dir)["metrics"]
        assert "phase_seconds" in metrics  # runner discover/measure/replay spans

    def test_live_status_conflicts_with_no_progress(self):
        code, text = run_cli(
            "experiments",
            "--id",
            "dominance",
            "--profile",
            "quick",
            "--live-status",
            "--no-progress",
        )
        assert code == 2
        assert "--live-status" in text


class TestSimulateScenario:
    SCENARIO = (
        '{"churn": {"seed": 5, "events": ['
        '{"type": "join_burst", "at_round": 20, "count": 16}]}}'
    )

    def test_inline_json_scenario_runs(self):
        code, text = run_cli(
            "simulate",
            "--n",
            "64",
            "--c",
            "2",
            "--lam",
            "0.75",
            "--rounds",
            "40",
            "--burn-in",
            "10",
            "--scenario",
            self.SCENARIO,
        )
        assert code == 0
        assert "pool/n" in text

    def test_scenario_file_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(self.SCENARIO)
        code, text = run_cli(
            "simulate",
            "--n",
            "64",
            "--c",
            "2",
            "--lam",
            "0.75",
            "--rounds",
            "40",
            "--scenario",
            str(path),
        )
        assert code == 0

    def test_scenario_requires_capped(self):
        code, text = run_cli(
            "simulate", "--process", "greedy", "--lam", "0.75", "--scenario", self.SCENARIO
        )
        assert code == 2
        assert "--process capped" in text

    def test_bad_scenario_json_is_config_error(self):
        code, text = run_cli(
            "simulate",
            "--n",
            "64",
            "--c",
            "2",
            "--lam",
            "0.75",
            "--scenario",
            '{"chrun": {}}',
        )
        assert code == 2
        assert "unknown scenario keys" in text


class TestDistributedCli:
    def test_parser_accepts_broker_worker_dashboard(self):
        parser = build_parser()
        args = parser.parse_args(["broker", "--port", "7070", "--lease-timeout", "5"])
        assert args.command == "broker" and args.port == 7070
        args = parser.parse_args(["worker", "127.0.0.1:7070", "--exit-when-idle"])
        assert args.command == "worker" and args.exit_when_idle
        args = parser.parse_args(["dashboard", "state", "--bench", "BENCH_sweep.json"])
        assert args.command == "dashboard" and len(args.bench) == 1

    def test_experiments_broker_flag_validates_address(self):
        code, text = run_cli(
            "experiments", "--id", "fig4_left", "--broker", "localhost:notaport"
        )
        assert code == 2
        assert "invalid broker address" in text

    def test_experiments_broker_rejects_checkpoint_every(self):
        code, text = run_cli(
            "experiments",
            "--id",
            "fig4_left",
            "--broker",
            "127.0.0.1:7070",
            "--checkpoint-every",
            "10",
            "--cache-dir",
            "unused",
        )
        assert code == 2
        assert "broker-side knob" in text

    def test_broker_checkpoint_every_needs_dir(self):
        code, text = run_cli("broker", "--checkpoint-every", "10")
        assert code == 2
        assert "--checkpoint-dir" in text

    def test_broker_rejects_bad_lease_timeout(self):
        code, text = run_cli("broker", "--lease-timeout", "0")
        assert code == 2
        assert "--lease-timeout" in text

    def test_worker_rejects_bad_address(self):
        code, text = run_cli("worker", "localhost:notaport")
        assert code == 2
        assert "invalid broker address" in text

    def test_dashboard_without_inputs_errors(self):
        code, text = run_cli("dashboard")
        assert code == 2
        assert "dashboard needs" in text

    def test_dashboard_renders_state_and_bench(self, tmp_path):
        import json

        from repro.distributed.store import SweepStateStore

        state_dir = tmp_path / "state"
        store = SweepStateStore(state_dir)
        store.state.tasks_total = 2
        store.state.tasks_done = 2
        store.record("complete", key="a", worker="vm-1")
        store.close()
        bench = tmp_path / "BENCH_sweep.json"
        bench.write_text(
            json.dumps({"profile": "quick", "fabric": {"speedup_4w_over_1w": 3.2}}),
            encoding="utf-8",
        )
        code, text = run_cli("dashboard", str(state_dir), "--bench", str(bench))
        assert code == 0
        assert "2/2" in text
        assert "vm-1" in text
        assert "fabric 4w/1w 3.20x" in text

    def test_broker_mode_end_to_end(self, tmp_path):
        # Full CLI path: experiments --broker against a live broker+worker.
        import threading

        from repro.distributed import Broker, BrokerConfig, Worker

        broker = Broker(BrokerConfig(host="127.0.0.1", port=0))

        import asyncio

        loop_holder = {}

        def serve():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop_holder["loop"] = loop
            loop.run_until_complete(broker.serve())
            loop.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        while broker.port is None:
            pass
        worker = Worker(f"127.0.0.1:{broker.port}", worker_id="cli-w", poll=0.02)
        worker_thread = threading.Thread(target=worker.run, daemon=True)
        worker_thread.start()
        try:
            code, text = run_cli(
                "experiments",
                "--id",
                "fig4_left",
                "--profile",
                "quick",
                "--broker",
                f"127.0.0.1:{broker.port}",
                "--no-progress",
            )
            assert code == 0
            assert "broker: " in text
            assert "on 1 worker(s) [cli-w:" in text
        finally:
            worker._stop = True
            loop_holder["loop"].call_soon_threadsafe(broker.shutdown)
            thread.join(timeout=5)
            worker_thread.join(timeout=5)


class TestTraceTimelineCli:
    def _traced_run(self, tmp_path):
        # fig4_left (not dominance): tracing needs an experiment with
        # actual sweep tasks, and --jobs 2 engages the parallel runner.
        tel_dir = tmp_path / "tel"
        code, _ = run_cli(
            "experiments",
            "--id",
            "fig4_left",
            "--profile",
            "quick",
            "--jobs",
            "2",
            "--telemetry-dir",
            str(tel_dir),
            "--no-progress",
        )
        assert code == 0
        return tel_dir

    def test_run_dir_shorthand_renders_timelines(self, tmp_path):
        tel_dir = self._traced_run(tmp_path)
        assert (tel_dir / "trace.jsonl").exists()
        code, text = run_cli("trace", str(tel_dir))
        assert code == 0
        assert "traces:" in text
        assert "[complete]" in text
        assert "critical path" in text
        # The explicit subcommand and a direct file path work too.
        code_file, text_file = run_cli(
            "trace", "timeline", str(tel_dir / "trace.jsonl")
        )
        assert code_file == 0
        assert text_file == text

    def test_missing_trace_exits_2(self, tmp_path):
        code, text = run_cli("trace", str(tmp_path))
        assert code == 2
        assert "error:" in text and "no trace file" in text

    def test_normalize_argv_leaves_other_subcommands_alone(self):
        from repro.cli import _normalize_argv

        assert _normalize_argv(["trace", "out/tel"]) == ["trace", "timeline", "out/tel"]
        assert _normalize_argv(["trace", "record", "x"]) == ["trace", "record", "x"]
        assert _normalize_argv(["trace", "--help"]) == ["trace", "--help"]
        assert _normalize_argv(["trace"]) == ["trace"]
        assert _normalize_argv(["simulate", "--n", "8"]) == ["simulate", "--n", "8"]


class TestCprofileCli:
    SIM_ARGS = (
        "simulate",
        "--n",
        "64",
        "--c",
        "2",
        "--lam",
        "0.75",
        "--rounds",
        "30",
        "--seed",
        "3",
    )

    def test_simulate_cprofile_prints_hotspots(self):
        plain_code, plain = run_cli(*self.SIM_ARGS)
        code, text = run_cli(*self.SIM_ARGS, "--cprofile")
        assert plain_code == code == 0
        assert "cProfile hotspots" in text
        # Profiling observes the interpreter only: same measurement lines.
        assert text.startswith(plain)

    def test_simulate_cprofile_folds_into_manifest(self, tmp_path):
        from repro.telemetry import load_manifest

        tel_dir = tmp_path / "tel"
        code, _ = run_cli(*self.SIM_ARGS, "--cprofile", "--telemetry-dir", str(tel_dir))
        assert code == 0
        profile = load_manifest(tel_dir)["profile"]
        assert profile["profiler"] == "cProfile"
        assert profile["tasks_profiled"] == 1
        assert profile["top"] and "function" in profile["top"][0]


class TestDashboardCli:
    def _state_dir(self, tmp_path):
        from repro.distributed.store import SweepStateStore

        store = SweepStateStore(tmp_path / "state")
        store.state.tasks_total = 2
        store.state.tasks_done = 2
        store.close()
        return tmp_path / "state"

    def test_missing_state_dir_exits_2(self, tmp_path):
        code, text = run_cli("dashboard", str(tmp_path / "nope"))
        assert code == 2
        assert "error:" in text

    def test_watch_bounded_iterations(self, tmp_path):
        state_dir = self._state_dir(tmp_path)
        code, text = run_cli(
            "dashboard",
            str(state_dir),
            "--watch",
            "--interval",
            "0",
            "--iterations",
            "2",
        )
        assert code == 0
        assert text.count("--- repro dashboard") == 2
        assert "sweep state" in text

    def test_watch_keeps_going_after_errors(self, tmp_path):
        code, text = run_cli(
            "dashboard",
            str(tmp_path / "ghost"),
            "--watch",
            "--interval",
            "0",
            "--iterations",
            "2",
        )
        assert code == 2
        assert text.count("error:") == 2
