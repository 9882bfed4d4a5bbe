"""Command-line interface.

Usage examples::

    repro list
    repro simulate --n 4096 --c 2 --lam 0.75 --rounds 1000
    repro experiments --id fig4_left --profile default
    repro experiments --all --profile quick --csv-dir out/
    repro experiments --all --profile default --jobs 8 --cache-dir .repro-cache
    repro experiments --all --profile paper --jobs 8 --cache-dir .repro-cache --resume
    repro experiments --all --profile quick --jobs 4 --live-status --telemetry-dir out/tel
    repro broker --port 7070 --cache-dir .repro-cache --state-dir out/sweep
    repro worker 127.0.0.1:7070 --exit-when-idle
    repro experiments --all --profile quick --broker 127.0.0.1:7070 --cache-dir .repro-cache
    repro dashboard out/sweep --bench BENCH_sweep.json
    repro dashboard out/sweep --watch --interval 2
    repro telemetry report out/tel
    repro trace out/tel
    repro theory --c 2 --lam 0.96875 --n 4096
    repro meanfield --c 3 --lam 0.999

``repro`` is also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.experiments import EXPERIMENTS, PROFILES, run_experiment
from repro.analysis.plots import ascii_plot
from repro.analysis.sweep import measure_capped, measure_greedy
from repro.core import meanfield, theory

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Infinite Balanced Allocation via Finite Capacities' "
            "(ICDCS 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and profiles")

    sim = sub.add_parser("simulate", help="measure one parameter point")
    sim.add_argument("--n", type=int, default=4096, help="number of bins")
    sim.add_argument("--c", type=int, default=None, help="capacity (omit for infinite)")
    sim.add_argument("--lam", type=float, required=True, help="injection rate")
    sim.add_argument("--rounds", type=int, default=600, help="measured rounds")
    sim.add_argument("--burn-in", type=int, default=None, help="override burn-in")
    sim.add_argument("--replicates", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--cold-start", action="store_true", help="start from an empty system")
    sim.add_argument(
        "--batch-replicates",
        action="store_true",
        help="run all replicates in one batched kernel (capped only; "
        "bit-identical outcomes, one kernel pass per round)",
    )
    sim.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition each simulation's bins across this many worker "
        "processes (capped with finite --c only; one simulation uses "
        "the whole machine)",
    )
    sim.add_argument(
        "--process",
        choices=("capped", "greedy"),
        default="capped",
        help="process to simulate",
    )
    sim.add_argument("--d", type=int, default=1, help="choices per ball (greedy only)")
    sim.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="chaos scenario: a JSON file path or inline JSON with "
        "'faults', 'churn', and/or 'autoscaling' schedules "
        "(capped only; incompatible with --shards/--batch-replicates)",
    )
    sim.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        help="capture telemetry here (events.jsonl, metrics.prom, manifest.json)",
    )
    sim.add_argument(
        "--cprofile",
        action="store_true",
        help="run under cProfile and print the top hotspots (folded into the "
        "telemetry manifest when --telemetry-dir is set); named --cprofile "
        "because --profile is the experiments profile selector",
    )
    sim.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="snapshot/resume directory; an interrupted run restarted with "
        "the same arguments resumes from the newest valid snapshot and "
        "produces bit-identical output",
    )
    sim.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="snapshot cadence in rounds (needs --checkpoint-dir)",
    )

    exp = sub.add_parser("experiments", help="regenerate paper artifacts")
    group = exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", choices=sorted(EXPERIMENTS), help="one experiment")
    group.add_argument("--all", action="store_true", help="every experiment")
    exp.add_argument("--profile", choices=sorted(PROFILES), default="default")
    exp.add_argument("--csv-dir", type=Path, default=None, help="also write CSV files here")
    exp.add_argument("--json-dir", type=Path, default=None, help="also write JSON files here")
    exp.add_argument(
        "--markdown", type=Path, default=None, help="write a combined markdown report here"
    )
    exp.add_argument("--plot", action="store_true", help="append an ASCII plot")
    exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are bit-identical to --jobs 1)",
    )
    exp.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-addressed result cache; also hosts the resume journal",
    )
    exp.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already journaled in --cache-dir from an interrupted run",
    )
    exp.add_argument("--timing", action="store_true", help="print per-task timing statistics")
    exp.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the per-task progress/ETA lines on stderr",
    )
    exp.add_argument(
        "--live-status",
        action="store_true",
        help="richer progress line: per-worker throughput, retry/quarantine "
        "counts, and running pool-size-vs-theory error",
    )
    exp.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        help="capture telemetry here (events.jsonl, metrics.prom, manifest.json; "
        "plus trace.jsonl when the runner records task spans)",
    )
    exp.add_argument(
        "--cprofile",
        action="store_true",
        help="profile each computed task under cProfile; merged hotspots are "
        "printed and folded into the telemetry manifest",
    )
    exp.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds per task before its worker is killed and the task retried "
        "(parallel runs only)",
    )
    exp.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per failing task before it is quarantined",
    )
    exp.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="per-task snapshot directories (default: <cache-dir>/checkpoints)",
    )
    exp.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="snapshot each task's simulation every N rounds so retried or "
        "resumed tasks restart from their latest snapshot",
    )
    exp.add_argument(
        "--broker",
        default=None,
        metavar="HOST:PORT",
        help="run measurement tasks on a broker's worker fleet instead of "
        "local processes; discovery runs in this process, so --jobs has no "
        "effect (results stay bit-identical; see `repro broker`)",
    )
    exp.add_argument(
        "--auth-token",
        default=None,
        help="shared secret for a broker running with --auth-token",
    )
    exp.add_argument(
        "--tls-ca",
        type=Path,
        default=None,
        help="PEM certificate that signed the broker's --tls-cert "
        "(enables TLS on the broker connection)",
    )
    halt = exp.add_mutually_exclusive_group()
    halt.add_argument(
        "--keep-going",
        action="store_true",
        help="report failing experiments and continue (the default)",
    )
    halt.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first experiment that errors",
    )

    thy = sub.add_parser("theory", help="print the paper's bounds for (c, lam, n)")
    thy.add_argument("--c", type=int, required=True)
    thy.add_argument("--lam", type=float, required=True)
    thy.add_argument("--n", type=int, required=True)

    mf = sub.add_parser("meanfield", help="mean-field equilibrium for (c, lam)")
    mf.add_argument("--c", type=int, required=True)
    mf.add_argument("--lam", type=float, required=True)

    fl = sub.add_parser("fluid", help="fluid-limit cold-start trajectory for (c, lam)")
    fl.add_argument("--c", type=int, required=True)
    fl.add_argument("--lam", type=float, required=True)
    fl.add_argument("--rounds", type=int, default=0, help="rounds to print (0 = auto)")
    fl.add_argument("--initial-pool", type=float, default=0.0, help="normalised starting pool")

    cmp_parser = sub.add_parser("compare", help="diff two saved experiment JSON files")
    cmp_parser.add_argument("json_a", type=Path)
    cmp_parser.add_argument("json_b", type=Path)
    cmp_parser.add_argument("--tolerance", type=float, default=0.25)

    tr = sub.add_parser(
        "trace",
        help="record a run to JSONL, summarise a trace, or render task "
        "timelines from a telemetry run directory (`repro trace <run-dir>`)",
    )
    tr_sub = tr.add_subparsers(dest="trace_command", required=True)
    tr_timeline = tr_sub.add_parser(
        "timeline",
        help="per-task span timelines + critical path from a run dir's "
        "trace.jsonl (implied when the first argument is a path: "
        "`repro trace out/tel`)",
    )
    tr_timeline.add_argument(
        "run_dir",
        type=Path,
        help="a --telemetry-dir run directory (or a trace/events .jsonl file)",
    )
    tr_timeline.add_argument(
        "--limit", type=int, default=10, help="timelines shown for the N slowest tasks"
    )
    tr_record = tr_sub.add_parser("record", help="simulate and stream rounds to JSONL")
    tr_record.add_argument("path", type=Path)
    tr_record.add_argument("--n", type=int, default=1024)
    tr_record.add_argument("--c", type=int, default=None)
    tr_record.add_argument("--lam", type=float, required=True)
    tr_record.add_argument("--rounds", type=int, default=500)
    tr_record.add_argument("--burn-in", type=int, default=0)
    tr_record.add_argument("--seed", type=int, default=0)
    tr_summary = tr_sub.add_parser("summarize", help="recompute statistics from a trace")
    tr_summary.add_argument("path", type=Path)
    tr_summary.add_argument("--n", type=int, required=True, help="bins the trace was recorded with")

    tele = sub.add_parser("telemetry", help="inspect telemetry captured via --telemetry-dir")
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)
    tele_report = tele_sub.add_parser(
        "report", help="phase-attribution table from a run directory's manifest"
    )
    tele_report.add_argument("run_dir", type=Path)

    ckpt = sub.add_parser("checkpoint", help="inspect on-disk checkpoints")
    ckpt_sub = ckpt.add_subparsers(dest="checkpoint_command", required=True)
    ckpt_inspect = ckpt_sub.add_parser(
        "inspect", help="verify a snapshot's digest and print its metadata"
    )
    ckpt_inspect.add_argument("path", type=Path)

    brk = sub.add_parser("broker", help="run the distributed sweep broker")
    brk.add_argument("--host", default="127.0.0.1", help="bind address")
    brk.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    brk.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (for scripts)",
    )
    brk.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="shared content-addressed result cache (same format as the runner's)",
    )
    brk.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        help="durable results store: state.json + events.jsonl (+ manifest)",
    )
    brk.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="attach per-task snapshot dirs to leases so re-leased tasks resume",
    )
    brk.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="snapshot cadence in rounds for leased tasks (needs --checkpoint-dir)",
    )
    brk.add_argument(
        "--lease-timeout",
        type=float,
        default=15.0,
        help="seconds without a heartbeat before a lease is taken back",
    )
    brk.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="error-frame retries per task before it fails terminally",
    )
    brk.add_argument(
        "--max-releases",
        type=int,
        default=20,
        help="lease losses per task before it is poisoned (fails terminally)",
    )
    brk.add_argument(
        "--auth-token",
        default=None,
        help="require every peer to answer an HMAC challenge with this "
        "shared secret (wrong/missing token: connection refused)",
    )
    brk.add_argument(
        "--tls-cert",
        type=Path,
        default=None,
        help="serve TLS with this PEM certificate (requires --tls-key; "
        "peers connect with --tls-ca pointing at the signing cert)",
    )
    brk.add_argument(
        "--tls-key",
        type=Path,
        default=None,
        help="private key for --tls-cert",
    )
    brk.add_argument(
        "--compact-events-bytes",
        type=int,
        default=None,
        help="rotate events.jsonl into an archive segment once it exceeds "
        "this size, keeping restart recovery O(state)",
    )

    wrk = sub.add_parser("worker", help="run one preemptible sweep worker")
    wrk.add_argument("broker", metavar="HOST:PORT", help="broker address")
    wrk.add_argument("--id", default=None, help="worker id (default: <hostname>-<pid>)")
    wrk.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="concurrent task slots this worker drives (one lease each)",
    )
    wrk.add_argument(
        "--auth-token",
        default=None,
        help="shared secret for a broker running with --auth-token",
    )
    wrk.add_argument(
        "--tls-ca",
        type=Path,
        default=None,
        help="PEM certificate that signed the broker's --tls-cert",
    )
    wrk.add_argument(
        "--max-reconnects",
        type=int,
        default=5,
        help="consecutive failed connection attempts (jittered exponential "
        "backoff between them) before the worker gives up",
    )
    wrk.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit once the broker's queue has drained (after doing work)",
    )
    wrk.add_argument(
        "--quiet", action="store_true", help="suppress per-task log lines on stderr"
    )
    wrk.add_argument(
        "--telemetry",
        action="store_true",
        help="piggyback compressed metrics snapshots on heartbeats for the "
        "broker's fleet registry (fleet.prom)",
    )

    dash = sub.add_parser("dashboard", help="sweep progress + perf trajectory")
    dash.add_argument(
        "state_dir",
        type=Path,
        nargs="?",
        default=None,
        help="a broker --state-dir (live or finished)",
    )
    dash.add_argument(
        "--bench",
        type=Path,
        action="append",
        default=None,
        metavar="BENCH_JSON",
        help="BENCH_*.json artifact(s) for the perf panel (repeatable, or a glob "
        "expanded by the shell)",
    )
    dash.add_argument(
        "--watch",
        action="store_true",
        help="auto-refresh in place until interrupted (adds per-worker fleet "
        "panels and, with --bench, a committed-BENCH history sparkline)",
    )
    dash.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh cadence in seconds for --watch",
    )
    dash.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop --watch after N refreshes (0 = until interrupted)",
    )

    return parser


def _args_config(args: argparse.Namespace) -> dict[str, Any]:
    """JSON-safe manifest config from parsed CLI args (paths become strings)."""
    config: dict[str, Any] = {}
    for key, value in sorted(vars(args).items()):
        if key == "telemetry_dir":
            continue
        if key == "auth_token" and value is not None:
            # The shared secret must never land in a manifest on disk;
            # record only that authentication was in use.
            config[key] = "<redacted>"
            continue
        config[key] = str(value) if isinstance(value, Path) else value
    return config


@contextmanager
def _telemetry_capture(
    directory: Path,
    config: dict[str, Any],
    seeds: list[int],
    extras: dict[str, Any] | None = None,
) -> Iterator[None]:
    """Run the body under a telemetry session, then export the run artifacts.

    Writes ``events.jsonl`` (streamed during the run), ``metrics.prom``, and
    ``manifest.json`` into ``directory`` — plus ``trace.jsonl`` when the
    body records task spans (the tracer only creates the file on first
    write, so untraced runs leave nothing behind). ``extras`` (e.g. a
    cProfile ``profile`` section filled in by the body) is merged into the
    manifest top level. If the body raises, the partial events/trace files
    survive for debugging but no snapshot/manifest is written.
    """
    from repro import telemetry

    directory.mkdir(parents=True, exist_ok=True)
    sink = telemetry.JsonlEventSink(directory / "events.jsonl")
    tracer = telemetry.Tracer(directory / telemetry.TRACE_FILENAME)
    with telemetry.session(sinks=[sink], tracer=tracer) as tel:
        yield
        snapshot = tel.registry.snapshot()
    telemetry.write_prometheus(snapshot, directory / "metrics.prom")
    manifest = telemetry.build_manifest(config, seeds, metrics=snapshot)
    if extras:
        manifest.update(extras)
    telemetry.write_manifest(manifest, directory)


def _cmd_list(out) -> int:
    out.write("experiments:\n")
    for name, fn in sorted(EXPERIMENTS.items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        out.write(f"  {name:22s} {doc}\n")
    out.write("profiles:\n")
    for name, profile in sorted(PROFILES.items()):
        out.write(
            f"  {name:22s} n={profile.n} measure={profile.measure} "
            f"replicates={profile.replicates}\n"
        )
    return 0


def _cmd_simulate(args, out) -> int:
    if args.process == "greedy" and args.batch_replicates:
        out.write("error: --batch-replicates only applies to --process capped\n")
        return 2
    if args.shards < 1:
        out.write("error: --shards must be at least 1\n")
        return 2
    if args.shards > 1:
        if args.process != "capped" or args.c is None:
            out.write("error: --shards needs --process capped with a finite --c\n")
            return 2
        if args.batch_replicates:
            out.write("error: --shards and --batch-replicates are mutually exclusive\n")
            return 2
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        out.write("error: --checkpoint-every needs --checkpoint-dir\n")
        return 2
    if args.scenario is not None:
        if args.process != "capped":
            out.write("error: --scenario only applies to --process capped\n")
            return 2
        if args.shards > 1:
            out.write("error: --scenario and --shards are mutually exclusive\n")
            return 2
        if args.batch_replicates:
            out.write("error: --scenario and --batch-replicates are mutually exclusive\n")
            return 2
        try:
            # Parse and validate eagerly so a typo'd scenario is a clean
            # configuration error, not a traceback mid-run.
            from repro.churn import scenario_from_dict
            from repro.errors import ConfigurationError

            scenario_from_dict(_load_scenario(args.scenario))
        except (OSError, ValueError, ConfigurationError) as err:
            out.write(f"error: {err}\n")
            return 2
    if args.telemetry_dir is None:
        return _run_simulate(args, out)
    extras: dict[str, Any] = {}
    with _telemetry_capture(args.telemetry_dir, _args_config(args), [args.seed], extras):
        status = _run_simulate(args, out, extras)
    out.write(f"telemetry written to {args.telemetry_dir}\n")
    return status


def _load_scenario(spec: str) -> dict[str, Any]:
    """Parse a ``--scenario`` value: inline JSON or a path to a JSON file."""
    import json

    text = spec if spec.lstrip().startswith("{") else Path(spec).read_text(encoding="utf-8")
    payload = json.loads(text)
    if not isinstance(payload, dict):
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"scenario must be a JSON object, got {type(payload).__name__}")
    return payload


def _run_simulate(args, out, extras: dict[str, Any] | None = None) -> int:
    if args.cprofile:
        from repro.telemetry.profiling import profile_call, profile_section

        status, hotspots = profile_call(_measure_simulate, args, out)
        if extras is not None:
            extras["profile"] = profile_section(hotspots, tasks_profiled=1)
        out.write("cProfile hotspots (by cumulative time):\n")
        for entry in hotspots[:5]:
            out.write(
                f"  {entry['function']}  cum {entry['cumtime']:.3f}s "
                f"tot {entry['tottime']:.3f}s calls {entry['ncalls']}\n"
            )
        return status
    return _measure_simulate(args, out)


def _measure_simulate(args, out) -> int:
    if args.process == "greedy":
        point = measure_greedy(
            n=args.n,
            d=args.d,
            lam=args.lam,
            measure=args.rounds,
            replicates=args.replicates,
            seed=args.seed,
            burn_in=args.burn_in,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    else:
        point = measure_capped(
            n=args.n,
            c=args.c,
            lam=args.lam,
            measure=args.rounds,
            replicates=args.replicates,
            seed=args.seed,
            warm_start=not args.cold_start,
            burn_in=args.burn_in,
            batch_replicates=args.batch_replicates,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            shards=args.shards,
            scenario=None if args.scenario is None else _load_scenario(args.scenario),
        )
    for key, value in point.row().items():
        out.write(f"{key:12s} {value}\n")
    out.write(f"{'pool_ci':12s} {point.pool_ci}\n")
    out.write(f"{'wait_ci':12s} {point.wait_ci}\n")
    return 0


def _plot_result(result, out) -> None:
    # Build one series per leading key value, (last numeric x, first numeric y).
    numeric_cols = [
        col
        for col in result.columns
        if result.rows and isinstance(result.rows[0].get(col), (int, float))
    ]
    if len(numeric_cols) < 2:
        return
    x_col, y_col = numeric_cols[0], numeric_cols[1]
    series: dict[str, list[tuple[float, float]]] = {}
    group_col = next((c for c in result.columns if c not in (x_col, y_col)), None)
    for row in result.rows:
        label = f"{group_col}={row[group_col]}" if group_col else "data"
        series.setdefault(label, []).append((float(row[x_col]), float(row[y_col])))
    out.write(ascii_plot(series, title=result.title, x_label=x_col, y_label=y_col))
    out.write("\n")


def _cmd_experiments(args, out) -> int:
    if args.jobs < 1:
        out.write(f"error: --jobs must be >= 1, got {args.jobs}\n")
        return 2
    if args.resume and args.cache_dir is None:
        out.write("error: --resume needs --cache-dir (the journal lives there)\n")
        return 2
    if args.task_timeout is not None and args.task_timeout <= 0:
        out.write(f"error: --task-timeout must be positive, got {args.task_timeout}\n")
        return 2
    if args.max_retries < 0:
        out.write(f"error: --max-retries must be >= 0, got {args.max_retries}\n")
        return 2
    if args.live_status and args.no_progress:
        out.write("error: --live-status needs the progress line; drop --no-progress\n")
        return 2
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        out.write(f"error: --checkpoint-every must be >= 1, got {args.checkpoint_every}\n")
        return 2
    if (
        args.checkpoint_every is not None
        and args.checkpoint_dir is None
        and args.cache_dir is None
    ):
        out.write("error: --checkpoint-every needs --checkpoint-dir or --cache-dir\n")
        return 2
    if args.broker is not None and args.checkpoint_every is not None:
        out.write(
            "error: --checkpoint-every is a broker-side knob in --broker mode "
            "(pass it to `repro broker`)\n"
        )
        return 2
    if args.broker is None and (args.auth_token is not None or args.tls_ca is not None):
        out.write("error: --auth-token/--tls-ca only apply with --broker\n")
        return 2
    if args.broker is not None:
        from repro.distributed import resolve_address
        from repro.errors import DistributedError

        try:
            resolve_address(args.broker)
        except DistributedError as err:
            out.write(f"error: {err}\n")
            return 2
    if args.telemetry_dir is None:
        return _run_experiments_cmd(args, out)
    seeds = [PROFILES[args.profile].seed]
    extras: dict[str, Any] = {}
    with _telemetry_capture(args.telemetry_dir, _args_config(args), seeds, extras):
        status = _run_experiments_cmd(args, out, extras)
    out.write(f"telemetry written to {args.telemetry_dir}\n")
    return status


def _run_experiments_cmd(args, out, extras: dict[str, Any] | None = None) -> int:
    from repro.analysis.export import save_result
    from repro.analysis.report import write_report

    ids = sorted(EXPERIMENTS) if args.all else [args.id]
    # --live-status rides on the parallel runner's progress reporter, so it
    # engages the runner even for a plain serial run (--cprofile likewise:
    # per-task profiling happens inside the runner's task wrapper).
    use_runner = (
        args.jobs != 1
        or args.resume
        or args.cache_dir is not None
        or args.live_status
        or args.checkpoint_every is not None
        or args.broker is not None
        or args.cprofile
    )
    report = None
    errors: dict[str, str] = {}
    if use_runner:
        from repro.errors import DistributedError
        from repro.parallel import run_experiments

        try:
            report = run_experiments(
                ids,
                profile=args.profile,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                resume=args.resume,
                progress_stream=None if args.no_progress else sys.stderr,
                task_timeout=args.task_timeout,
                max_retries=args.max_retries,
                live_status=args.live_status,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
                broker=args.broker,
                broker_auth_token=args.auth_token,
                broker_tls_ca=args.tls_ca,
                cprofile=args.cprofile,
            )
        except DistributedError as err:
            # Unreachable broker, auth rejection, or a fleet lost for good:
            # an operator-actionable configuration error, not a crash.
            out.write(f"error: {err}\n")
            return 2
        if extras is not None and report.hotspots:
            from repro.telemetry.profiling import profile_section

            extras["profile"] = profile_section(
                report.hotspots, tasks_profiled=report.tasks_profiled
            )
        produced = {result.experiment_id: result for result in report.results}
        errors.update(report.failures)
    failed_checks: list[str] = []
    results = []
    for experiment_id in ids:
        if use_runner:
            result = produced.get(experiment_id)
            if result is None:
                message = errors.get(experiment_id, "no result produced")
                errors[experiment_id] = message
                out.write(f"ERROR {experiment_id}: {message}\n\n")
                if args.fail_fast:
                    break
                continue
        else:
            try:
                result = run_experiment(experiment_id, args.profile)
            except Exception as err:
                errors[experiment_id] = f"{type(err).__name__}: {err}"
                out.write(f"ERROR {experiment_id}: {errors[experiment_id]}\n\n")
                if args.fail_fast:
                    break
                continue
        results.append(result)
        out.write(result.table() + "\n\n")
        if args.plot:
            _plot_result(result, out)
        if args.csv_dir is not None:
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            path = args.csv_dir / f"{experiment_id}.csv"
            path.write_text(result.csv() + "\n", encoding="utf-8")
            out.write(f"wrote {path}\n")
        if args.json_dir is not None:
            out.write(f"wrote {save_result(result, args.json_dir)}\n")
        if not result.all_checks_pass:
            failed_checks.append(experiment_id)
    if args.markdown is not None:
        path = write_report(results, args.markdown, title=f"Reproduction report ({args.profile})")
        out.write(f"wrote {path}\n")
    if report is not None:
        for line in report.summary_lines():
            out.write(line + "\n")
        if args.timing:
            for line in report.timings.summary_lines():
                out.write(line + "\n")
    if failed_checks:
        out.write(f"checks failed: {', '.join(failed_checks)}\n")
    if errors:
        out.write(f"errors: {len(errors)} experiment(s) failed: {', '.join(sorted(errors))}\n")
        return 3
    return 1 if failed_checks else 0


def _cmd_theory(args, out) -> int:
    c, lam, n = args.c, args.lam, args.n
    out.write(f"ln(1/(1-lambda))      {theory.log_inverse_gap(lam):.4f}\n")
    out.write(f"m* (coupling)         {theory.m_star(c, lam, n):.1f}\n")
    if c == 1:
        out.write(f"Thm1 pool bound       {theory.thm1_pool_bound(lam, n):.1f}\n")
        out.write(f"Thm1 wait bound       {theory.thm1_wait_bound(lam, n):.2f}\n")
    out.write(f"Thm2 pool bound       {theory.thm2_pool_bound(c, lam, n):.1f}\n")
    out.write(f"Thm2 wait bound       {theory.thm2_wait_bound(c, lam, n):.2f}\n")
    out.write(f"Fig4 reference        {theory.empirical_pool_curve(c, lam):.3f}\n")
    out.write(f"Fig5 reference        {theory.empirical_wait_curve(c, lam, n):.3f}\n")
    out.write(f"sweet spot c*         {theory.sweet_spot_c(lam)}\n")
    return 0


def _cmd_meanfield(args, out) -> int:
    eq = meanfield.equilibrium(args.c, args.lam)
    out.write(f"throw intensity nu/n  {eq.throw_intensity:.4f}\n")
    out.write(f"normalized pool       {eq.normalized_pool:.4f}\n")
    out.write(f"mean bin load         {eq.mean_load:.4f}\n")
    out.write(f"mean waiting time     {eq.mean_wait:.4f}\n")
    dist = ", ".join(f"{p:.4f}" for p in eq.load_distribution)
    out.write(f"load distribution     [{dist}]\n")
    return 0


def _cmd_fluid(args, out) -> int:
    from repro.core import fluid as fluid_module

    rounds = args.rounds or max(20, 2 * fluid_module.relaxation_rounds(args.c, args.lam))
    trajectory = fluid_module.integrate(
        args.c, args.lam, rounds=rounds, initial_pool=args.initial_pool
    )
    out.write("round  pool/n   mean_load\n")
    step = max(1, rounds // 25)
    for t_index in range(0, rounds + 1, step):
        out.write(
            f"{t_index:5d}  {trajectory.pool[t_index]:.4f}   {trajectory.mean_load[t_index]:.4f}\n"
        )
    if args.initial_pool == 0.0 and args.lam > 0:
        out.write(
            f"relaxation to 95% of equilibrium: "
            f"{fluid_module.relaxation_rounds(args.c, args.lam)} rounds\n"
        )
    return 0


def _cmd_compare(args, out) -> int:
    from repro.analysis.compare import compare_results
    from repro.analysis.export import load_result

    report = compare_results(
        load_result(args.json_a), load_result(args.json_b), tolerance=args.tolerance
    )
    out.write(str(report) + "\n")
    for delta in report.outliers():
        out.write(f"  outlier {delta.key}: {delta.worst_column} {delta.worst_delta:+.1%}\n")
    for key in report.missing_in_b:
        out.write(f"  missing in B: {key}\n")
    for key in report.missing_in_a:
        out.write(f"  missing in A: {key}\n")
    return 0 if report.within_tolerance else 1


def _cmd_trace(args, out) -> int:
    from repro.core.capped import CappedProcess
    from repro.engine.driver import SimulationDriver
    from repro.engine.metrics import MetricsCollector
    from repro.engine.trace import TraceWriter, read_trace

    if args.trace_command == "timeline":
        return _cmd_trace_timeline(args, out)
    if args.trace_command == "record":
        process = CappedProcess(n=args.n, capacity=args.c, lam=args.lam, rng=args.seed)
        with TraceWriter(args.path) as writer:
            SimulationDriver(
                burn_in=args.burn_in, measure=args.rounds, observers=[writer]
            ).run(process)
        out.write(f"wrote {writer.records_written} rounds to {args.path}\n")
        return 0
    collector = MetricsCollector(n=args.n)
    for record in read_trace(args.path):
        collector.observe(record)
    summary = collector.summary()
    out.write(f"rounds       {summary.rounds}\n")
    out.write(f"pool/n       {summary.normalized_pool:.4f}\n")
    out.write(f"avg_wait     {summary.avg_wait:.4f}\n")
    out.write(f"max_wait     {summary.max_wait}\n")
    out.write(f"p99_wait     {summary.wait_p99}\n")
    out.write(f"peak_load    {summary.peak_max_load}\n")
    return 0


def _cmd_trace_timeline(args, out) -> int:
    """Render per-task span timelines from a telemetry run directory."""
    from repro.errors import ConfigurationError
    from repro.telemetry.tracing import (
        TRACE_FILENAME,
        assemble_traces,
        read_spans,
        render_trace_report,
    )

    path = args.run_dir
    if path.is_dir():
        path = path / TRACE_FILENAME
    try:
        spans = read_spans(path)
    except ConfigurationError as err:
        out.write(f"error: {err}\n")
        return 2
    except OSError as err:
        out.write(f"error: cannot read trace at {path}: {err}\n")
        return 2
    traces = assemble_traces(spans)
    out.write(render_trace_report(traces, limit=args.limit))
    return 0


def _cmd_checkpoint(args, out) -> int:
    from repro.checkpoint import CHECKPOINT_FORMAT, checkpoint_fingerprint, read_checkpoint_header
    from repro.errors import CheckpointCorrupt

    try:
        document = read_checkpoint_header(args.path)
    except CheckpointCorrupt as err:
        out.write(f"CORRUPT: {err}\n")
        return 2
    meta = document.get("meta") or {}
    fingerprint = document["fingerprint"]
    compatible = (
        document["format"] == CHECKPOINT_FORMAT
        and fingerprint == checkpoint_fingerprint()
    )
    out.write(f"path         {args.path}\n")
    out.write(f"format       {document['format']}\n")
    out.write(f"digest       ok (sha256 {document['sha256'][:16]})\n")
    out.write(
        f"fingerprint  {fingerprint[:16]} ({'matches' if compatible else 'DIFFERENT code'})\n"
    )
    for key in sorted(meta):
        out.write(f"{key:12s} {meta[key]}\n")
    payload = document["payload"]
    if isinstance(payload, dict):
        out.write(f"payload      keys: {', '.join(sorted(payload))}\n")
    return 0


def _cmd_telemetry(args, out) -> int:
    from repro.errors import ConfigurationError
    from repro.telemetry import report_run_dir

    try:
        lines = report_run_dir(args.run_dir)
    except ConfigurationError as err:
        out.write(f"error: {err}\n")
        return 2
    for line in lines:
        out.write(line + "\n")
    return 0


def _cmd_broker(args, out) -> int:
    from repro.distributed import BrokerConfig, run_broker
    from repro.errors import ConfigurationError

    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        out.write("error: --checkpoint-every needs --checkpoint-dir\n")
        return 2
    if args.lease_timeout <= 0:
        out.write(f"error: --lease-timeout must be positive, got {args.lease_timeout}\n")
        return 2
    if (args.tls_cert is None) != (args.tls_key is None):
        out.write("error: --tls-cert and --tls-key must be given together\n")
        return 2
    if args.compact_events_bytes is not None and args.compact_events_bytes <= 0:
        out.write(
            f"error: --compact-events-bytes must be positive, got {args.compact_events_bytes}\n"
        )
        return 2
    config = BrokerConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        state_dir=args.state_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        lease_timeout=args.lease_timeout,
        max_retries=args.max_retries,
        max_releases=args.max_releases,
        auth_token=args.auth_token,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
        compact_events_bytes=args.compact_events_bytes,
        port_file=args.port_file,
    )

    def announce(port: int) -> None:
        out.write(f"broker listening on {args.host}:{port}\n")
        try:
            out.flush()
        except (AttributeError, OSError):  # pragma: no cover - exotic streams
            pass

    try:
        run_broker(config, announce=announce)
    except ConfigurationError as err:
        out.write(f"error: {err}\n")
        return 2
    return 0


def _cmd_worker(args, out) -> int:
    from repro.distributed import Worker
    from repro.errors import DistributedError

    if args.jobs < 1:
        out.write(f"error: --jobs must be >= 1, got {args.jobs}\n")
        return 2
    try:
        worker = Worker(
            args.broker,
            worker_id=args.id,
            jobs=args.jobs,
            exit_when_idle=args.exit_when_idle,
            max_reconnects=args.max_reconnects,
            auth_token=args.auth_token,
            tls_ca=args.tls_ca,
            log=None if args.quiet else sys.stderr,
            telemetry=args.telemetry,
        )
        worker.install_signal_handlers()
        return worker.run()
    except DistributedError as err:
        # Covers both construction (bad address) and a broker that
        # rejected the session outright (auth/protocol mismatch).
        out.write(f"error: {err}\n")
        return 2


def _cmd_dashboard(args, out) -> int:
    import time

    from repro.distributed import render_dashboard
    from repro.errors import ConfigurationError

    def render_once() -> tuple[int, list[str]]:
        try:
            return 0, render_dashboard(
                args.state_dir, args.bench or [], history=args.watch
            )
        except ConfigurationError as err:
            return 2, [f"error: {err}"]

    if not args.watch:
        status, lines = render_once()
        for line in lines:
            out.write(line + "\n")
        return status

    # --watch: re-render on an interval. On a TTY each frame repaints the
    # screen in place; elsewhere frames are separated by a stamp line so
    # logs stay greppable. A vanished/incomplete state dir renders as the
    # error line and keeps watching — brokers often start after the
    # dashboard does.
    from repro.parallel.progress import stream_is_tty

    is_tty = stream_is_tty(out)
    iteration = 0
    status = 0
    try:
        while True:
            iteration += 1
            status, lines = render_once()
            stamp = time.strftime("%H:%M:%S")
            if is_tty:
                out.write("\x1b[2J\x1b[H")
            out.write(f"--- repro dashboard  {stamp}  (refresh {iteration}) ---\n")
            for line in lines:
                out.write(line + "\n")
            try:
                out.flush()
            except (AttributeError, OSError):  # pragma: no cover - exotic streams
                pass
            if args.iterations and iteration >= args.iterations:
                return status
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return status


def _normalize_argv(argv: list[str]) -> list[str]:
    """Shorthand expansion: ``repro trace <run-dir>`` → ``trace timeline``.

    ``trace`` predates span tracing with required ``record``/``summarize``
    subcommands; a first argument that is none of the subcommand names
    (and not a help flag) is a run-dir/trace-file path, so the ``timeline``
    subcommand is implied.
    """
    if len(argv) >= 2 and argv[0] == "trace":
        if argv[1] not in ("record", "summarize", "timeline", "-h", "--help"):
            return ["trace", "timeline", *argv[1:]]
    return argv


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    A run stopped by SIGINT/SIGTERM (see
    :class:`~repro.errors.GracefulShutdown`) exits with the distinct
    :data:`~repro.errors.SHUTDOWN_EXIT_CODE` after flushing its journal and
    checkpoints, so wrappers can tell "interrupted but resumable" from
    failure.
    """
    from repro.errors import SHUTDOWN_EXIT_CODE, GracefulShutdown

    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_normalize_argv(argv))
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "simulate":
            return _cmd_simulate(args, out)
        if args.command == "experiments":
            return _cmd_experiments(args, out)
        if args.command == "theory":
            return _cmd_theory(args, out)
        if args.command == "meanfield":
            return _cmd_meanfield(args, out)
        if args.command == "fluid":
            return _cmd_fluid(args, out)
        if args.command == "compare":
            return _cmd_compare(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "telemetry":
            return _cmd_telemetry(args, out)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args, out)
        if args.command == "broker":
            return _cmd_broker(args, out)
        if args.command == "worker":
            return _cmd_worker(args, out)
        if args.command == "dashboard":
            return _cmd_dashboard(args, out)
    except GracefulShutdown as err:
        out.write(f"interrupted: {err}\n")
        return SHUTDOWN_EXIT_CODE
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
