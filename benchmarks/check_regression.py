"""Compare a fresh BENCH_engine.json against the committed baseline.

CI regenerates the benchmark artifact on every push (the ``bench`` job)
and then runs this script. The comparison deliberately uses only
**machine-independent ratios** — speedups of the fused kernels over the
per-bucket reference sweep (``tests/oracles.py``; the artifact keeps its
``legacy`` field names) measured on the *same* run of the *same* machine
— so a slower CI runner does not trip the gate, but a genuinely slower
kernel does:

* every ``grid`` cell's ``fused_over_legacy`` ratio,
* the flagship ``kernel_phase.speedup`` (acceptance phase only), and
* the whole-round ``general_c.speedup`` at the c=4 cell.

The same script also gates the distributed-sweep artifact
(``BENCH_sweep.json`` vs ``benchmarks/baseline_sweep.json``, selected
with ``--baseline``): the ``fabric`` fleet-scaling and ``multislot``
slot-scaling speedups are measured on latency-bound tasks, so they are
core-count independent and gate like the kernel ratios. Which ratios
apply is driven by what the *baseline* contains, so one script serves
both artifact shapes.

Absolute rounds/sec and tasks/sec numbers and the ``compute`` sweep
modes (all of which depend on the runner's core count) are reported for
context but never gated.

A cell fails when ``current < THRESHOLD * baseline`` (default 0.85x,
override with ``--threshold``). Refresh the baseline by copying a
freshly generated default-profile artifact over it::

    REPRO_BENCH_PROFILE=default python -m pytest benchmarks/test_kernel_speed.py \
        --bench-json BENCH_engine.json
    cp BENCH_engine.json benchmarks/baseline.json

Exit status: 0 when every gated ratio holds, 1 on regression, 2 on a
malformed or incomparable artifact. A cell present only in the *current*
artifact (newly added to the grid) is reported as an informational
``no baseline for cell`` note and never gates — the PR adding a grid cell
must not be blocked on the baseline it is about to create; a cell missing
from the current artifact remains a comparability error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_THRESHOLD = 0.85


def _grid_index(rows):
    index = {}
    for row in rows:
        index[(row["n"], row["c"], row["lam"])] = row
    return index


def collect_checks(baseline: dict, current: dict) -> list[dict]:
    """Yield one comparison record per gated ratio.

    Each record carries the baseline and current values plus a ``ratio``
    of current over baseline; callers decide the pass threshold.
    """
    checks = []

    base_grid = _grid_index(baseline.get("grid", []))
    cur_grid = _grid_index(current.get("grid", []))
    for key in sorted(base_grid):
        if key not in cur_grid:
            # A removed cell is a comparability error, not a regression:
            # fail loudly so the baseline gets refreshed alongside the
            # grid change instead of silently shrinking coverage.
            checks.append(
                {
                    "name": f"grid n={key[0]} c={key[1]} lam={key[2]}",
                    "error": "cell missing from current artifact",
                }
            )
            continue
        base = base_grid[key]["fused_over_legacy"]
        cur = cur_grid[key]["fused_over_legacy"]
        checks.append(
            {
                "name": f"grid n={key[0]} c={key[1]} lam={key[2]}",
                "baseline": base,
                "current": cur,
                "ratio": cur / base,
            }
        )
    for key in sorted(cur_grid):
        if key not in base_grid:
            # The inverse case is informational: a freshly *added* grid
            # cell has no reference yet and must not block the PR that
            # introduces it — the next baseline refresh will pick it up.
            checks.append(
                {
                    "name": f"grid n={key[0]} c={key[1]} lam={key[2]}",
                    "note": "no baseline for cell",
                }
            )

    for section, field in (("kernel_phase", "speedup"), ("general_c", "speedup")):
        base_sec = baseline.get(section)
        cur_sec = current.get(section)
        if not base_sec:
            continue  # baseline predates the section; nothing to gate
        if not cur_sec:
            checks.append({"name": section, "error": "section missing from current artifact"})
            continue
        checks.append(
            {
                "name": section,
                "baseline": base_sec[field],
                "current": cur_sec[field],
                "ratio": cur_sec[field] / base_sec[field],
            }
        )

    for section, fields in (
        ("fabric", ("speedup_2w_over_1w", "speedup_4w_over_1w")),
        ("multislot", ("speedup_4s_over_1s",)),
    ):
        base_sec = baseline.get(section) or {}
        cur_sec = current.get(section) or {}
        for field in fields:
            if field not in base_sec:
                continue  # baseline predates the ratio; nothing to gate
            if field not in cur_sec:
                checks.append(
                    {
                        "name": f"{section}.{field}",
                        "error": "ratio missing from current artifact",
                    }
                )
                continue
            checks.append(
                {
                    "name": f"{section}.{field}",
                    "baseline": base_sec[field],
                    "current": cur_sec[field],
                    "ratio": cur_sec[field] / base_sec[field],
                }
            )

    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate benchmark speedup ratios against the committed baseline."
    )
    parser.add_argument("current", type=Path, help="freshly generated BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed reference artifact (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fail when current/baseline drops below this (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_regression: cannot read artifacts: {exc}", file=sys.stderr)
        return 2

    checks = collect_checks(baseline, current)
    errors = [c for c in checks if "error" in c]
    notes = [c for c in checks if "note" in c]
    gated = [c for c in checks if "ratio" in c]
    if not gated and not errors:
        print("check_regression: no comparable ratios found", file=sys.stderr)
        return 2

    failures = [c for c in gated if c["ratio"] < args.threshold]

    width = max(len(c["name"]) for c in checks)
    print(f"{'cell':<{width}}  {'baseline':>8}  {'current':>8}  {'ratio':>6}  status")
    for c in checks:
        if "error" in c:
            print(f"{c['name']:<{width}}  {'-':>8}  {'-':>8}  {'-':>6}  ERROR: {c['error']}")
            continue
        if "note" in c:
            print(f"{c['name']:<{width}}  {'-':>8}  {'-':>8}  {'-':>6}  note: {c['note']}")
            continue
        status = "FAIL" if c["ratio"] < args.threshold else "ok"
        print(
            f"{c['name']:<{width}}  {c['baseline']:>7.2f}x  {c['current']:>7.2f}x"
            f"  {c['ratio']:>5.2f}x  {status}"
        )

    if errors:
        print(
            f"\ncheck_regression: {len(errors)} cell(s) not comparable — regenerate "
            "the baseline when changing the benchmark grid.",
            file=sys.stderr,
        )
        return 2
    if failures:
        print(
            f"\ncheck_regression: {len(failures)} ratio(s) below "
            f"{args.threshold:.2f}x of baseline.",
            file=sys.stderr,
        )
        return 1
    suffix = f" ({len(notes)} new cell(s) without a baseline)" if notes else ""
    print(f"\ncheck_regression: all {len(gated)} ratios within {args.threshold:.2f}x.{suffix}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
