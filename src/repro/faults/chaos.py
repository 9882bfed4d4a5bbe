"""Harness-level chaos hooks: deliberately break workers to test the runner.

Layer 2 of the robustness subsystem needs a way to make a worker process
hang, crash, or die mid-task *deterministically* — racing ``pgrep``/``kill``
against a short sweep from a shell script is flaky. Instead, the task entry
point (:func:`repro.parallel.tasks.execute_task`) calls :func:`maybe_chaos`
with the task's label; when the ``REPRO_CHAOS`` environment variable is
unset (always, in production) that is a dictionary lookup and nothing else.

``REPRO_CHAOS`` holds a JSON object::

    {"action": "kill", "match": "r1", "times": 1, "marker_dir": "/tmp/x"}

action:
    ``fail``  — raise :class:`~repro.errors.ChaosInjected` (a retryable error);
    ``hang``  — sleep for ``seconds`` (exercises the task timeout);
    ``crash`` — ``os._exit(13)`` (worker dies, pool breaks);
    ``kill``  — ``SIGKILL`` own process (the harshest worker death).
match:
    Substring of the task label that arms the hook (empty = every task).
times:
    How many injections before the hook stands down.
marker_dir:
    Directory used to count injections *across processes* via atomically
    created marker files, so "kill one worker once" means exactly once even
    though every pool worker inherits the environment. Required for
    ``crash``/``kill`` (without it a retried task would die forever).
seconds:
    Hang duration (default 3600 — far beyond any sane task timeout).

The env-var transport is deliberate: it crosses the ``ProcessPoolExecutor``
boundary for free (workers inherit the parent environment) and cannot leak
into a run that did not explicitly arm it.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import asdict, dataclass

from repro.errors import ChaosInjected, ConfigurationError

__all__ = ["CHAOS_ENV", "ChaosSpec", "chaos_from_env", "maybe_chaos", "maybe_chaos_round"]

CHAOS_ENV = "REPRO_CHAOS"

_ACTIONS = ("fail", "hang", "crash", "kill")


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed chaos configuration (see module docstring for semantics).

    ``at_round`` switches the hook from the task boundary to the simulation
    round loop: the injection fires when the driver completes round
    ``at_round`` (via :func:`maybe_chaos_round`, called after that round's
    checkpoint write, so a resumed run restarts from a snapshot at or
    before the kill point). A spec with ``at_round`` set is ignored by the
    task-boundary hook :func:`maybe_chaos`.
    """

    action: str
    match: str = ""
    times: int = 1
    seconds: float = 3600.0
    marker_dir: str | None = None
    at_round: int | None = None

    def __post_init__(self) -> None:
        action = self.action
        if action not in _ACTIONS:
            raise ConfigurationError(f"chaos action must be one of {_ACTIONS}, got {action!r}")
        if self.times < 1:
            raise ConfigurationError(f"chaos times must be >= 1, got {self.times}")
        if self.seconds <= 0:
            raise ConfigurationError(f"chaos seconds must be positive, got {self.seconds}")
        if action in ("crash", "kill") and self.marker_dir is None:
            raise ConfigurationError(
                f"chaos action {action!r} requires marker_dir: without cross-process "
                "injection counting a retried task would die forever"
            )
        if self.at_round is not None and self.at_round < 1:
            raise ConfigurationError(f"chaos at_round must be >= 1, got {self.at_round}")

    def to_env(self) -> str:
        """Serialize for the ``REPRO_CHAOS`` environment variable."""
        return json.dumps(asdict(self))


def chaos_from_env(environ=None) -> ChaosSpec | None:
    """Parse ``REPRO_CHAOS``; None when unset. Raises on malformed JSON
    (a misconfigured chaos run must not silently run clean)."""
    environ = os.environ if environ is None else environ
    raw = environ.get(CHAOS_ENV)
    if not raw:
        return None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"malformed {CHAOS_ENV}: {err}") from err
    if not isinstance(payload, dict) or "action" not in payload:
        raise ConfigurationError(f"{CHAOS_ENV} must be a JSON object with an 'action'")
    at_round = payload.get("at_round")
    return ChaosSpec(
        action=payload["action"],
        match=payload.get("match", ""),
        times=int(payload.get("times", 1)),
        seconds=float(payload.get("seconds", 3600.0)),
        marker_dir=payload.get("marker_dir"),
        at_round=None if at_round is None else int(at_round),
    )


def _claim_injection(spec: ChaosSpec) -> bool:
    """Atomically claim one of the ``spec.times`` injection slots.

    Marker files created with O_CREAT|O_EXCL make the claim race-free across
    pool workers sharing a marker directory. Without a marker_dir every call
    injects (only safe for ``fail``/``hang`` under a bounded retry budget).
    """
    if spec.marker_dir is None:
        return True
    os.makedirs(spec.marker_dir, exist_ok=True)
    for slot in range(spec.times):
        path = os.path.join(spec.marker_dir, f"chaos-{slot}.marker")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError as err:
            if err.errno == errno.EEXIST:
                continue
            raise
        os.write(fd, f"pid={os.getpid()}\n".encode())
        os.close(fd)
        return True
    return False


def maybe_chaos(label: str, spec: ChaosSpec | None = None, environ=None) -> None:
    """Inject the configured fault if armed for this task label.

    No-op (one dict lookup) when ``REPRO_CHAOS`` is unset and no spec is
    passed explicitly.
    """
    if spec is None:
        spec = chaos_from_env(environ)
        if spec is None:
            return
    if spec.at_round is not None:
        # Round-scoped specs fire from the driver loop, not task entry.
        return
    if spec.match and spec.match not in label:
        return
    _fire(spec, label)


def maybe_chaos_round(
    label: str, round_index: int, spec: ChaosSpec | None = None, environ=None
) -> None:
    """Round-loop chaos hook: inject when round ``round_index`` completes.

    Called by :class:`~repro.engine.driver.SimulationDriver` after each
    round (after any due checkpoint write). A no-op unless a spec with
    ``at_round == round_index`` matching ``label`` is armed — the common
    use is ``{"action": "kill", "at_round": N}`` to SIGKILL a checkpointed
    run mid-measure and prove resume-bit-identity.
    """
    if spec is None:
        spec = chaos_from_env(environ)
        if spec is None:
            return
    if spec.at_round is None or spec.at_round != round_index:
        return
    if spec.match and spec.match not in label:
        return
    _fire(spec, label)


def _fire(spec: ChaosSpec, label: str) -> None:
    """Claim an injection slot and execute the configured action."""
    if not _claim_injection(spec):
        return
    if spec.action == "fail":
        raise ChaosInjected(f"injected failure for task {label!r}")
    if spec.action == "hang":
        time.sleep(spec.seconds)
        return
    if spec.action == "crash":
        os._exit(13)
    if spec.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
