"""Autoscaling: re-pick n (and c) from observed occupancy/wait signals.

:class:`AutoscalingPolicy` is the immutable knob set; :class:`Autoscaler`
is the observer that applies it. Two controllers are provided:

``utilization``
    Signal = ``total_load / total_capacity`` per round. Tracks buffer
    occupancy; requires bounded bins.
``p99_wait``
    Signal = the per-round p99 waiting time (from each record's sparse
    wait histogram; rounds with no finalized waits carry the last value
    forward, matching :func:`repro.faults.recovery.per_round_p99`).
    ``target`` is then measured in rounds.

Decisions happen only at ``check_every`` round boundaries, only with a full
signal window, and only ``cooldown`` rounds after the previous scale event;
each decision moves membership by at most ``max_step`` bins. The window is
cleared after every scale event so post-change signals are never mixed with
pre-change ones. Scale-in victims come from the autoscaler's own RNG stream
(``RngFactory(seed).generator("autoscale")``), never the process RNG.

When a scale-out is wanted but membership is pinned at ``max_n``, the
controller can instead raise a shared scalar capacity by one (up to
``capacity_max``) — the "re-pick c" half of the control surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.balls.bin_array import SHRINK_POLICIES
from repro.churn.injector import removal_mapping, require_ball_process, sample_sorted
from repro.churn.schedule import check_at_least, check_bounds, check_choice
from repro.errors import ConfigurationError
from repro.faults.recovery import record_p99
from repro.rng import RngFactory
from repro.telemetry.runtime import current as _telemetry_current, span as _span

__all__ = ["AutoscalingPolicy", "Autoscaler"]

CONTROLLERS = ("utilization", "p99_wait")


@dataclass(frozen=True)
class AutoscalingPolicy:
    """Immutable autoscaler configuration (see module docstring)."""

    controller: str = "utilization"
    target: float = 0.7
    band: float = 0.1
    window: int = 25
    check_every: int = 25
    cooldown: int = 50
    max_step: int = 64
    min_n: int = 1
    max_n: int | None = None
    policy: str = "rehash"
    capacity_max: int | None = None

    def __post_init__(self) -> None:
        check_choice("controller", self.controller, CONTROLLERS)
        if self.target <= 0.0:
            raise ConfigurationError(f"target must be positive, got {self.target}")
        if not 0.0 <= self.band < 1.0:
            raise ConfigurationError(f"band must be in [0, 1), got {self.band}")
        for name in ("window", "check_every", "max_step"):
            check_at_least(name, getattr(self, name))
        check_at_least("cooldown", self.cooldown, 0)
        check_bounds(self.min_n, self.max_n)
        check_choice("policy", self.policy, SHRINK_POLICIES)
        if self.policy == "drain":
            # Draining needs the two-stage pending bookkeeping the
            # Injector owns; the autoscaler keeps no such queue.
            raise ConfigurationError("autoscaler scale-in supports 'rehash' or 'drop' only")
        if self.capacity_max is not None:
            check_at_least("capacity_max", self.capacity_max)


def _capacity_total(bins) -> int | None:
    """Total buffer slots across the bins (None when unbounded)."""
    capacity = bins.capacity
    if capacity is None:
        return None
    if isinstance(capacity, int):
        return capacity * bins.n
    return int(np.asarray(capacity).sum())


class Autoscaler:
    """Observer implementing :class:`AutoscalingPolicy` on a live process.

    Attributes
    ----------
    scale_outs / scale_ins / capacity_raises:
        Decisions applied so far, by kind.
    events_log:
        ``(round, description)`` tuples for every decision.
    """

    def __init__(self, policy: AutoscalingPolicy, seed: int = 0) -> None:
        if not isinstance(policy, AutoscalingPolicy):
            raise ConfigurationError(
                f"policy must be an AutoscalingPolicy, got {type(policy).__name__}"
            )
        self.policy = policy
        self._rng = RngFactory(seed).generator("autoscale")
        self._process = None
        self._remap_listeners: list[Any] = []
        self._window: list[float] = []
        self._last_signal = 0.0
        self._last_scale_round: int | None = None
        self.scale_outs = 0
        self.scale_ins = 0
        self.capacity_raises = 0
        self.events_log: list[tuple[int, str]] = []

    def add_remap_listener(self, listener: Any) -> None:
        """Register an observer to notify of scale-outs (``bins_joined``) and
        scale-ins (``remap_entities``)."""
        if listener is self:
            raise ConfigurationError("an observer cannot be its own remap listener")
        if listener not in self._remap_listeners:
            self._remap_listeners.append(listener)

    def _bind(self, process: Any) -> None:
        if self._process is None:
            require_ball_process(process)
            if self.policy.controller == "utilization" and _capacity_total(process.bins) is None:
                raise ConfigurationError(
                    "the utilization controller needs bounded capacity "
                    "(an unbounded pool cannot report occupancy)"
                )
            self._process = process
        elif process is not self._process:
            raise ConfigurationError("an Autoscaler is bound to one process; build one per run")

    def _note(self, t: int, description: str, action: str) -> None:
        """Log one scale decision; a decision restarts the cooldown and the window."""
        self._last_scale_round = t
        self._window.clear()
        self.events_log.append((t, description))
        tel = _telemetry_current()
        if tel is not None:
            tel.inc("scale_events_total", action=action)
            tel.emit({"type": "scale", "round": t, "action": action, "description": description})

    def _signal(self, record, bins) -> float:
        if self.policy.controller == "utilization":
            total = _capacity_total(bins)
            self._last_signal = record.total_load / total if total else 0.0
        else:
            p99 = record_p99(record)
            if p99 is not None:
                self._last_signal = p99
        return self._last_signal

    # -- checkpointing ------------------------------------------------------

    def get_state(self) -> dict:
        """Checkpoint the controller position (window, cooldown, RNG, log)."""
        return {
            "rng": self._rng.bit_generator.state,
            "window": list(self._window),
            "last_signal": self._last_signal,
            "last_scale_round": self._last_scale_round,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "capacity_raises": self.capacity_raises,
            "events_log": [[t, description] for t, description in self.events_log],
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state` (binding stays lazy)."""
        self._rng.bit_generator.state = state["rng"]
        self._window = [float(v) for v in state["window"]]
        self._last_signal = float(state["last_signal"])
        last = state["last_scale_round"]
        self._last_scale_round = None if last is None else int(last)
        self.scale_outs = int(state["scale_outs"])
        self.scale_ins = int(state["scale_ins"])
        self.capacity_raises = int(state["capacity_raises"])
        self.events_log = [(int(t), str(description)) for t, description in state["events_log"]]

    # -- the observer hook --------------------------------------------------

    def on_round(self, record, process: Any) -> None:
        self._bind(process)
        bins = process.bins
        t = record.round
        policy = self.policy

        self._window.append(self._signal(record, bins))
        if len(self._window) > policy.window:
            del self._window[: len(self._window) - policy.window]

        if t % policy.check_every != 0 or len(self._window) < policy.window:
            return
        if self._last_scale_round is not None and t - self._last_scale_round < policy.cooldown:
            return

        mean_signal = sum(self._window) / len(self._window)
        tel = _telemetry_current()
        if tel is not None:
            tel.set_gauge("autoscale_signal", mean_signal, controller=policy.controller)
        error = (mean_signal - policy.target) / policy.target
        if abs(error) <= policy.band:
            return

        step = min(policy.max_step, max(1, round(bins.n * abs(error))))
        if error > 0:
            headroom = step if policy.max_n is None else min(step, policy.max_n - bins.n)
            if headroom > 0:
                with _span("scale_event", component="autoscale", direction="out"):
                    added = process.grow_bins(headroom, capacity=None)
                for listener in self._remap_listeners:
                    listener.bins_joined(bins, added)
                self.scale_outs += 1
                self._note(
                    t,
                    f"scale out +{headroom} (signal {mean_signal:.3f} > "
                    f"target {policy.target}) -> n={bins.n}",
                    "scale_out",
                )
            else:
                capacity = bins.capacity if isinstance(bins.capacity, int) else None
                if (
                    policy.capacity_max is not None
                    and capacity is not None
                    and capacity < policy.capacity_max
                ):
                    with _span("scale_event", component="autoscale", direction="capacity"):
                        bins.set_capacity(capacity + 1)
                    self.capacity_raises += 1
                    self._note(t, f"raise capacity to {capacity + 1} (n at max)", "raise_c")
        else:
            count = min(step, bins.n - policy.min_n)
            if count > 0:
                victims = sample_sorted(self._rng, np.flatnonzero(~bins.draining), count)
                if victims.size == 0:
                    return
                count = victims.size
                old_n = bins.n
                with _span("scale_event", component="autoscale", direction="in"):
                    process.shrink_bins(victims, policy=policy.policy)
                mapping = removal_mapping(old_n, victims)
                for listener in self._remap_listeners:
                    listener.remap_entities(mapping)
                self.scale_ins += 1
                self._note(
                    t,
                    f"scale in -{count} (signal {mean_signal:.3f} < "
                    f"target {policy.target}) -> n={bins.n}",
                    "scale_in",
                )
        if tel is not None:
            tel.set_gauge("membership_n", bins.n)
