"""Per-layer attribution for the traced benchmark run.

:class:`LayerTrace` patches the entry points of each ``repro`` layer from
outside the package and keeps spans in memory:

* a *frame* is a timed call that nests: its self time is its duration
  minus the frames it encloses, so the self times of all frames tile the
  traced wall clock and whatever they leave uncovered is reported as
  ``unattributed.share``;
* a *phase* is timed but does not nest (the driver's burn-in/measure
  spans, which only split ``SimulationDriver.run``).

Only the installing thread of the installing process records anything.
Pool workers forked by the runner inherit the patched functions, but
an at-fork hook switches the trace off in the child, and the broker's
event-loop thread is filtered by thread id. Functions the runner ships to
pool workers by qualified name (``execute_task``, ``discover_experiment``)
are never patched, because a patched name no longer pickles as the
original. Busy time inside workers therefore comes from what the runner
already reports: the per-task ``elapsed`` fed to ``TimingStats.add`` and
yielded by ``BrokerClient.run_tasks``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class LayerTrace:
    """In-memory spans and counters around the entry points of each layer."""

    def __init__(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.selfs: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.throws = 0
        self.driven_rounds = 0
        # (label, elapsed, group) for every TimingStats.add in this process.
        self.timings: list[tuple[str, float, str | None]] = []
        # (wait inside BrokerClient.run_tasks for this result, bundle).
        self.remote: list[tuple[float, Any]] = []
        self.client_s = 0.0
        self._stack: list[list[float]] = []
        self._muted = 0
        self._active = False
        self._thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []
        self._registry: dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _on(self) -> bool:
        return self._active and not self._muted and threading.get_ident() == self._thread

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float], elapsed: float) -> None:
        self._stack.pop()
        self.totals[name] += elapsed
        self.selfs[name] += elapsed - frame[0]
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed

    @contextmanager
    def frame(self, name: str) -> Iterator[None]:
        """Time a block as a nesting frame (used by the benchmark itself)."""
        if not self._on():
            yield
            return
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, time.perf_counter() - start)

    @contextmanager
    def muted(self, name: str) -> Iterator[None]:
        """One frame whose callees record nothing (the resume replay)."""
        with self.frame(name):
            self._muted += 1
            try:
                yield
            finally:
                self._muted -= 1

    def self_seconds(self) -> float:
        return sum(self.selfs.values())

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_call(
        self, original: Callable, name: str, on_call: Callable[..., None] | None = None
    ) -> Callable:
        trace = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not trace._on():
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = trace._enter()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                trace._exit(name, frame, time.perf_counter() - start)

        return wrapper

    def wrap_function(
        self, function: Callable, name: str, on_call: Callable[..., None] | None = None
    ) -> None:
        """Patch every ``repro`` module global bound to ``function``."""
        wrapper = self._wrap_call(function, name, on_call)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attr, wrapper)

    def wrap_method(
        self, cls: type, attr: str, name: str, on_call: Callable[..., None] | None = None
    ) -> None:
        self._set(cls, attr, self._wrap_call(cls.__dict__[attr], name, on_call))

    def _span_hook(self, module: Any, prefix: str, nest: bool) -> None:
        """Time the ``repro.telemetry.runtime.span`` phases one module opens."""
        original = module._span
        trace = self

        @contextmanager
        def timed(name: str, inner: Any) -> Iterator[None]:
            with inner:
                if nest:
                    with trace.frame(name):
                        yield
                    return
                start = time.perf_counter()
                try:
                    yield
                finally:
                    trace.totals[name] += time.perf_counter() - start

        def hook(name: str, *args: Any, **labels: Any) -> Any:
            inner = original(name, *args, **labels)
            return timed(f"{prefix}.{name}", inner) if trace._on() else inner

        self._set(module, "_span", hook)

    def install(self) -> None:
        """Patch the layer entry points; call :meth:`uninstall` to undo."""
        import repro.engine.driver as driver_module
        import repro.parallel.runner as runner_module
        from repro.analysis import experiments, sweep
        from repro.core.capped import CappedProcess
        from repro.core.meanfield import equilibrium
        from repro.distributed.client import BrokerClient
        from repro.engine.driver import SimulationDriver
        from repro.kernels.round import resolve_capped_round, resolve_capped_round_serial
        from repro.parallel.journal import Journal
        from repro.parallel.progress import TimingStats
        from repro.processes.greedy import GreedyBatchProcess

        def count_throws(*args: Any, **kwargs: Any) -> None:
            keys = args[2] if len(args) > 2 else kwargs["ball_keys"]
            self.throws += len(keys)

        def count_rounds(driver: Any, *args: Any, **kwargs: Any) -> None:
            self.driven_rounds += driver.burn_in + driver.measure

        self.wrap_function(resolve_capped_round, "kernels", count_throws)
        self.wrap_function(resolve_capped_round_serial, "kernels", count_throws)
        self.wrap_method(CappedProcess, "step", "core.step")
        self.wrap_function(equilibrium, "core.meanfield")
        self.wrap_method(GreedyBatchProcess, "step", "processes.greedy_step")
        self.wrap_function(sweep.run_greedy_replicate, "processes.greedy")
        self.wrap_method(SimulationDriver, "run", "engine.run", count_rounds)
        self.wrap_function(sweep.measure_capped, "analysis.sweep")
        self.wrap_function(sweep.measure_greedy, "analysis.sweep")
        self._registry = dict(experiments.EXPERIMENTS)
        for experiment_id, generator in self._registry.items():
            experiments.EXPERIMENTS[experiment_id] = self._wrap_call(
                generator, f"analysis.exp.{experiment_id}"
            )
        self.wrap_method(Journal, "append", "parallel.journal")
        self._span_hook(runner_module, "parallel", nest=True)
        self._span_hook(driver_module, "engine", nest=False)

        original_add = TimingStats.__dict__["add"]
        trace = self

        def add(stats: Any, label: str, elapsed: float, group: str | None = None) -> None:
            if trace._on():
                trace.timings.append((label, elapsed, group))
            original_add(stats, label, elapsed, group)

        self._set(TimingStats, "add", add)

        original_run_tasks = BrokerClient.__dict__["run_tasks"]

        def run_tasks(client: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            stream = original_run_tasks(client, *args, **kwargs)
            if not trace._on():
                yield from stream
                return
            # Time only the generator's own work: the runner handles each
            # result (journal, cache, TimingStats) while it is suspended.
            while True:
                start = time.perf_counter()
                try:
                    payload, bundle = next(stream)
                except StopIteration:
                    trace.client_s += time.perf_counter() - start
                    return
                waited = time.perf_counter() - start
                trace.client_s += waited
                trace.remote.append((waited, bundle))
                yield payload, bundle

        self._set(BrokerClient, "run_tasks", run_tasks)
        os.register_at_fork(after_in_child=self._disable)
        self._active = True

    def _disable(self) -> None:
        self._active = False

    def uninstall(self) -> None:
        from repro.analysis import experiments

        self._active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        experiments.EXPERIMENTS.update(self._registry)
