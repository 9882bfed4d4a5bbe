"""Round-based simulation engine.

All processes in this library (the paper's CAPPED/MODCAPPED and every
baseline) advance in synchronous rounds and expose the same minimal
interface: a ``step()`` method returning a :class:`~repro.engine.metrics.RoundRecord`.
The engine layers generic machinery on top:

* :mod:`repro.engine.metrics` — the per-round record and streaming
  measurement collectors.
* :mod:`repro.engine.driver` — burn-in + measurement-window execution.
* :mod:`repro.engine.observers` — pluggable per-round callbacks (tracing,
  invariant checking, profiling).
* :mod:`repro.engine.stability` — burn-in heuristics and stationarity
  diagnostics.
"""

from repro.engine.driver import SimulationDriver, SimulationResult
from repro.engine.metrics import MetricsCollector, RoundRecord
from repro.engine.observers import (
    AgeProfiler,
    InvariantChecker,
    Observer,
    TraceRecorder,
)
from repro.engine.stability import default_burn_in, is_stationary
from repro.engine.trace import TraceWriter, read_trace, write_trace

__all__ = [
    "RoundRecord",
    "MetricsCollector",
    "SimulationDriver",
    "SimulationResult",
    "Observer",
    "TraceRecorder",
    "InvariantChecker",
    "AgeProfiler",
    "default_burn_in",
    "TraceWriter",
    "read_trace",
    "write_trace",
    "is_stationary",
]
