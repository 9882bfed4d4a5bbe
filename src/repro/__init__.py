"""repro — reproduction of *Infinite Balanced Allocation via Finite
Capacities* (Berenbrink, Friedetzky, Hahn, Hintze, Kaaser, Kling, Nagel;
ICDCS 2021).

The library implements the paper's CAPPED(c, λ) process, the coupled
analysis process MODCAPPED(c, λ), the theoretical bounds of Theorems 1 and
2, the GREEDY[d] baseline the paper compares against, and an experiment
harness regenerating the paper's full empirical evaluation (Figures 4 and
5 plus the in-text claims).

Quickstart
----------
>>> from repro import CappedProcess, SimulationDriver
>>> process = CappedProcess(n=1024, capacity=2, lam=0.75, rng=42)
>>> result = SimulationDriver(burn_in=200, measure=300).run(process)
>>> result.normalized_pool < 2.0
True

See ``README.md`` for the architecture overview and ``EXPERIMENTS.md`` for
the paper-vs-measured comparison.
"""

from repro.checkpoint import CheckpointStore
from repro.core.capped import CappedProcess, ExactCappedSimulator
from repro.core.coupling import CoupledRun, run_coupled
from repro.core.modcapped import ModCappedProcess
from repro.core import theory
from repro.engine.driver import SimulationDriver, SimulationResult
from repro.engine.metrics import MetricsCollector, RoundRecord
from repro.errors import (
    CapacityExceeded,
    ConfigurationError,
    ExperimentError,
    InvariantViolation,
    ReproError,
    SimulationError,
)
from repro.processes.greedy import GreedyBatchProcess
from repro.rng import RngFactory

__version__ = "1.0.0"

__all__ = [
    "CappedProcess",
    "CheckpointStore",
    "ExactCappedSimulator",
    "ModCappedProcess",
    "CoupledRun",
    "run_coupled",
    "theory",
    "GreedyBatchProcess",
    "SimulationDriver",
    "SimulationResult",
    "MetricsCollector",
    "RoundRecord",
    "RngFactory",
    "ReproError",
    "ConfigurationError",
    "InvariantViolation",
    "CapacityExceeded",
    "SimulationError",
    "ExperimentError",
    "__version__",
]
