"""Transient fluid-limit trajectories of CAPPED(c, λ).

:mod:`repro.core.meanfield` computes the *equilibrium* of the fluid limit;
this module integrates its *transient*. The normalised system state is the
pair (pool/n, per-bin load distribution); one round of the fluid dynamics
is deterministic:

1. the throw intensity is ``ν/n = pool/n + λ``;
2. the load distribution advances one step of the single-bin chain with
   Poisson(ν/n) arrivals (:func:`repro.core.meanfield.bin_transition_matrix`);
3. the pool update is ``pool' = ν/n − accepted-per-bin``.

Two standard uses:

* **Cold-start prediction.** From the empty state the trajectory shows the
  pool filling toward equilibrium with the ``Θ(1/(1−λ))`` time constant
  (the linearised drain rate near equilibrium is ``≈ 1 − λ`` per round) —
  this is what justifies the burn-in heuristics in
  :mod:`repro.engine.stability`, and the simulation follows it closely.
* **Spike response.** From an inflated pool the trajectory reproduces the
  Lemma 3 drain at rate ``1 − e^{−ν/n}`` per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.meanfield import (
    _arrival_pmf,
    _expected_accepts,
    bin_transition_matrix,
    equilibrium,
)
from repro.errors import ConfigurationError

__all__ = ["FluidTrajectory", "integrate", "relaxation_rounds"]


@dataclass(frozen=True)
class FluidTrajectory:
    """Deterministic fluid trajectory of CAPPED(c, λ).

    Attributes
    ----------
    pool:
        Normalised pool size per round (index 0 = initial state).
    mean_load:
        Mean per-bin load per round.
    accept_rate:
        Balls accepted per bin in each round (length ``len(pool) − 1``).
    """

    c: int
    lam: float
    pool: np.ndarray
    mean_load: np.ndarray
    accept_rate: np.ndarray

    @property
    def rounds(self) -> int:
        """Number of integrated rounds."""
        return len(self.pool) - 1

    def rounds_to_reach(self, pool_level: float, from_above: bool = True) -> int | None:
        """First round at which the pool crosses ``pool_level``.

        ``from_above`` selects the crossing direction (draining vs
        filling); returns ``None`` if never crossed.
        """
        for t, value in enumerate(self.pool):
            if (value <= pool_level) if from_above else (value >= pool_level):
                return t
        return None


def integrate(
    c: int,
    lam: float,
    rounds: int,
    initial_pool: float = 0.0,
    initial_loads: np.ndarray | None = None,
) -> FluidTrajectory:
    """Integrate the fluid dynamics for ``rounds`` rounds.

    Parameters
    ----------
    c, lam:
        Process parameters.
    rounds:
        Rounds to integrate.
    initial_pool:
        Normalised starting pool (0 = the paper's empty start).
    initial_loads:
        Starting load distribution over 0..c (defaults to all-empty).
    """
    if c < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {c}")
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1), got {lam}")
    if rounds < 1:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")
    if initial_pool < 0:
        raise ConfigurationError(f"initial_pool must be non-negative, got {initial_pool}")
    if initial_loads is None:
        loads = np.zeros(c + 1)
        loads[0] = 1.0
    else:
        loads = np.asarray(initial_loads, dtype=float)
        if loads.shape != (c + 1,) or abs(loads.sum() - 1.0) > 1e-9 or np.any(loads < 0):
            raise ConfigurationError("initial_loads must be a distribution over 0..c")

    pools = [float(initial_pool)]
    mean_loads = [float(np.arange(c + 1) @ loads)]
    accept_rates = []
    pool = float(initial_pool)
    for _ in range(rounds):
        intensity = pool + lam
        accepted = _expected_accepts(loads, _arrival_pmf(intensity, c), c)
        accept_rates.append(accepted)
        pool = max(0.0, intensity - accepted)
        loads = loads @ bin_transition_matrix(intensity, c)
        pools.append(pool)
        mean_loads.append(float(np.arange(c + 1) @ loads))

    return FluidTrajectory(
        c=c,
        lam=lam,
        pool=np.asarray(pools),
        mean_load=np.asarray(mean_loads),
        accept_rate=np.asarray(accept_rates),
    )


def relaxation_rounds(c: int, lam: float, fraction: float = 0.95, max_rounds: int = 500_000) -> int:
    """Rounds for a cold start to fill to ``fraction`` of the equilibrium pool.

    The fluid-limit answer to "how long must I burn in from empty?" —
    near λ → 1 this scales like ``Θ(1/(1−λ))`` (the linearised fill rate
    is ``e^{−ν*/n} = Θ(1−λ)`` per round), which is why the cold-start
    burn-in heuristic carries a ``1/(1−λ)`` term.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"fraction must lie in (0, 1), got {fraction}")
    target = equilibrium(c, lam).normalized_pool * fraction
    if target <= 0.0:
        return 0
    horizon = 256
    while horizon <= max_rounds:
        trajectory = integrate(c, lam, rounds=horizon)
        hit = trajectory.rounds_to_reach(target, from_above=False)
        if hit is not None and hit > 0:
            return hit
        horizon *= 4
    raise ConfigurationError(
        f"relaxation did not reach {fraction:.0%} of equilibrium within {max_rounds} rounds"
    )
