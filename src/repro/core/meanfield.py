"""Mean-field (fluid-limit) analysis of CAPPED(c, λ).

The related work the paper builds on analyses similar infinite processes
with differential-equation / mean-field methods (Berenbrink et al.,
SPAA'00; Mitzenmacher, TPDS'01). This module applies the same technique to
CAPPED(c, λ): as n → ∞, the number of balls a single bin receives in a
round where ``ν`` balls are thrown is Poisson(ν/n), bins decouple, and a
single bin follows a (c+1)-state Markov chain over its start-of-round load:

    L' = max(0, min(c, L + A) − 1),     A ~ Poisson(ν/n).

In equilibrium the per-bin accept rate must equal the injection rate λ
(every generated ball is eventually served), which pins down the
equilibrium throw intensity ``ν*/n`` and with it

* the equilibrium normalized pool size ``ν*/n − λ`` (Figure 4's y-axis),
* the stationary load distribution, and
* the mean waiting time via Little's law.

These closed-loop predictions serve three purposes: an independent check
of the simulator (they agree to within Monte-Carlo noise), instant
warm-starts that skip the ``Θ(1/(1−λ))``-round relaxation of a cold start,
and smooth reference curves for the experiment plots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "poisson_pmf",
    "bin_transition_matrix",
    "stationary_loads",
    "accept_rate",
    "equilibrium_throw_intensity",
    "MeanFieldEquilibrium",
    "equilibrium",
    "mixture_equilibrium_pool",
]


def poisson_pmf(rate: float, kmax: int) -> np.ndarray:
    """Poisson(rate) pmf on 0..kmax with the tail mass folded into kmax.

    Folding the tail keeps the distribution normalised, which the chain
    iteration below relies on; ``kmax`` is always chosen large enough that
    the folded mass is negligible for the loads (everything ≥ c behaves
    identically anyway, as ``min(c, L + A)`` saturates).
    """
    if rate < 0:
        raise ConfigurationError(f"rate must be non-negative, got {rate}")
    if kmax < 0:
        raise ConfigurationError(f"kmax must be non-negative, got {kmax}")
    probabilities = []
    log_term = -rate  # log Pr[A = 0]
    log_rate = math.log(rate) if rate > 0 else -math.inf
    for k in range(kmax + 1):
        probabilities.append(math.exp(log_term))
        log_term += log_rate - math.log(k + 1)
    pmf = np.array(probabilities)
    pmf[kmax] += max(0.0, 1.0 - pmf.sum())
    return pmf


def _arrival_pmf(intensity: float, c: int) -> np.ndarray:
    # Arrivals beyond c + load always saturate the bin, so a modest cushion
    # past both c and the bulk of the Poisson suffices.
    kmax = int(max(c + 30, intensity + 10.0 * math.sqrt(max(intensity, 1.0)) + 20))
    return poisson_pmf(intensity, kmax)


def bin_transition_matrix(intensity: float, c: int) -> np.ndarray:
    """One-round transition matrix of the single-bin load chain.

    State = start-of-round load 0..c; a round applies
    ``L' = max(0, min(c, L + A) − 1)`` with ``A ~ Poisson(intensity)``.
    """
    if c < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {c}")
    return _transition_from_pmf(_arrival_pmf(intensity, c), c)


def _transition_from_pmf(pmf: np.ndarray, c: int) -> np.ndarray:
    # Row ``load`` adds each arrival count's probability to column
    # ``max(0, min(c, load + a) − 1)`` in increasing ``a``. Counts that fit
    # (``a < c − load``) hit distinct columns below c − 1 (except a ≤ 1 from
    # an empty bin, both column 0); the rest saturate into column c − 1.
    # Python floats keep that accumulation order, so every entry is the
    # same double as an element-by-element ``+=`` would give.
    probabilities = pmf.tolist()
    rows = []
    for load in range(c + 1):
        row = [0.0] * (c + 1)
        fits = c - load
        for arrivals, probability in enumerate(probabilities[:fits]):
            row[max(0, load + arrivals - 1)] += probability
        saturated = row[c - 1]
        for probability in probabilities[fits:]:
            saturated += probability
        row[c - 1] = saturated
        rows.append(row)
    return np.array(rows)


def stationary_loads(intensity: float, c: int) -> np.ndarray:
    """Stationary start-of-round load distribution of the single-bin chain.

    Parameters
    ----------
    intensity:
        Normalised throw intensity ``ν/n`` (expected arrivals per bin).
    c:
        Bin capacity.

    Returns
    -------
    numpy.ndarray
        Probability vector over loads 0..c (exact linear solve via
        :func:`repro.stats.markov.stationary_distribution`).
    """
    from repro.stats.markov import stationary_distribution

    return stationary_distribution(bin_transition_matrix(intensity, c))


def accept_rate(intensity: float, c: int) -> float:
    """Expected balls accepted per bin per round in the stationary chain.

    Equals ``E[min(A, c − L)]`` under the stationary load distribution;
    the equilibrium condition is ``accept_rate(ν*/n, c) = λ``.
    """
    from repro.stats.markov import stationary_distribution

    pmf = _arrival_pmf(intensity, c)
    dist = stationary_distribution(_transition_from_pmf(pmf, c))
    return _expected_accepts(dist, pmf, c)


def _expected_accepts(load_dist: np.ndarray, pmf: np.ndarray, c: int) -> float:
    """Balls accepted per bin in one round, ``E[min(A, c − L)]``.

    ``load_dist`` is the start-of-round load distribution over 0..c and
    ``pmf`` the arrival pmf from :func:`poisson_pmf`. Shared by the
    equilibrium solver and the transient integrator in
    :mod:`repro.core.fluid`.
    """
    arrivals = np.arange(len(pmf))
    total = 0.0
    for load in range(c + 1):
        total += load_dist[load] * float((pmf * np.minimum(arrivals, c - load)).sum())
    return total


def equilibrium_throw_intensity(c: int, lam: float, tol: float = 1e-10) -> float:
    """Solve ``accept_rate(ν/n, c) = λ`` for the throw intensity ``ν/n``.

    The accept rate is strictly increasing in the intensity (more arrivals
    can only increase ``min(A, c − L)`` in distribution), so bisection is
    exact. The bracket upper end ``ln(1/(1−λ)) + c + 2`` always suffices:
    already for c = 1 the solution is exactly ``ln(1/(1−λ))``.
    """
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1), got {lam}")
    if c < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {c}")
    if lam == 0.0:
        return 0.0
    low = lam
    high = math.log(1.0 / (1.0 - lam)) + c + 2.0
    for _ in range(200):
        mid = (low + high) / 2
        if accept_rate(mid, c) > lam:
            high = mid
        else:
            low = mid
        if high - low < tol:
            break
    return (low + high) / 2


@dataclass(frozen=True, slots=True)
class MeanFieldEquilibrium:
    """Mean-field equilibrium of CAPPED(c, λ).

    Attributes
    ----------
    c, lam:
        Parameters of the process.
    throw_intensity:
        Equilibrium ``ν*/n`` — expected thrown balls per bin per round.
    normalized_pool:
        Equilibrium pool size divided by n: ``ν*/n − λ``.
    load_distribution:
        Stationary start-of-round load distribution over 0..c.
    mean_load:
        Expected start-of-round bin load.
    mean_wait:
        Mean waiting time (age at deletion) predicted via Little's law:
        ``(pool + mean_load·n)/(λn)``. A ball with waiting time ``w``
        appears in exactly ``w`` end-of-round system snapshots (a ball
        served in its arrival round appears in none), so the time-average
        system size equals ``λn·E[wait]`` with no off-by-one.
    """

    c: int
    lam: float
    throw_intensity: float
    normalized_pool: float
    load_distribution: np.ndarray
    mean_load: float
    mean_wait: float

    def pool_size(self, n: int) -> int:
        """Equilibrium pool size for a concrete n (for warm starts)."""
        return max(0, int(round(self.normalized_pool * n)))


def mixture_equilibrium_pool(
    capacity_shares: dict[int, float],
    lam: float,
    tol: float = 1e-10,
) -> float:
    """Equilibrium normalized pool for *heterogeneous* bin capacities.

    Bins decouple in the fluid limit even when their capacities differ: a
    fraction ``share_k`` of bins with capacity ``c_k`` contributes
    ``share_k · accept_rate(ν/n, c_k)`` to the per-bin accept rate, and
    equilibrium requires the mixture rate to equal λ. Used by the
    ``heterogeneous_capacity`` experiment to predict which capacity
    layout of a fixed total budget minimises the pool.

    Parameters
    ----------
    capacity_shares:
        Mapping ``{capacity: fraction of bins}``; fractions must sum to 1.
    lam:
        Injection rate.

    Returns
    -------
    float
        Equilibrium pool size divided by n (``ν*/n − λ``).
    """
    if not capacity_shares:
        raise ConfigurationError("need at least one capacity class")
    total_share = sum(capacity_shares.values())
    if abs(total_share - 1.0) > 1e-9:
        raise ConfigurationError(f"shares must sum to 1, got {total_share}")
    if any(c < 1 for c in capacity_shares):
        raise ConfigurationError("capacities must be at least 1")
    if any(share < 0 for share in capacity_shares.values()):
        raise ConfigurationError("shares must be non-negative")
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1), got {lam}")
    if lam == 0.0:
        return 0.0

    def mixture_rate(intensity: float) -> float:
        return sum(
            share * accept_rate(intensity, c) for c, share in capacity_shares.items() if share > 0
        )

    low = lam
    high = math.log(1.0 / (1.0 - lam)) + max(capacity_shares) + 2.0
    for _ in range(200):
        mid = (low + high) / 2
        if mixture_rate(mid) > lam:
            high = mid
        else:
            low = mid
        if high - low < tol:
            break
    return max(0.0, (low + high) / 2 - lam)


def equilibrium(c: int, lam: float) -> MeanFieldEquilibrium:
    """Compute the full mean-field equilibrium for CAPPED(c, λ).

    Solved once per process for each ``(int(c), float(lam))``: a sweep
    asks for the same few dozen cells in every warm start and theory
    column. Repeated calls return the same object, so its
    ``load_distribution`` is read-only.
    """
    return _solve_equilibrium(int(c), float(lam))


@functools.lru_cache(maxsize=None)
def _solve_equilibrium(c: int, lam: float) -> MeanFieldEquilibrium:
    intensity = equilibrium_throw_intensity(c, lam)
    dist = stationary_loads(intensity, c)
    dist.setflags(write=False)
    mean_load = float(np.arange(c + 1) @ dist)
    normalized_pool = max(0.0, intensity - lam)
    # Little's law: time-average balls in system / throughput. A ball of
    # waiting time w is present in exactly w end-of-round snapshots, so
    # E[system]/λ gives the mean waiting time directly.
    mean_wait = (normalized_pool + mean_load) / lam if lam > 0 else 0.0
    return MeanFieldEquilibrium(
        c=c,
        lam=lam,
        throw_intensity=intensity,
        normalized_pool=normalized_pool,
        load_distribution=dist,
        mean_load=mean_load,
        mean_wait=mean_wait,
    )
