"""Arrival (ball-generation) models.

The paper's main model generates exactly ``λn`` balls per round and requires
``λn ∈ ℕ``. Footnote 2 notes the results carry over to probabilistic
generation with expected rate λ; related work uses binomial
(Berenbrink et al., SPAA'00) and Poisson (Mitzenmacher) arrivals. This
subpackage provides all of those plus bursty, diurnal and scripted
adversarial injectors for robustness experiments.
"""

from repro.workloads.arrivals import (
    AdversarialArrivals,
    ArrivalProcess,
    BernoulliArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "BernoulliArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "AdversarialArrivals",
]
