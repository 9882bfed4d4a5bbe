"""Vectorised round kernels shared by the fast simulators.

:mod:`repro.kernels.round`
    The fused single-pass CAPPED acceptance kernel: one composite
    ``bincount`` into a (key, age-bucket) request matrix plus a cumulative
    clip replaces the legacy per-age-bucket ``bincount`` + ``free_slots``
    + ``accept`` sweep — O(#thrown + n·#ages) element work with no
    per-ball sorting and no Python loop over buckets — and the
    whole-round serial kernel that fuses acceptance with the FIFO
    deletion for finite capacities.

See ``docs/kernels.md`` for the cumulative-clip acceptance argument and
the RNG stream contract that make the fused paths *exactly* (not just
distributionally) equivalent to the legacy per-bucket path.
"""

from repro.kernels.round import (
    ResolvedRound,
    SerialRound,
    positional_waits,
    resolve_capped_round,
    resolve_capped_round_serial,
    wait_histogram,
)

__all__ = [
    "ResolvedRound",
    "SerialRound",
    "positional_waits",
    "resolve_capped_round",
    "resolve_capped_round_serial",
    "wait_histogram",
]
