"""Vectorised round kernels shared by the fast simulators.

:mod:`repro.kernels.round`
    Two whole-round CAPPED kernels that resolve acceptance for all age
    buckets *and* the FIFO deletion in one call: the serial kernel, which
    clips evolving loads against a per-bin ceiling and reads everything
    else off the load histogram, and the unit-take kernel for the c = 1
    steady state. Both return a ``SerialRound``, installed by
    ``BinArray.commit_round``.

See ``docs/kernels.md`` for the acceptance argument and the RNG stream
contract that make the kernels *exactly* (not just distributionally)
equivalent to the per-bucket reference sweep in ``tests/oracles.py``.
"""

from repro.kernels.round import SerialRound, resolve_capped_round, resolve_capped_round_serial

__all__ = ["SerialRound", "resolve_capped_round", "resolve_capped_round_serial"]
