"""Drive a bare :class:`~repro.balls.bin_array.BinArray` through the round API.

:func:`run_round` is one simulator round as ``CappedProcess`` plays it:
``serial_round_limit`` gives the ceiling, ``resolve_capped_round_serial``
resolves acceptance and the FIFO deletion, ``commit_round`` installs the
outcome. :func:`fill` sets exact loads, as a checkpoint restore would.
"""

import numpy as np

from repro.kernels.round import resolve_capped_round_serial


def run_round(bins, requests):
    """Ask bin ``i`` to take ``requests[i]`` balls, all of age 0, for one round.

    Returns the committed ``SerialRound``. A single age bucket makes the
    wait histogram the accepted balls' queue positions.
    """
    keys = np.repeat(np.arange(bins.n), np.asarray(requests, dtype=np.int64))
    limit, hist_size = bins.serial_round_limit(keys)
    resolved = resolve_capped_round_serial(
        bins.loads,
        limit,
        keys,
        [keys.size],
        [0],
        hist_size,
        initial_hist=bins.cached_load_hist(hist_size),
        frozen=bins.frozen,
    )
    bins.commit_round(resolved)
    return resolved


def fill(bins, loads):
    """Set the bins' loads exactly.

    A round ends with the FIFO deletion, so :func:`run_round` never leaves
    an up bin full; tests that need one restore it instead.
    """
    state = bins.get_state()
    state["loads"] = list(loads)
    state["peak_load"] = max(state["peak_load"], *loads)
    bins.set_state(state)
