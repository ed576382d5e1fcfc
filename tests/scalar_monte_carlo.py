"""The vectorized Monte Carlo branch's law, one scalar draw at a time.

With no window dip on nights 1..nights, ``empirical_survival`` under
``oldest-rnd`` gives trial t's day-d bag the 53-bit uniform
u = (word(stream_key(seed, t, i), 0) >> 11) * 2**-53 on night i, and the bag
survives iff u >= take/count on every night with take > 0 in
``cells(d, d, nights)``. The engine draws a block of nights for all live
trials in one numpy call; this loop draws one (trial, night) at a time with
the scalar generator and stops at a trial's first death, so the two share
only the stream keys' definition and the ledger.
"""

from __future__ import annotations

import math

from robinhood import GameInstance
from robinhood.rng import stream_key, word


def ref_u01_survival(inst: GameInstance, d: int, nights: int, trials: int, seed: int) -> tuple[float, float, int]:
    """(estimate, stderr, trials) as ``empirical_survival`` returns them, trial by trial."""
    if nights < d:
        return (1.0, 0.0, trials)
    bars = [(i, take / count) for i, (count, take) in enumerate(inst.cells(d, d, nights), d) if take]
    survivors = sum(
        all((word(stream_key(seed, t, i), 0) >> 11) * 2.0**-53 >= bar for i, bar in bars) for t in range(trials)
    )
    estimate = survivors / trials
    return (estimate, math.sqrt(estimate * (1.0 - estimate) / trials), trials)
