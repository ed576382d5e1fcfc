"""The analysis kernels' former per-night loops, kept as the reference for the range readers.

``series_diagnostics`` and ``_survival_points`` used to call a checked
accessor (``very_old_level``, ``r_at`` or ``GameInstance.cell``) on every
night, each call repeating the instance's range and validity checks. The
kernels now read ``GameInstance.terms`` and ``cells``, checked once per
range, and ``cell`` is gone; ``ref_cell`` keeps it. These loops are what the
tests check the streams and the streamed kernels against, as the count
cascade was kept for the cell ledger. Their checks are the former ones
(``tests/per_night_checks.py``), except that ``ref_cell`` reads a night through
the instance's own per-night check, and both kernels read their horizon through
``check_horizon``, so that the streams and the kernels can be held to their
messages, past the horizon too. ``ref_series_diagnostics`` raises a float past
the float range as the package words it: a term by its night, else the sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate

from robinhood import (
    MODE_EXACT,
    MODE_PAPER,
    SPACE_LOG,
    SPACE_RATIONAL,
    FunctionSpec,
    GameInstance,
    IndexBeyondHorizon,
    LimitExceeded,
    RestrictionViolated,
    SeriesDiagnostics,
    SpecInvalid,
)
from robinhood.analysis import RunningSum

from .per_night_checks import ref_require_playable, ref_require_valid


@lru_cache(maxsize=256)
def ref_prefix_sums(fs: FunctionSpec, n: int) -> list[int]:
    """F(0..n) with F(i) = fs(1) + ... + fs(i), read from the spec by ``value_at``."""
    return list(accumulate((fs.value_at(j) for j in range(1, n + 1)), initial=0))


def ref_clamped_b(inst: GameInstance, i: int) -> int:
    """min(max(b(i), 0), i), read from the spec by ``value_at``."""
    return min(max(inst.spec.b_spec.value_at(i), 0), i)


def ref_cell(inst: GameInstance, d: int, i: int) -> tuple[int, int]:
    """The former per-night ``GameInstance.cell``: its day check, the night's read check, then
    the prefix sums, computed from the spec so that they do not depend on how the instance stores them."""
    if not 1 <= d <= i:
        raise IndexBeyondHorizon(f"cell of day {d} on night {i} outside 1 <= d <= i <= {inst.horizon_cap}")
    inst.require_playable(i, i)
    spec, cap = inst.spec, inst.horizon_cap
    sum_s, sum_r = ref_prefix_sums(spec.s_spec, cap), ref_prefix_sums(spec.r_spec, cap)
    before, after = sum_r[i - 1], sum_r[i]
    cutoff = i - ref_clamped_b(inst, i)

    def left(removed: int) -> int:
        return max(0, sum_s[d] - max(sum_s[d - 1], removed))

    if d <= cutoff:
        count = max(0, sum_s[cutoff] - before)
        return count, min(after - before, count)
    return left(before), left(before) - left(after)


def ref_survival_points(inst: GameInstance, d: int, horizon: int, mode: str, space: str):
    """(N, value, log_value) for N = d-1..horizon, one checked call per night."""
    if d < 1:
        raise SpecInvalid(f"day must be >= 1, got {d}")
    if horizon < d - 1:
        raise SpecInvalid(f"horizon must be >= day - 1, got horizon={horizon} day={d}")
    if mode not in (MODE_PAPER, MODE_EXACT):
        raise SpecInvalid(f"unknown survival mode {mode!r}")
    if space not in (SPACE_RATIONAL, SPACE_LOG):
        raise SpecInvalid(f"unknown probability space {space!r}")
    if horizon < d:
        yield horizon, Fraction(1) if space == SPACE_RATIONAL else 1.0, 0.0 if space == SPACE_LOG else None
        return
    inst.check_horizon(horizon)

    if mode == MODE_PAPER:
        i = inst.restriction2_violations.first(d, horizon)
        if i is not None:
            raise RestrictionViolated(
                f"Ltilde({i}) <= r({i}): the product form needs a strictly larger very-old pool"
            )
        ref_require_valid(inst, horizon)

        def cell(i: int) -> tuple[int, int]:
            return inst.very_old_level(i), inst.r_at(i)
    else:
        ref_require_playable(inst, horizon)
        cell = partial(ref_cell, inst, d)

    if space == SPACE_RATIONAL:
        acc = Fraction(1)
        yield d - 1, acc, None
        for i in range(d, horizon + 1):
            count, take = cell(i)
            if take:
                acc *= Fraction(count - take, count)
            yield i, acc, None
        return

    log_sum = RunningSum()
    yield d - 1, 1.0, log_sum.value
    for i in range(d, horizon + 1):
        count, take = cell(i)
        if take:
            if take == count:
                log_sum.add(-math.inf)
            elif 2 * take <= count:
                log_sum.add(math.log1p(-(take / count)))
            else:
                log_sum.add(math.log(count - take) - math.log(count))
        yield i, math.exp(log_sum.value), log_sum.value


def ref_series_diagnostics(inst: GameInstance, horizon: int) -> SeriesDiagnostics:
    """Partial sum, last term and decay slope, one checked call per night."""
    inst.check_horizon(horizon)
    floats: list[float] = []
    points: list[tuple[int, float]] = []
    last: tuple[int, int] | None = None
    first_undefined: int | None = None
    for i in range(1, horizon + 1):
        ltilde = inst.very_old_level(i)
        if ltilde == 0:
            if first_undefined is None:
                first_undefined = i
            continue
        r = inst.r_at(i)
        last = (r, ltilde)
        try:
            value = r / ltilde
        except OverflowError:
            raise LimitExceeded(f"term r({i})/Ltilde({i}) of night {i} exceeds the float range") from None
        floats.append(value)
        if value > 0.0:
            points.append((i, value))

    low = max(2, horizon // 10)
    window = [(math.log(i), math.log(v)) for i, v in points if i >= low]
    if len(window) > 64:
        window = window[:: len(window) // 64 + 1]
    slope: float | None = None
    if len(window) >= 2 and window[0][0] != window[-1][0]:
        xbar = math.fsum(x for x, _ in window) / len(window)
        ybar = math.fsum(y for _, y in window) / len(window)
        sxx = math.fsum((x - xbar) ** 2 for x, _ in window)
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in window)
        if sxx > 0.0:
            slope = sxy / sxx

    try:
        partial_sum = math.fsum(floats)
    except OverflowError:
        raise LimitExceeded(f"partial sum of the terms through night {horizon} exceeds the float range") from None
    return SeriesDiagnostics(
        horizon=horizon,
        partial_sum=partial_sum,
        last_term=Fraction(*last) if last is not None else None,
        term_decay_exponent_estimate=slope,
        first_undefined_index=first_undefined,
    )
