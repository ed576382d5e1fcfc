"""Reference values computed without the package, for the output checks.

Schedules are plain JSON objects (the package's schedule format); this
module evaluates them itself, so a check never trusts the code it checks.

``ledger_factors`` replays the deterministic cell counts of the oldest-first
cascade. Removal inside a cell is a uniform subset, so a bag still in a
cell of ``count`` bags from which ``take`` leave on a night survives that
night with probability ``1 - take/count`` whatever happened before. Its
survival under the randomized strategy is the product of those factors
over the nights that touch its cell, for any schedule, window dips
included; with memory 0 the factors are the paper's ``1 - r(i)/Ltilde(i)``.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Any


def value_at(fs: dict[str, Any], i: int) -> int:
    """Raw value of a constant/affine/table function spec at day i."""
    kind = fs["kind"]
    if kind == "constant":
        return fs["value"]
    if kind == "affine":
        return fs["a"] * i + fs["c"]
    if kind == "table":
        values = fs["values"]
        return values[i - 1] if i <= len(values) else value_at(fs["tail"], i)
    raise ValueError(f"oracle does not evaluate {kind!r} specs")


def ledger_factors(sched: dict[str, Any], d: int, nights: int) -> list[tuple[int, int]]:
    """(take, count) of the day-d bag's cell on each night in [d, nights] it is touched."""
    very_old = 0
    cells: deque[list[int]] = deque()  # [arrival day, count], oldest first
    where: int | None = None  # None = very-old pool, else arrival day d
    factors: list[tuple[int, int]] = []
    for i in range(1, nights + 1):
        cells.append([i, value_at(sched["s"], i)])
        cutoff = i - min(value_at(sched["b"], i), i)
        while cells and cells[0][0] <= cutoff:
            day, count = cells.popleft()
            very_old += count
        quota = value_at(sched["r"], i)
        tracked = i >= d and all(day != d for day, _ in cells)
        if quota < very_old:
            if tracked:
                factors.append((quota, very_old))
            very_old -= quota
            continue
        if tracked:
            factors.append((very_old, very_old))
        quota -= very_old
        very_old = 0
        for cell in cells:
            if quota == 0:
                break
            take = min(quota, cell[1])
            if i >= d and cell[0] == d:
                factors.append((take, cell[1]))
            cell[1] -= take
            quota -= take
    return factors


def survival_exact(sched: dict[str, Any], d: int, nights: int) -> Fraction:
    """Exact survival of the first day-d bag through ``nights`` (randomized strategy)."""
    acc = Fraction(1)
    for take, count in ledger_factors(sched, d, nights):
        if take == count:
            return Fraction(0)
        if take:
            acc *= Fraction(count - take, count)
    return acc


def survival_float(sched: dict[str, Any], d: int, nights: int) -> float:
    """The same survival in floating point, via an exactly rounded sum of logs."""
    logs = []
    for take, count in ledger_factors(sched, d, nights):
        if take == count:
            return 0.0
        if take:
            logs.append(math.log1p(-take / count))
    return math.exp(math.fsum(logs))


def mc_agrees(estimate: float, p0: float, trials: int, alpha: float) -> bool:
    """Whether a Monte Carlo estimate is consistent with the exact value p0.

    The deviation is measured in null-hypothesis standard errors,
    z = (x - n p0) / sqrt(n p0 (1 - p0)) for x survivors of n trials, which
    stays finite when no trial survives. The check fails when the exact
    Binomial(n, p0) probability of a |z| at least as large is below
    ``alpha``, so its false-failure rate is at most ``alpha`` for every
    p0 and n; a fixed |z| cut-off is not, because for n p0 near 0.04 a
    single survivor already sits five standard errors out.
    """
    x = round(estimate * trials)
    dev = abs(x - trials * p0)
    if p0 <= 0.0 or p0 >= 1.0:
        return dev == 0
    log_p, log_q = math.log(p0), math.log1p(-p0)
    base = math.lgamma(trials + 1)
    tail = 0.0
    for k in range(trials + 1):
        if abs(k - trials * p0) >= dev * (1 - 1e-12):
            tail += math.exp(base - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                             + k * log_p + (trials - k) * log_q)
    return tail >= alpha
