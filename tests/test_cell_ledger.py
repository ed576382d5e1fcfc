"""The closed-form cell ledger against the engine's count cascade.

``GameInstance.cell`` reads a bag's cell from the prefix sums; the engine
(``step_day`` / ``select_removals``) walks the partition night by night.
Exact survival and the Monte Carlo estimate are built on the ledger, so
both are checked here against what the engine does: the product of its
per-night counts, and a per-trial ``run_trace`` reference (the loop
``empirical_survival`` ran before the ledger existed).
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from robinhood import (
    MODE_EXACT,
    CaveState,
    FunctionSpec,
    GameInstance,
    RobinHoodError,
    ScheduleSpec,
    StrategyKind,
    apply_removals,
    empirical_survival,
    run_trace,
    select_removals,
    step_day,
    survival_curve,
)

DET = StrategyKind.OLDEST_DET
RND = StrategyKind.OLDEST_RND


@st.composite
def dip_instances(draw) -> GameInstance:
    """Restriction-1 schedules whose removals often reach into the memory
    window, optionally with one memory break or one invalid day."""
    cap = draw(st.integers(1, 30))
    s = draw(st.lists(st.integers(2, 9), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    b = [0]
    for _ in range(cap - 1):
        # A memory that grows by one a night keeps the cutoff fixed and
        # drains the very-old pool: the nights after are window dips.
        b.append(max(0, b[-1] + draw(st.sampled_from([1, 1, 1, 0, -1, -3]))))
    fault = draw(st.sampled_from([None, None, None, "break", "invalid"]))
    at = draw(st.integers(2, max(2, cap)))
    if fault == "break" and at <= cap:
        b[at - 1] = b[at - 2] + 2
    if fault == "invalid" and at <= cap:
        r[at - 1] = s[at - 1]
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(0)),
    )
    return GameInstance(spec, horizon_cap=cap)


def _outcome(fn, *args, **kwargs):
    """A call's value, or the class of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except RobinHoodError as exc:
        return type(exc)


def engine_cells(inst: GameInstance) -> tuple[dict[tuple[int, int], tuple[int, int]], int, type | None]:
    """(count, take) of every (day, night) cell from the engine's cascade,
    the last night it plays, and the error class that stops it there."""
    state = CaveState()
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, inst.horizon_cap + 1):
        try:
            step_day(state, inst, i)
        except RobinHoodError as exc:
            return cells, i - 1, type(exc)
        plan = select_removals(state, inst, i, DET)
        window = dict(state.window_counts())
        takes = dict(plan.window_takes)
        for d in range(1, i + 1):
            if d <= state.merge_cutoff:
                cells[d, i] = (state.very_old_count, plan.very_old_take)
            else:
                cells[d, i] = (window[d], takes.get(d, 0))
        apply_removals(state, plan)
    return cells, inst.horizon_cap, None


@settings(max_examples=300, deadline=None)
@given(dip_instances())
def test_cell_matches_the_engine_cascade(inst: GameInstance) -> None:
    cells, played, error = engine_cells(inst)
    for (d, i), counts in cells.items():
        assert inst.cell(d, i) == counts
    if error is not None:
        # Past the last playable night the ledger refuses as the engine does.
        for d in range(1, played + 2):
            assert _outcome(inst.cell, d, played + 1) is error


@settings(max_examples=300, deadline=None)
@given(dip_instances())
def test_exact_survival_is_the_product_of_the_engine_counts(inst: GameInstance) -> None:
    cells, played, error = engine_cells(inst)
    for d in range(1, played + 1):
        rational = survival_curve(inst, d, played, mode=MODE_EXACT)
        log = survival_curve(inst, d, played, mode=MODE_EXACT, space="log")
        acc = Fraction(1)
        for i in range(d, played + 1):
            count, take = cells[d, i]
            if take:
                acc *= Fraction(count - take, count)
            assert rational[i - d + 1].value == acc
            value, log_value = log[i - d + 1].value, log[i - d + 1].log_value
            assert math.isclose(value, float(acc), rel_tol=1e-12)
            assert (log_value == -math.inf) == (acc == 0)
        if error is not None:
            assert _outcome(survival_curve, inst, d, played + 1, mode=MODE_EXACT) is error


def ref_empirical(inst: GameInstance, d: int, nights: int, trials: int, seed: int, strategy) -> tuple:
    """One full ``run_trace`` per trial, tagging the first bag of day d."""
    if nights < d:
        return (1.0, 0.0, trials)
    survivors = 0
    for t in range(trials):
        trace = run_trace(inst, strategy, nights, seed, tagged_days=[(d, 1)], trial_index=t)
        survivors += trace.tagged[0].in_cave
    estimate = survivors / trials
    return (estimate, math.sqrt(estimate * (1.0 - estimate) / trials), trials)


@settings(max_examples=300, deadline=None)
@given(dip_instances(), st.data())
def test_monte_carlo_matches_a_per_trial_engine_reference(inst: GameInstance, data) -> None:
    cap = inst.horizon_cap
    d = data.draw(st.integers(1, cap))
    nights = data.draw(st.integers(d - 1, cap))
    trials = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**64 - 1))
    strategy = data.draw(st.sampled_from([DET, RND]))
    got = _outcome(empirical_survival, inst, d, nights, trials, seed, strategy)
    want = _outcome(ref_empirical, inst, d, nights, trials, seed, strategy)
    dip = any(inst.very_old_level(i) < inst.r_at(i) for i in range(1, inst.valid_end(nights) + 1))
    if isinstance(want, tuple) and strategy is RND and not dip and nights >= d:
        # The vectorized path draws a 53-bit uniform, not the engine's
        # below(); its agreement is statistical (tests/test_engine.py).
        assert isinstance(got, tuple)
    else:
        assert got == want
