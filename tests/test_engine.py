"""Cave simulation: stepping, selection law, traces, and Monte Carlo."""

from __future__ import annotations

import dataclasses
import json
import math
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinhood import (
    CaveState,
    FunctionSpec,
    GameInstance,
    IndexBeyondHorizon,
    RestrictionViolated,
    ScheduleSpec,
    SpecInvalid,
    StrategyKind,
    apply_removals,
    empirical_survival,
    engine,
    rng,
    run_trace,
    select_removals,
    separating_instance,
    step_day,
    survival_probability,
)
from robinhood.engine import VERY_OLD_KEY, _choose_uniform_subset, hypergeom_weights, sample_hypergeom
from robinhood.rng import CounterRNG, stream_key, word
from robinhood.schedule import canonical_dumps, decimal_str

from .conftest import make_instance
from .count_cascade import CountCascade
from .dict_record_engine import ref_trace_text

DET = StrategyKind.OLDEST_DET
RND = StrategyKind.OLDEST_RND


def advance(state, instance, i, strategy=DET, rng=None):
    step_day(state, instance, i)
    plan = select_removals(state, instance, i, strategy, rng)
    apply_removals(state, plan)
    return plan


def night_rng(seed, i, trial=0):
    return CounterRNG(stream_key(seed, trial, i))


# ---------------------------------------------------------------- stepping


def test_step_day_accumulates_and_merges(memoryless_121) -> None:
    state, ref = CaveState(), CountCascade(memoryless_121)
    step_day(state, memoryless_121, 1)
    ref.step_day(1)
    # b = 0: the day's own batch immediately becomes very old.
    assert ref.cave_size == 2
    assert ref.very_old_count == 2
    assert ref.window_counts() == []
    assert ref.merge_cutoff == 1 - memoryless_121.b_at(1) == 1
    assert state.day == 1 and state.in_cave == []
    assert memoryless_121.night_cuts(1) == ref.cuts(1) == [(VERY_OLD_KEY, 2, 1)]


def test_step_day_keeps_window_cells_under_positive_memory() -> None:
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    inst = make_instance(1, 3, b_spec, horizon_cap=10)
    state, ref = CaveState(), CountCascade(inst)
    step_day(state, inst, 1)
    ref.step_day(1)
    assert ref.very_old_count == 3 and ref.window_counts() == []
    plan = select_removals(state, inst, 1, DET)
    assert plan.cells == [(VERY_OLD_KEY, 1)]
    apply_removals(state, plan)
    ref.remove(ref.cuts(1))
    step_day(state, inst, 2)
    ref.step_day(2)
    # b(2) = 1: day 2 stays in the window, day 1 leftovers are already old.
    assert ref.window_counts() == [(2, 3)]
    assert ref.very_old_count == 2
    assert ref.merge_cutoff == 2 - inst.b_at(2) == 1
    assert list(inst.cells(2, 2, 2)) == [(3, 0)] and list(inst.cells(1, 2, 2)) == [(2, 1)]
    assert inst.night_cuts(2) == ref.cuts(2) == [(VERY_OLD_KEY, 2, 1)]


def test_step_day_rejects_out_of_sequence_calls(memoryless_121) -> None:
    state = CaveState()
    step_day(state, memoryless_121, 1)
    with pytest.raises(SpecInvalid):
        step_day(state, memoryless_121, 3)


def test_step_day_rejects_memory_jump() -> None:
    b_spec = FunctionSpec.table([0, 2], FunctionSpec.constant(2))
    inst = make_instance(1, 9, b_spec, horizon_cap=10)
    state = CaveState()
    advance(state, inst, 1)
    with pytest.raises(RestrictionViolated):
        step_day(state, inst, 2)


@st.composite
def memory_jumps(draw):
    """Valid schedules whose memory bound may grow by more than one a night,
    a tag on the first bag of every day, and a strategy."""
    cap = draw(st.integers(1, 20))
    s = draw(st.lists(st.integers(2, 6), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    b = draw(st.lists(st.integers(0, 6), min_size=cap, max_size=cap))
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(0)),
    )
    return GameInstance(spec, horizon_cap=cap), draw(st.sampled_from([DET, RND]))


@settings(max_examples=200, deadline=None)
@given(memory_jumps())
def test_step_day_refuses_the_night_the_cascade_refuses(run) -> None:
    inst, strategy = run
    ref = CountCascade(inst)
    for _, cuts in ref.play(inst.horizon_cap):
        ref.remove(cuts)
    state = CaveState(pending_tags={d: [1] for d in range(1, inst.horizon_cap + 1)})
    for i in range(1, ref.night + 1):
        advance(state, inst, i, strategy, night_rng(9, i) if strategy is RND else None)
    if ref.error is None:
        assert ref.night == inst.horizon_cap
    else:
        assert ref.error is RestrictionViolated
        with pytest.raises(RestrictionViolated):
            step_day(state, inst, ref.night + 1)


def test_step_day_past_horizon_is_exhausted() -> None:
    inst = make_instance(1, 2, 0, horizon_cap=2)
    state = CaveState()
    advance(state, inst, 1)
    advance(state, inst, 2)
    with pytest.raises(IndexBeyondHorizon, match=r"night 3 outside \[1, 2\] for this instance"):
        step_day(state, inst, 3)


def test_step_day_and_run_trace_name_the_same_bad_tag_position() -> None:
    # Positions 5 and 9 on a day of 3 bags: both name the smallest, 5.
    inst = make_instance(1, 3, 0, horizon_cap=5)
    with pytest.raises(SpecInvalid) as traced:
        run_trace(inst, RND, 3, 0, tagged_days=[(2, 9), (2, 5)])
    state = CaveState(pending_tags={2: [9, 5]})
    advance(state, inst, 1)
    with pytest.raises(SpecInvalid) as stepped:
        step_day(state, inst, 2)
    assert str(traced.value) == str(stepped.value) == "tag position 5 outside day 2's batch of size 3"


class _CountingInstance(GameInstance):
    """A GameInstance that counts its ``s_at`` calls."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.s_at_calls = 0

    def s_at(self, i: int) -> int:
        self.s_at_calls += 1
        return super().s_at(i)


@pytest.mark.parametrize("strategy", [DET, RND])
def test_an_untagged_night_reads_no_batch_size(strategy) -> None:
    # Only a tagged day has positions to check against s(d).
    spec = make_instance(1, 3, 2).spec
    untagged = _CountingInstance(spec, horizon_cap=50)
    run_trace(untagged, strategy, 50, 0)
    assert untagged.s_at_calls == 0
    tagged = _CountingInstance(spec, horizon_cap=50)
    run_trace(tagged, strategy, 50, 0, tagged_days=[(7, 3)])
    assert tagged.s_at_calls > 0


# ------------------------------------------------------------ conservation


def _pool_and_window(ref: CountCascade, instance) -> tuple[int, int]:
    """The very-old pool from the arrival and removal sums; the window from the cells."""
    arrived = sum(instance.s_at(j) for j in range(1, ref.merge_cutoff + 1))
    removed = sum(instance.r_at(j) for j in range(1, ref.night + 1))
    return max(0, arrived - removed), sum(count for _, count in ref.window_counts())


@pytest.mark.parametrize("strategy", [DET, RND])
def test_counts_conserved_across_nights(strategy) -> None:
    # The engine's plan takes night_cuts; the reference cascade's counts,
    # advanced by the same takes, stay equal to the level formulas.
    b_spec = FunctionSpec.table([0, 1, 2], FunctionSpec.constant(2))
    inst = make_instance(2, FunctionSpec.affine(1, 3), b_spec, horizon_cap=30)
    state = CaveState()
    ref = CountCascade(inst)
    for i, cuts in ref.play(30):
        rng = night_rng(17, i) if strategy is RND else None
        plan = advance(state, inst, i, strategy, rng)
        assert plan.cells == [(key, take) for key, _, take in cuts]
        assert ref.merge_cutoff == i - inst.b_at(i)
        ref.remove(cuts)
        pool, window = _pool_and_window(ref, inst)
        assert pool == ref.very_old_count
        assert ref.very_old_count + window == ref.cave_size
        assert ref.cave_size == inst.cave_level(i)
    assert ref.night == state.night == 30


@pytest.mark.parametrize("strategy", [DET, RND])
def test_very_old_count_equals_level_formula(strategy) -> None:
    """The state's pool size must reproduce Ltilde(i) night after night.

    Holds for any schedule satisfying restriction 1, including nights where
    removals dip into the memory window: oldest-first removal always
    exhausts arrival days in order, which is what the formula's clamp at
    zero encodes.
    """
    cases = [
        make_instance(1, 2, 0, horizon_cap=50),
        make_instance(2, 3, FunctionSpec.table([0], FunctionSpec.constant(1)), horizon_cap=50),
        make_instance(1, 2, FunctionSpec.affine(1, -1), horizon_cap=50),
        make_instance(3, 5, FunctionSpec.table([0, 1, 2, 3], FunctionSpec.constant(3)), horizon_cap=50),
    ]
    for inst in cases:
        state = CaveState()
        ref = CountCascade(inst)
        for i, cuts in ref.play(50):
            step_day(state, inst, i)
            assert ref.very_old_count == inst.very_old_level(i)
            pool = [count for key, count, _ in inst.night_cuts(i) if key == VERY_OLD_KEY]
            assert pool == ([inst.very_old_level(i)] if inst.very_old_level(i) else [])
            rng = night_rng(23, i) if strategy is RND else None
            plan = select_removals(state, inst, i, strategy, rng)
            assert plan.cells == [(key, take) for key, _, take in cuts]
            apply_removals(state, plan)
            ref.remove(cuts)
        assert ref.night == 50


# -------------------------------------------------------------- selection


def test_partial_very_old_det_takes_front_positions() -> None:
    # b = 0, s = 3: night 1 takes bag (1, 1), so on night 2 the pool holds
    # day 1 positions 2..3 and day 2 positions 1..3. Quota 2 -> day-1
    # positions 2, 3 leave; tagged (1, 2) goes, (2, 1) stays.
    inst = make_instance(FunctionSpec.table([1], FunctionSpec.constant(2)), 3, 0, horizon_cap=5)
    state = CaveState(pending_tags={1: [2], 2: [1]})
    ref = CountCascade(inst)
    advance(state, inst, 1)
    ref.step_day(1)
    ref.remove(ref.cuts(1))
    step_day(state, inst, 2)
    ref.step_day(2)
    cuts = ref.cuts(2)
    assert ref.very_old_count == 5
    assert inst.night_cuts(2) == cuts == [(VERY_OLD_KEY, 5, 2)]
    plan = select_removals(state, inst, 2, DET)
    assert plan.cells == [(VERY_OLD_KEY, 2)]
    assert plan.removed_tagged == [1]
    apply_removals(state, plan)
    ref.remove(cuts)
    assert ref.very_old_count == 3
    assert state.tagged[0].removed_night == 2
    assert state.tagged[1].in_cave


def test_cascade_spans_whole_cells_then_boundary() -> None:
    # At night 4 the pool holds 1 leftover bag and the window holds day 3
    # (4 bags) and day 4 (8 bags). Quota 7 = 1 + 4 + 2: full pool, full
    # day-3 cell, then 2 of day 4 (deterministic -> front positions).
    r_spec = FunctionSpec.generated([1, 1, 1, 7])
    s_spec = FunctionSpec.generated([2, 2, 4, 8])
    b_spec = FunctionSpec.generated([0, 0, 1, 2])
    inst = make_instance(r_spec, s_spec, b_spec, horizon_cap=4)
    state = CaveState()
    ref = CountCascade(inst)
    for i, cuts in ref.play(4):
        if i == 4:
            break
        advance(state, inst, i)
        ref.remove(cuts)
    assert ref.very_old_count == 1  # 2 + 2 arrivals minus 3 removals
    assert ref.window_counts() == [(3, 4), (4, 8)]  # b(4) = 2 keeps day 3 inside the window
    assert inst.night_cuts(4) == cuts == [(VERY_OLD_KEY, 1, 1), (3, 4, 4), (4, 8, 2)]
    step_day(state, inst, 4)
    plan = select_removals(state, inst, 4, DET)
    assert plan.cells == [(VERY_OLD_KEY, 1), (3, 4), (4, 2)]
    apply_removals(state, plan)
    ref.remove(cuts)
    assert ref.cave_size == inst.cave_level(4) == 6
    assert ref.window_counts() == [(3, 0), (4, 6)]


def test_cascade_boundary_with_zero_remainder_is_dropped() -> None:
    # Quota exactly consumes the pool plus the first cell: no zero-count
    # entry for the next cell may appear in the plan.
    r_spec = FunctionSpec.generated([1, 1, 1, 5])
    s_spec = FunctionSpec.generated([2, 2, 4, 6])
    b_spec = FunctionSpec.generated([0, 0, 1, 2])
    inst = make_instance(r_spec, s_spec, b_spec, horizon_cap=4)
    state = CaveState()
    ref = CountCascade(inst)
    for i, cuts in ref.play(4):
        plan = advance(state, inst, i)
        ref.remove(cuts)
    assert inst.night_cuts(4) == cuts == [(VERY_OLD_KEY, 1, 1), (3, 4, 4)]
    assert plan.cells == [(0, 1), (3, 4)]


def test_select_rejects_a_night_not_stepped() -> None:
    # Day 1's batch has not arrived: night 1 cannot be planned or applied.
    inst = make_instance(4, 5, 0, horizon_cap=3)
    state = CaveState()
    with pytest.raises(SpecInvalid, match="select_removals for night 1"):
        select_removals(state, inst, 1, DET)
    step_day(state, inst, 1)
    plan = select_removals(state, inst, 1, DET)
    with pytest.raises(SpecInvalid, match="step_day for day 1"):
        step_day(state, inst, 1)  # the same day twice
    apply_removals(state, plan)
    with pytest.raises(SpecInvalid, match="select_removals for night 2"):
        select_removals(state, inst, 2, DET)
    with pytest.raises(SpecInvalid, match="plan for night 2"):
        apply_removals(state, dataclasses.replace(plan, night=2))


def test_randomized_strategy_requires_rng(memoryless_121) -> None:
    state = CaveState()
    step_day(state, memoryless_121, 1)
    with pytest.raises(SpecInvalid):
        select_removals(state, memoryless_121, 1, RND, None)


def test_apply_rejects_foreign_or_stale_plans(memoryless_121) -> None:
    state = CaveState()
    step_day(state, memoryless_121, 1)
    plan = select_removals(state, memoryless_121, 1, DET)
    apply_removals(state, plan)
    with pytest.raises(SpecInvalid):
        apply_removals(state, plan)  # same night twice


# ----------------------------------------------------------- hypergeometric


def brute_hypergeom_pmf(v: int, t: int, q: int) -> dict[int, Fraction]:
    """Enumerate all q-subsets of v positions, t of which are tagged."""
    population = list(range(v))
    tagged = set(range(t))
    counts: dict[int, int] = {}
    total = 0
    for subset in combinations(population, q):
        j = len(tagged.intersection(subset))
        counts[j] = counts.get(j, 0) + 1
        total += 1
    return {j: Fraction(c, total) for j, c in counts.items()}


def test_hypergeom_weights_match_exhaustive_enumeration() -> None:
    for v in range(1, 7):
        for t in range(0, v + 1):
            for q in range(0, v + 1):
                weights, total = hypergeom_weights(v, t, q)
                pmf = brute_hypergeom_pmf(v, t, q)
                for j, w in enumerate(weights):
                    assert Fraction(w, total) == pmf.get(j, Fraction(0))


def test_hypergeom_weights_handle_astronomical_populations() -> None:
    v = 10**40
    t = 3
    q = 10**39
    weights, total = hypergeom_weights(v, t, q)
    # P(j = 3) = (q/v)^3 up to O(1/v) corrections; sanity-check the scale.
    p3 = Fraction(weights[3], total)
    assert abs(float(p3) - 0.1**3) < 1e-6
    assert sum(weights) == total


def product_weights(v: int, t: int, q: int) -> list[int]:
    """The per-j product formula, one independent product per weight."""
    return [math.comb(t, j) * math.perm(q, j) * math.perm(v - q, t - j) for j in range(t + 1)]


@st.composite
def hypergeom_params(draw) -> tuple[int, int, int]:
    """(v, t, q) with leading zero weights (t > v - q), trailing zeros
    (q < t), whole and empty draws, up to 300 tags or 400-digit cells."""
    huge = draw(st.booleans())
    v = draw(st.integers(0, 10**400) if huge else st.integers(0, 10**4))
    t = draw(st.integers(0, min(v, 40 if huge else 300)))
    q = draw(st.one_of(
        st.sampled_from([0, v]),
        st.integers(0, v),
        st.integers(0, t),
        st.integers(0, t).map(lambda k: v - k),
    ))
    return v, t, q


@settings(max_examples=300, deadline=None)
@given(hypergeom_params())
def test_hypergeom_recurrence_equals_the_product_formula(params) -> None:
    v, t, q = params
    weights, total = hypergeom_weights(v, t, q)
    assert weights == product_weights(v, t, q)
    assert total == math.perm(v, t) == sum(weights)


def test_hypergeom_recurrence_at_300_tags_in_a_400_digit_cell() -> None:
    # The full product formula costs seconds here; check its value at the
    # ends of the support and in the middle, and the sum of all weights.
    v = 10**400 + 7
    for q in (v // 3, v - 150, 120):
        weights, total = hypergeom_weights(v, 300, q)
        j0, j1 = max(0, 300 - (v - q)), min(300, q)
        assert all(w == 0 for w in weights[:j0] + weights[j1 + 1:])
        for j in {j0, j0 + 1, (j0 + j1) // 2, j1}:
            assert weights[j] == math.comb(300, j) * math.perm(q, j) * math.perm(v - q, 300 - j)
        assert sum(weights) == total


def test_hypergeom_weights_make_a_bounded_number_of_big_products(monkeypatch) -> None:
    # The per-j product formula made 2t + 3 perm/comb calls (603 at t = 300).
    calls = Counter()
    for name in ("perm", "comb"):
        def counted(*args, _orig=getattr(math, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(math, name, counted)
    v = 10**400
    for q in (0, 7, v // 3, v - 150, v):
        calls.clear()
        hypergeom_weights(v, 300, q)
        assert sum(calls.values()) <= 4, (q, calls)


def test_sample_hypergeom_is_exact_for_forced_cases() -> None:
    rng = CounterRNG(0)
    assert sample_hypergeom(5, 0, 3, rng) == 0
    assert sample_hypergeom(5, 2, 0, rng) == 0
    assert sample_hypergeom(5, 2, 5, rng) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2**130), st.data(), st.integers(0, 2**64 - 1))
def test_a_lone_tag_draws_what_the_weights_give(v, data, key) -> None:
    # sample_hypergeom reads t = 1 without building the weights: the same
    # inverse-cdf walk on the same one below(total) draw.
    q = data.draw(st.integers(1, v - 1))
    weights, total = hypergeom_weights(v, 1, q)
    ref, rng = CounterRNG(key), CounterRNG(key)
    u = ref.below(total)
    assert sample_hypergeom(v, 1, q, rng) == (0 if u < weights[0] else 1)
    assert rng.counter == ref.counter


def full_weights_search(v: int, t: int, q: int, rng: CounterRNG) -> int:
    """The search sample_hypergeom made before it was lazy: every weight by the
    product formula, then one below(total) draw and the inverse cdf over them all."""
    if t == 0 or q == 0:
        return 0
    if q == v:
        return t
    if t == 1:
        return int(rng.below(v) >= v - q)
    u, acc = rng.below(math.perm(v, t)), 0
    for j, w in enumerate(product_weights(v, t, q)):
        acc += w
        if u < acc:
            return j
    raise AssertionError("the weights do not sum to perm(v, t)")


@settings(max_examples=300, deadline=None)
@given(hypergeom_params(), st.integers(0, 2**64 - 1))
@example((10, 8, 5), 3)  # j0 = 3 > 0: t > v - q
@example((10, 4, 10), 3)  # q = v
@example((10, 0, 4), 3)  # t = 0
@example((10, 1, 4), 3)  # t = 1
@example((10**400 + 7, 40, 10**400 // 3), 3)  # a 400-digit cell
@example((10**400 + 7, 40, 10**400 - 10), 3)  # a 400-digit cell with j0 = 23
def test_the_lazy_search_draws_what_the_full_weights_search_draws(params, key) -> None:
    v, t, q = params
    lazy, full = CounterRNG(key), CounterRNG(key)
    assert sample_hypergeom(v, t, q, lazy) == full_weights_search(v, t, q, full)
    assert lazy.counter == full.counter


class DrawnU:
    """An rng whose one below() draw is u."""

    def __init__(self, u: int) -> None:
        self.u = u

    def below(self, n: int) -> int:
        assert 0 <= self.u < n
        return self.u


def test_the_lazy_search_inverts_the_cdf_at_every_draw() -> None:
    for v in range(1, 7):
        for t in range(1, v + 1):
            for q in range(1, v):
                cdf = list(accumulate(product_weights(v, t, q)))
                for u in range(math.perm(v, t)):
                    assert sample_hypergeom(v, t, q, DrawnU(u)) == bisect_right(cdf, u), (v, t, q, u)


def test_the_lazy_search_makes_the_weights_up_to_the_drawn_one(monkeypatch) -> None:
    made, support = [], engine._hypergeom_support

    def counted(v, t, q):
        for j, w in support(v, t, q):
            made.append(j)
            yield j, w

    monkeypatch.setattr(engine, "_hypergeom_support", counted)
    for v, t, q, j0 in ((10**400, 18, 10**6, 0), (10**4, 300, 10**4 // 3, 0), (10**400, 40, 10**400 - 10, 30)):
        for key in range(20):
            made.clear()
            j = sample_hypergeom(v, t, q, CounterRNG(key))
            assert made == list(range(j0, j + 1)), (t, q, key)


def test_sample_hypergeom_frequencies() -> None:
    v, t, q = 6, 3, 3
    rng = CounterRNG(stream_key(404, 0, 1))
    n = 20000
    counts = [0] * (t + 1)
    for _ in range(n):
        counts[sample_hypergeom(v, t, q, rng)] += 1
    pmf = brute_hypergeom_pmf(v, t, q)
    chi2 = 0.0
    for j in range(t + 1):
        expected = float(pmf.get(j, Fraction(0))) * n
        if expected:
            chi2 += (counts[j] - expected) ** 2 / expected
    assert chi2 < 30.0  # 3 dof; p(chi2 > 30) ~ 1e-6


# ----------------------------------------------------------------- traces


def test_trace_digest_is_deterministic(memoryless_121) -> None:
    kw = dict(nights=30, seed=99, tagged_days=[(2, 1), (5, 2)])
    a = run_trace(memoryless_121, RND, **kw)
    b = run_trace(memoryless_121, RND, **kw)
    assert a.digest == b.digest
    assert a.to_jsonl() == b.to_jsonl()


def test_trace_digest_sensitive_to_seed_even_for_det(memoryless_121) -> None:
    a = run_trace(memoryless_121, DET, 10, seed=1)
    b = run_trace(memoryless_121, DET, 10, seed=2)
    assert a.digest != b.digest  # seed is part of the hashed header


def test_trace_digest_sensitive_to_strategy_and_tags(memoryless_121) -> None:
    a = run_trace(memoryless_121, DET, 10, seed=1)
    b = run_trace(memoryless_121, RND, 10, seed=1)
    c = run_trace(memoryless_121, DET, 10, seed=1, tagged_days=[3])
    assert len({a.digest, b.digest, c.digest}) == 3


def test_trace_jsonl_roundtrip_and_trailer(memoryless_121) -> None:
    trace = run_trace(memoryless_121, RND, 5, seed=7, tagged_days=[(1, 2)])
    lines = trace.to_jsonl().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "rh-trace-v1"
    assert header["rng"] == "rhrng-v1"
    assert header["seed"] == 7
    assert json.loads(lines[-1]) == {"digest": trace.digest}
    assert len(lines) == 5 + 2


def test_trace_det_fifo_removal_nights(memoryless_121) -> None:
    # b = 0, r = 1, s = 2: one removal per night off the front, so bag
    # (d, p) is the (2(d-1) + p)-th arrival and leaves on exactly that night.
    tags = [(d, p) for d in (1, 2, 3, 7) for p in (1, 2)]
    trace = run_trace(memoryless_121, DET, 20, seed=0, tagged_days=tags)
    for bag in trace.tagged:
        assert bag.removed_night == 2 * (bag.day - 1) + bag.pos


def test_trace_rejects_bad_tags(memoryless_121) -> None:
    with pytest.raises(SpecInvalid):
        run_trace(memoryless_121, DET, 5, seed=0, tagged_days=[(0, 1)])
    with pytest.raises(SpecInvalid):
        run_trace(memoryless_121, DET, 5, seed=0, tagged_days=[(1, 0)])
    with pytest.raises(SpecInvalid):
        run_trace(memoryless_121, DET, 5, seed=0, tagged_days=[(1, 3)])  # s(1) = 2
    # One bag tagged twice would be two ids for one bag; three in a cell
    # of two made the hypergeometric draw raise ValueError.
    for strategy in (DET, RND):
        with pytest.raises(SpecInvalid):
            run_trace(memoryless_121, strategy, 5, seed=0, tagged_days=[1, (1, 1), (1, 1)])


@pytest.mark.parametrize("item", [(2, True), (True, 1), 1.5, (1, 1.0), ("2", 1), (1, 2, 3), None])
def test_trace_rejects_tags_that_are_not_integers(memoryless_121, item) -> None:
    # (2, True) was written as [2, "True"] into the header; 1.5 raised TypeError.
    with pytest.raises(SpecInvalid, match="must be an integer"):
        run_trace(memoryless_121, DET, 5, seed=0, tagged_days=[item])


def test_tag_errors_write_values_past_the_digit_cap() -> None:
    big = 10**5000
    inst = make_instance(1, big, 0, horizon_cap=3)
    outside = "tag position {} outside day {}'s batch of size {}"
    with pytest.raises(SpecInvalid) as caught:
        run_trace(inst, RND, 3, seed=1, tagged_days=[(2, big + 1)])
    assert str(caught.value) == outside.format(decimal_str(big + 1), 2, decimal_str(big))
    with pytest.raises(SpecInvalid) as caught:
        step_day(CaveState(pending_tags={1: [big + 1]}), inst, 1)
    assert str(caught.value) == outside.format(decimal_str(big + 1), 1, decimal_str(big))
    with pytest.raises(SpecInvalid) as caught:
        run_trace(inst, RND, 3, seed=1, tagged_days=[(1, -big)])
    assert str(caught.value) == f"tag position must be >= 1, got {decimal_str(-big)}"


@pytest.mark.parametrize("day", [10**5000, 2**2000, -(10**5000)], ids=["1e5000", "2^2000", "-1e5000"])
def test_a_tag_day_past_2000_bits_is_rejected_with_its_first_40_digits(day) -> None:
    # The header writes tag days as JSON ints, which fail past the digit cap.
    inst = make_instance(1, 2, 0, horizon_cap=5)
    with pytest.raises(SpecInvalid) as caught:
        run_trace(inst, DET, 3, 1, tagged_days=[day])
    assert str(caught.value) == f"tag day {decimal_str(day)[:40]} has over 2000 bits: outside every horizon"


def test_a_tag_day_past_the_night_after_the_last_is_refused() -> None:
    # As empirical_survival refuses it: the bag would never arrive. A day of
    # 2000 bits passes the bit check and is refused here, before the nights are read.
    inst = make_instance(1, 2, 0, horizon_cap=5)
    for day in (5, 2**2000 - 1):
        with pytest.raises(SpecInvalid) as caught:
            run_trace(inst, DET, 3, 1, tagged_days=[day, 2])
        assert str(caught.value) == f"nights must be >= day - 1, got nights=3 day={day}"
    # A bag of day nights + 1 arrives after the last night, and is kept.
    trace = run_trace(inst, DET, 3, 1, tagged_days=[4, 2])
    assert trace.header["tags"] == [[2, "1"], [4, "1"]]
    assert trace.tagged[0].removed_night == 3


def test_trace_header_writes_a_tag_position_past_the_digit_cap() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 9)
    inst = GameInstance(gen.schedule_b(), horizon_cap=9)
    pos = 10**5000
    day = next(d for d, s in enumerate(gen.s_table, 1) if s > pos)
    assert day <= inst.horizon_cap
    trace = run_trace(inst, DET, inst.horizon_cap, seed=1, tagged_days=[(day, pos)])
    assert trace.header["tags"] == json.loads(trace.lines[0])["tags"] == [[day, decimal_str(pos)]]
    assert trace.tagged[0].pos == pos


_R1S3B2 = make_instance(1, 3, 2, horizon_cap=2000)
_BIG_DAY_10 = make_instance(1, FunctionSpec.table([3] * 9 + [2000], FunctionSpec.constant(3)), 1, horizon_cap=400)
_BIG_DAY_10_TAGS = [(10, p) for p in range(1, 2001, 13)]


@pytest.mark.parametrize(
    "instance, strategy, nights, seed, tags, digest",
    [
        (_R1S3B2, RND, 2000, 5, [(d, 1) for d in range(1, 301)],
         "db3c51d718034015243c629618b4bee22fc403aa09a2ca374d1ffb2da7260430"),
        (_R1S3B2, DET, 2000, 5, [(d, 1) for d in range(1, 1001)],
         "be7cd706f5975e63eef6252806fca1e71da0b95ae7d12df94ae8dc7418621881"),
        (_BIG_DAY_10, RND, 400, 11, _BIG_DAY_10_TAGS,
         "943efb627eaa2129d4518462c65ca58f96980df5c232d11d1ff69d584d334b08"),
        (_BIG_DAY_10, DET, 400, 11, _BIG_DAY_10_TAGS,
         "8546a8a3b9229b8b36af1094323e7b9bd1a67f7ea6da1c1c25d3148b569b9fef"),
    ],
    ids=["rnd-300-tags", "det-1000-tags", "rnd-154-in-one-cell", "det-154-in-one-cell"],
)
def test_many_tag_trace_digests_are_pinned(instance, strategy, nights, seed, tags, digest) -> None:
    assert run_trace(instance, strategy, nights, seed, tagged_days=tags).digest == digest


def test_thousand_tag_randomized_trace_is_pinned_and_fast() -> None:
    # The nightly rescan and the per-j hypergeometric products made this
    # trace take about 12 s; it now takes a fraction of a second.
    start = time.perf_counter()
    trace = run_trace(_R1S3B2, RND, 2000, 5, tagged_days=[(d, 1) for d in range(1, 1001)])
    elapsed = time.perf_counter() - start
    assert trace.digest == "14e6149e1f9eb9f20329b3cba1612f6cb23823983577e7c7aa11dbbcf71b4049"
    assert elapsed < 5.0


@st.composite
def trace_inputs(draw):
    """Valid run_trace inputs: Restriction-1 schedules with memory 0 (no
    window dip) or a memory that mostly grows by one a night (dips), a
    number of nights from 0 to the cap, and up to 40 distinct tags on days
    1..nights + 1, several to a day."""
    cap = draw(st.integers(1, 25))
    s = draw(st.lists(st.integers(2, 9), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    b = [0]
    if draw(st.booleans()):
        for _ in range(cap - 1):
            b.append(max(0, b[-1] + draw(st.sampled_from([1, 1, 1, 0, -1, -3]))))
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(0)),
    )
    nights = draw(st.integers(0, cap))
    sizes = [*s, 2]  # day cap + 1 is never stepped
    tag = st.integers(1, nights + 1).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, sizes[d - 1])))
    return GameInstance(spec, horizon_cap=cap), nights, draw(st.lists(tag, unique=True, max_size=40))


def assert_trace_is_the_reference(trace, inst, strategy, nights, seed, tags, trial) -> None:
    text = trace.to_jsonl()
    assert text == ref_trace_text(inst, strategy, nights, seed, tags, trial)
    lines = text.splitlines()
    assert json.loads(lines[-1]) == {"digest": trace.digest}
    for line in lines:
        assert canonical_dumps(json.loads(line)) == line


@settings(max_examples=300, deadline=None)
@given(trace_inputs(), st.sampled_from([DET, RND]), st.integers(0, 3), st.integers(-(2**65), 2**70))
def test_trace_text_equals_the_dict_record_reference(run, strategy, trial, seed) -> None:
    # Seeds past 64 bits and below 0: the trial key is child_key(seed, trial),
    # which must mask the seed as stream_key does.
    inst, nights, tags = run
    trace = run_trace(inst, strategy, nights, seed, tagged_days=tags, trial_index=trial)
    assert_trace_is_the_reference(trace, inst, strategy, nights, seed, tags, trial)


@pytest.mark.parametrize("strategy", [DET, RND])
def test_trace_writes_counts_takes_and_positions_past_2000_bits(strategy) -> None:
    # Past 2000 bits decimal_str leaves str for its big-integer branch.
    gen = separating_instance(FunctionSpec.constant(0), 9)
    inst = GameInstance(gen.schedule_b(), horizon_cap=9)
    s8 = inst.s_at(8)
    tags = [(2, 3), (8, 1), (8, 2**2001), (8, s8), (9, 2**5000)]
    trace = run_trace(inst, strategy, 9, seed=3, tagged_days=tags, trial_index=1)
    assert_trace_is_the_reference(trace, inst, strategy, 9, 3, tags, 1)
    last = trace.records[-1]
    (_, _, take), after = inst.night_cuts(9)[0], inst.cave_level(9)
    assert min(take, after).bit_length() > 2000
    assert (last["cave_after"], last["removed_cells"]) == (decimal_str(after), [[0, decimal_str(take)]])
    if strategy is DET:  # FIFO empties days 1..8 on night 9
        assert [(e["day"], e["pos"]) for e in last["tagged_events"]] == [(8, "1"), (8, str(2**2001)), (8, str(s8))]


def test_a_trace_derives_one_stream_key_a_night(monkeypatch) -> None:
    # Night i's key is child_key(trial key, i); the trial key is derived once,
    # not again on every night through stream_key, and a night's key only when
    # a tag is in the cave, as no other night draws.
    derived, child_key = [], rng.child_key

    def counted_key(key: int, p: int) -> int:
        derived.append(p)
        return child_key(key, p)

    monkeypatch.setattr(rng, "child_key", counted_key)
    monkeypatch.setattr(engine, "child_key", counted_key)
    # The last case's tags arrive on days 100..110 and are all gone by night 502.
    for inst, strategy, tags, digest in (
        (_R1S3B2, RND, [(d, 1) for d in range(1, 301)], "db3c51d718034015243c629618b4bee22fc403aa09a2ca374d1ffb2da7260430"),
        (_R1S3B2, DET, [(d, 1) for d in range(1, 1001)], "be7cd706f5975e63eef6252806fca1e71da0b95ae7d12df94ae8dc7418621881"),
        (make_instance(2, 3, 0, horizon_cap=2000), RND, [(d, p) for d in range(100, 111) for p in (1, 2, 3)],
         "7c2bee96f12b0c9fa9969b831f2470719be8a1776f2114726103efc0fec42f9e"),
    ):
        derived.clear()
        trace = run_trace(inst, strategy, 2000, 5, tagged_days=tags)
        assert trace.digest == digest
        tagged_nights = [
            i for i in range(1, 2001)
            if any(b.day <= i and (b.removed_night is None or b.removed_night >= i) for b in trace.tagged)
        ]
        assert derived == [0] + (tagged_nights if strategy is RND else [])


_CHUNK = engine.TRACE_CHUNK_LINES


@pytest.mark.parametrize("nights", [0, 1, _CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("strategy", [DET, RND])
def test_a_sunk_trace_is_the_kept_trace_in_chunks(strategy, nights) -> None:
    # The header is the first line, so at CHUNK - 1 nights the lines fill one chunk exactly.
    tags = [(d, 1) for d in range(1, nights + 2, 3)]
    calls: list[str] = []
    sunk = run_trace(_R1S3B2, strategy, nights, 5, tagged_days=tags, sink=calls.append)
    kept = run_trace(_R1S3B2, strategy, nights, 5, tagged_days=tags)
    assert "".join(calls) == kept.to_jsonl()
    assert sunk.lines == [] and sunk.digest == kept.digest and len(kept.lines) == 1 + nights
    assert [text.count("\n") for text in calls] == [_CHUNK] * ((1 + nights) // _CHUNK) + (
        [(1 + nights) % _CHUNK] if (1 + nights) % _CHUNK else []) + [1]


@pytest.mark.parametrize("strategy", [DET, RND])
def test_an_input_error_reaches_the_sink_zero_times(strategy) -> None:
    # Night 3 breaks the memory bound; run 1 tags a bag outside day 2's batch of 3.
    breaks = make_instance(1, 3, FunctionSpec.table([0, 0, 2], FunctionSpec.constant(2)), horizon_cap=_CHUNK + 1)
    for inst, tags, error in ((_R1S3B2, [(2, 4)], SpecInvalid), (breaks, [(1, 1)], RestrictionViolated)):
        calls: list[str] = []
        with pytest.raises(error):
            run_trace(inst, strategy, _CHUNK + 1, 5, tagged_days=tags, sink=calls.append)
        assert calls == []


def test_a_night_costs_the_same_under_full_memory() -> None:
    # With b(i) = i every bag stays in the memory window. The former count
    # cascade walked each emptied window cell every night, so these traces
    # took about 80 times as long as with b = 0.
    def seconds(b) -> float:
        inst = make_instance(1, 2, b, horizon_cap=20_000)
        start = time.perf_counter()
        for strategy in (DET, RND):
            run_trace(inst, strategy, 20_000, seed=1, tagged_days=[(1, 1)])
        return time.perf_counter() - start

    memoryless = seconds(0)
    assert seconds(FunctionSpec.affine(1, 0)) < 3 * memoryless


def rescan_cell_tags(state: CaveState, cutoff: int) -> dict[int, list[int]]:
    """Every in-cave tagged id by cell key, rebuilt from ``state.tagged``;
    days <= ``cutoff`` are in the very-old pool."""
    tags_of: dict[int, list[int]] = {}
    for b in state.tagged:
        if b.in_cave:
            key = VERY_OLD_KEY if b.day <= cutoff else b.day
            tags_of.setdefault(key, []).append(b.id)
    return tags_of


def rescan_randomized_removals(ref: CountCascade, state: CaveState, plan, rng: CounterRNG) -> list[int]:
    """The boundary draws of ``oldest-rnd`` from a rescan and product weights."""
    tags_of, counts = rescan_cell_tags(state, ref.merge_cutoff), ref.counts()
    removed = []
    for key, take in plan.cells:
        tags = tags_of.get(key, [])
        v, t = counts[key], len(tags)
        j = t if take == v else 0
        if t and 0 < take < v:
            u, acc = rng.below(math.perm(v, t)), 0
            for j, w in enumerate(product_weights(v, t, take)):
                acc += w
                if u < acc:
                    break
        removed.extend(tags[k] for k in _choose_uniform_subset(t, j, rng))
    return removed


@st.composite
def tagged_runs(draw):
    """Restriction-1 schedules with memory >= 1 (growing by one a night
    drains the pool and dips into the window) and distinct tags."""
    cap = draw(st.integers(1, 25))
    s = draw(st.lists(st.integers(2, 9), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    b = [1]
    for _ in range(cap - 1):
        b.append(max(1, b[-1] + draw(st.sampled_from([1, 1, 1, 0, -1, -3]))))
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(1)),
    )
    # Positions in any order: step_day numbers them in position order.
    tags = {d: draw(st.lists(st.integers(1, s[d - 1]), unique=True)) for d in range(1, cap + 1)}
    return GameInstance(spec, horizon_cap=cap), tags, draw(st.sampled_from([DET, RND])), draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(tagged_runs())
def test_in_cave_list_equals_a_rescan(run) -> None:
    inst, tags, strategy, seed = run
    state = CaveState(pending_tags={d: list(ps) for d, ps in tags.items() if ps})
    ref = CountCascade(inst)
    for i, cuts in ref.play(inst.horizon_cap):
        step_day(state, inst, i)
        assert state.in_cave == [b.id for b in state.tagged if b.in_cave]
        # The former oldest-det comprehension, on this state whatever
        # strategy brought it here.
        cut = inst.fifo_cut(i)
        det = [b.id for b in state.tagged if b.removed_night is None and (b.day, b.pos) <= cut]
        assert select_removals(state, inst, i, DET).removed_tagged == det
        rng = night_rng(seed, i) if strategy is RND else None
        plan = select_removals(state, inst, i, strategy, rng)
        assert plan.cells == [(key, take) for key, _, take in cuts]
        if strategy is RND:
            assert plan.removed_tagged == rescan_randomized_removals(ref, state, plan, night_rng(seed, i))
        apply_removals(state, plan)
        ref.remove(cuts)
        assert state.in_cave == [b.id for b in state.tagged if b.in_cave]


def test_trace_record_counts_match_levels(memoryless_121) -> None:
    trace = run_trace(memoryless_121, RND, 15, seed=11)
    for rec in trace.records:
        i = rec["i"]
        assert int(rec["cave_after"]) == memoryless_121.cave_level(i)
        removed = sum(int(c) for _, c in map(tuple, rec["removed_cells"]))
        assert removed == memoryless_121.r_at(i)


# ------------------------------------------------------------- Monte Carlo


def test_cell_of_a_very_old_bag_is_the_pool(memoryless_121) -> None:
    # b = 0: the bag is very old from its own night, and the pool of
    # Ltilde(i) = i + 1 bags loses r(i) = 1; the vectorized draw uses 1/(i+1).
    cells = list(memoryless_121.cells(3, 3, 10))
    assert cells == [(i + 1, 1) for i in range(3, 11)]
    assert [take / count for count, take in cells] == [1.0 / (i + 1) for i in range(3, 11)]


def test_cell_on_window_dips_is_the_bags_own_day() -> None:
    # Full-memory schedule: the pool is always empty, so removals reach day
    # 1's own cell of 2 bags: one leaves on night 1 and the last on night 2.
    inst = make_instance(1, 2, FunctionSpec.affine(1, 0), horizon_cap=10)
    assert inst.window_dips.first(1, 10) == 1
    assert list(inst.cells(1, 1, 4)) == [(2, 1), (1, 1), (0, 0), (0, 0)]


def test_fast_path_matches_scalar_streams(memoryless_121) -> None:
    # The vectorized key chain must equal stream_key(seed, t, i) draws.
    seed, trials, nights = 5, 4, 6
    est, _, _ = empirical_survival(memoryless_121, 1, nights, trials, seed)
    survivors = 0
    for t in range(trials):
        alive = True
        for i in range(1, nights + 1):
            p = 1.0 / (i + 1)
            u = (word(stream_key(seed, t, i), 0) >> 11) * 2.0**-53
            if u < p:
                alive = False
                break
        survivors += alive
    assert est == survivors / trials


def test_empirical_survival_agrees_with_exact(memoryless_121) -> None:
    exact = float(survival_probability(memoryless_121, 1, 60, mode="exact_strategy").value)
    est, se, n = empirical_survival(memoryless_121, 1, 60, 40000, seed=21)
    assert n == 40000
    assert abs(est - exact) < 4 * max(se, 1e-4)


def test_trace_machinery_reproduces_the_closed_product_law() -> None:
    # Drive the full per-trial trace machinery on a positive-memory
    # schedule and compare against the exact product the closed law
    # predicts for it.
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    inst = make_instance(1, 3, b_spec, horizon_cap=25)
    exact = float(survival_probability(inst, 2, 25, mode="exact_strategy").value)
    trials = 3000
    survivors = 0
    for t in range(trials):
        trace = run_trace(inst, RND, 25, seed=31, tagged_days=[(2, 1)], trial_index=t)
        survivors += trace.tagged[0].in_cave
    est = survivors / trials
    se = (est * (1 - est) / trials) ** 0.5
    assert abs(est - exact) < 4 * max(se, 1e-3)


def test_full_memory_kills_every_bag() -> None:
    inst = make_instance(1, 2, FunctionSpec.affine(1, 0), horizon_cap=60)
    est, se, _ = empirical_survival(inst, 1, 60, 200, seed=2)
    assert est == 0.0 and se == 0.0


def test_no_nights_after_day_means_certain_survival(memoryless_121) -> None:
    assert empirical_survival(memoryless_121, 5, 4, 100, seed=0) == (1.0, 0.0, 100)


def test_empirical_survival_validates_inputs(memoryless_121) -> None:
    with pytest.raises(SpecInvalid):
        empirical_survival(memoryless_121, 0, 5, 10, seed=0)
    with pytest.raises(SpecInvalid):
        empirical_survival(memoryless_121, 1, 5, 0, seed=0)
    with pytest.raises(IndexBeyondHorizon):
        empirical_survival(memoryless_121, 1, 10**6, 10, seed=0)
    # A bag that arrives after the last night is refused, as survival refuses it.
    with pytest.raises(SpecInvalid, match="nights must be >= day - 1"):
        empirical_survival(memoryless_121, 9, 5, 3, seed=0)
