"""The closed-form cell ledger against the engine's former count cascade.

``GameInstance.cells`` and ``night_cuts`` read cells from the prefix sums;
the reference (``tests/count_cascade.py``) walks the partition night by
night, as the engine did before it read the ledger. Exact survival and the
Monte Carlo estimate are built on the ledger, so both are checked here
against the cascade's counts and against a per-trial ``run_trace``
reference (the loop ``empirical_survival`` ran before the ledger existed).
With no window dip the estimate draws 53-bit uniforms instead, and is held
to its scalar law (``tests/scalar_monte_carlo.py``).
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robinhood import (
    MODE_EXACT,
    FunctionSpec,
    GameInstance,
    IndexBeyondHorizon,
    RestrictionViolated,
    RobinHoodError,
    ScheduleSpec,
    SpecInvalid,
    StrategyKind,
    empirical_survival,
    engine,
    rng,
    run_trace,
    survival_curve,
)
from robinhood import schedule
from robinhood.rng import CounterRNG, stream_key, word
from robinhood.schedule import _cell

from .conftest import make_instance
from .count_cascade import VERY_OLD_KEY, CountCascade
from .scalar_monte_carlo import ref_u01_survival

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
    """(count, take) of every (day, night) cell from the reference cascade,
    the last night it plays, and the error class that stops it there."""
    ref = CountCascade(inst)
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    played = 0
    for i, cuts in ref.play(inst.horizon_cap):
        counts = ref.counts()
        takes = {key: take for key, _, take in cuts}
        for d in range(1, i + 1):
            key = VERY_OLD_KEY if d <= ref.merge_cutoff else d
            cells[d, i] = (counts[key], takes.get(key, 0))
        ref.remove(cuts)
        played = i
    return cells, played, ref.error


@settings(max_examples=300, deadline=None)
@given(dip_instances())
def test_cell_matches_the_engine_cascade(inst: GameInstance) -> None:
    cells, played, error = engine_cells(inst)
    for (d, i), counts in cells.items():
        assert list(inst.cells(d, i, i)) == [counts]
    if error is not None:
        # Past the last playable night the ledger refuses as the engine did.
        for d in range(1, played + 2):
            assert _outcome(inst.cells, d, played + 1, played + 1) is error


@settings(max_examples=300, deadline=None)
@given(dip_instances())
def test_night_cuts_match_the_reference_cascade(inst: GameInstance) -> None:
    ref = CountCascade(inst)
    played = 0
    for i, cuts in ref.play(inst.horizon_cap):
        assert inst.night_cuts(i) == cuts
        ref.remove(cuts)
        played = i
    # Every later night refuses with the class of the first unplayable one.
    for i in range(played + 1, inst.horizon_cap + 1):
        assert _outcome(inst.night_cuts, i) is ref.error
    assert _outcome(inst.night_cuts, inst.horizon_cap + 1) is IndexBeyondHorizon


_ORDERED_PAIRS = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(sorted)


@settings(max_examples=500, deadline=None)
@given(_ORDERED_PAIRS, _ORDERED_PAIRS)
def test_the_rank_rule_counts_sets_of_ranks(ranks, night) -> None:
    # A cell of ranks s_lo+1..s_hi on a night that removes ranks before+1..after.
    (s_lo, s_hi), (before, after) = ranks, night
    cell = set(range(s_lo + 1, s_hi + 1))
    left, removed = cell - set(range(1, before + 1)), cell & set(range(before + 1, after + 1))
    assert _cell(s_lo, s_hi, before, after) == (len(left), len(removed))


def test_cells_and_night_cuts_count_through_the_one_rank_rule(monkeypatch) -> None:
    # r=2, s=3, b=1: night 2 removes ranks 3..4, the last bag of the pool (day 1,
    # ranks 1..3) and one of day 2 (ranks 4..6); night 3 takes day 2's last two as the pool.
    calls = []

    def counted(*args: int) -> tuple[int, int]:
        calls.append(args)
        return _cell(*args)

    monkeypatch.setattr(schedule, "_cell", counted)
    inst = make_instance(2, 3, 1, horizon_cap=5)
    assert inst.night_cuts(2) == [(VERY_OLD_KEY, 1, 1), (2, 3, 1)]
    assert calls == [(0, 3, 2, 4), (3, 6, 2, 4)]
    calls.clear()
    assert list(inst.cells(2, 2, 3)) == [(3, 1), (2, 2)]
    assert calls == [(3, 6, 2, 4), (0, 6, 4, 6)]


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
    seed = data.draw(st.integers(-(2**70), 2**70))
    strategy = data.draw(st.sampled_from([DET, RND]))
    got = _outcome(empirical_survival, inst, d, nights, trials, seed, strategy)
    want = _outcome(ref_empirical, inst, d, nights, trials, seed, strategy)
    dip = any(inst.very_old_level(i) < inst.r_at(i) for i in range(1, inst.valid_end(nights) + 1))
    if isinstance(want, tuple) and strategy is RND and not dip:
        # The vectorized path draws a 53-bit uniform, not the engine's
        # below(): it agrees with the engine statistically (tests/test_engine.py)
        # and with its own scalar law exactly.
        want = ref_u01_survival(inst, d, nights, trials, seed)
    assert got == want


@st.composite
def undipped_instances(draw) -> tuple[GameInstance, int]:
    """A Restriction-1 schedule and a night count with no window dip up to it."""
    cap = draw(st.integers(1, 60))
    s = draw(st.lists(st.integers(2, 9), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    b = [0]
    for _ in range(cap - 1):
        b.append(max(0, b[-1] + draw(st.sampled_from([0, 0, 0, 1, -1]))))
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(0)),
    )
    inst = GameInstance(spec, horizon_cap=cap)
    nights = draw(st.integers(1, cap))
    assume(inst.window_dips.first(1, nights) is None)
    return inst, nights


@settings(max_examples=60, deadline=None)
@given(undipped_instances(), st.data())
def test_vectorized_monte_carlo_is_its_scalar_law(case, data) -> None:
    # One word per block gives one night per call and one trial per chunk of
    # trials; 97 words give many nights to a few trials, leave a partial last
    # block and split the trials into chunks of 97; the module's size gives
    # blocks that lengthen as trials die. Trials often all die early.
    inst, nights = case
    d = data.draw(st.integers(1, nights))
    trials = data.draw(st.integers(1, 3000))
    seed = data.draw(st.integers(0, 2**64 - 1))
    words = data.draw(st.sampled_from([1, 97, engine.MC_BLOCK_WORDS]))
    with mock.patch.object(engine, "MC_BLOCK_WORDS", words):
        got = empirical_survival(inst, d, nights, trials, seed)
    assert got == ref_u01_survival(inst, d, nights, trials, seed)


def test_a_draw_equal_to_take_over_count_survives() -> None:
    # Night 1 takes m of 2**53 bags, m being trial 0's 53-bit draw, so
    # u == take/count exactly: the bag stays (u >= take/count), in both laws.
    seed = 11
    m = word(stream_key(seed, 0, 1), 0) >> 11
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table([m], FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table([2**53], FunctionSpec.constant(2)),
        b_spec=FunctionSpec.constant(0),
    )
    inst = GameInstance(spec, horizon_cap=1)
    assert list(inst.cells(1, 1, 1)) == [(2**53, m)]
    assert empirical_survival(inst, 1, 1, 1, seed) == ref_u01_survival(inst, 1, 1, 1, seed) == (1.0, 0.0, 1)


def _one_night(count: int, take: int) -> GameInstance:
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table([take], FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table([count], FunctionSpec.constant(2)),
        b_spec=FunctionSpec.constant(0),
    )
    inst = GameInstance(spec, horizon_cap=1)
    assert list(inst.cells(1, 1, 1)) == [(count, take)]
    return inst


def test_a_ratio_that_rounds_to_one_kills_every_trial() -> None:
    # (2**60 - 1) / 2**60 rounds to 1.0: the threshold is 2**53, which no 53-bit draw reaches.
    inst = _one_night(2**60, 2**60 - 1)
    assert empirical_survival(inst, 1, 1, 5000, 3) == ref_u01_survival(inst, 1, 1, 5000, 3) == (0.0, 0.0, 5000)


def test_a_ratio_below_two_to_the_minus_53_has_threshold_one() -> None:
    # 1 / 2**80 scales to 2**-27, whose ceiling is 1: only a draw of 0 leaves.
    inst = _one_night(2**80, 1)
    assert empirical_survival(inst, 1, 1, 5000, 3) == ref_u01_survival(inst, 1, 1, 5000, 3)


@pytest.mark.parametrize("block", [2**10, engine.MC_BLOCK_WORDS])
def test_monte_carlo_memory_is_bounded_by_the_block(block) -> None:
    # Keys and bases are derived for one chunk of trials at a time, so 2**17
    # trials fit in a few block-sized arrays whatever the trial count.
    inst = make_instance(1, 2, 0, horizon_cap=50)
    with mock.patch.object(engine, "MC_BLOCK_WORDS", block):
        tracemalloc.start()
        try:
            empirical_survival(inst, 1, 50, 2**17, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 * block * 8


def test_dead_trials_draw_no_words() -> None:
    # r=1, s=2, b=0 keeps about 1 trial in n alive after n nights, so drawing
    # only for live trials costs a few words per trial, not one per night.
    spec = ScheduleSpec(
        r_spec=FunctionSpec.constant(1), s_spec=FunctionSpec.constant(2), b_spec=FunctionSpec.constant(0)
    )
    inst = GameInstance(spec, horizon_cap=2000)
    trials, nights, drawn = 20000, 2000, []
    words_vec = engine.words_vec

    def counted(keys, n):
        drawn.append(keys.size)
        return words_vec(keys, n)

    with mock.patch.object(engine, "words_vec", counted):
        empirical_survival(inst, 1, nights, trials, seed=1)
    assert 0 < sum(drawn) < trials * nights / 100


def test_dip_trials_derive_each_trial_key_once() -> None:
    # r=1, s=3, b=1 dips into the window on night 1, so every trial draws
    # below(count) from stream_key(seed, t, i) = child_key(child_key(seed, t), i):
    # one key per trial and one per draw, not two per draw.
    inst = make_instance(1, 3, 1, horizon_cap=60)
    assert inst.window_dips.first(1, 60) == 1
    d, nights, trials, seed = 5, 60, 50, 7
    derived, draws = [], []
    child_key, below = rng.child_key, CounterRNG.below

    def counted_key(key: int, p: int) -> int:
        derived.append(p)
        return child_key(key, p)

    def counted_below(self: CounterRNG, n: int) -> int:
        draws.append(n)
        return below(self, n)

    with mock.patch.object(rng, "child_key", counted_key), mock.patch.object(
        engine, "child_key", counted_key
    ), mock.patch.object(CounterRNG, "below", counted_below):
        got = empirical_survival(inst, d, nights, trials, seed)
    assert 0 < len(draws) and len(derived) <= trials + len(draws)
    assert got == ref_empirical(inst, d, nights, trials, seed, RND)


def ref_first_error(inst: GameInstance, nights: int, tags: dict[int, list[int]]) -> type | None:
    """The error class the former engine raised on the first night it could
    not play: an invalid day, then a tag outside the day's batch, then a
    memory break, in that order within a night. Before any night, a tag day
    past nights + 1 is refused, as empirical_survival refuses it."""
    if any(d > nights + 1 for d in tags):
        return SpecInvalid
    ref = CountCascade(inst)
    for i in range(1, nights + 1):
        try:
            s_i = inst.s_at(i)
            if any(pos > s_i for pos in tags.get(i, ())):
                raise SpecInvalid(f"tag outside day {i}'s batch")
            ref.step_day(i)
        except RobinHoodError as exc:
            return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(dip_instances(), st.data())
def test_trace_raises_before_its_first_line_what_its_nights_raise(inst: GameInstance, data) -> None:
    cap = inst.horizon_cap
    nights = data.draw(st.integers(0, cap))
    tags = data.draw(
        st.dictionaries(st.integers(1, cap + 1), st.lists(st.integers(1, 10), min_size=1, unique=True), max_size=4)
    )
    tagged_days = [(d, pos) for d, positions in tags.items() for pos in positions]
    strategy = data.draw(st.sampled_from([DET, RND]))
    streamed: list[str] = []
    got = _outcome(run_trace, inst, strategy, nights, 5, tagged_days=tagged_days, sink=streamed.append)
    want = ref_first_error(inst, nights, tags)
    if want is not None:
        assert got is want and streamed == []
    else:
        kept = run_trace(inst, strategy, nights, 5, tagged_days=tagged_days)
        assert "".join(streamed) == kept.to_jsonl()
        assert got.lines == [] and got.digest == kept.digest


def test_a_bad_tag_on_a_memory_break_night_is_reported_first() -> None:
    # Night 3 breaks restriction 1 and tags a bag outside its batch of 2:
    # the former engine checked the tags first.
    spec = ScheduleSpec(
        r_spec=FunctionSpec.constant(1),
        s_spec=FunctionSpec.constant(2),
        b_spec=FunctionSpec.table([0, 0, 2], FunctionSpec.constant(2)),
    )
    inst = GameInstance(spec, horizon_cap=5)
    assert ref_first_error(inst, 5, {3: [3]}) is SpecInvalid
    assert _outcome(run_trace, inst, DET, 5, 0, tagged_days=[(3, 3)]) is SpecInvalid
    assert _outcome(run_trace, inst, DET, 5, 0, tagged_days=[(3, 2)]) is RestrictionViolated


@settings(max_examples=200, deadline=None)
@given(dip_instances(), st.sampled_from([DET, RND]))
def test_trace_records_list_the_reference_cascade(inst: GameInstance, strategy) -> None:
    ref = CountCascade(inst)
    want = []
    for i, cuts in ref.play(inst.horizon_cap):
        before = ref.cave_size
        ref.remove(cuts)
        want.append((i, str(before), str(ref.cave_size), [[key, str(take)] for key, _, take in cuts]))
    trace = run_trace(inst, strategy, ref.night, seed=3, tagged_days=[(1, 1)])
    assert [(r["i"], r["cave_before"], r["cave_after"], r["removed_cells"]) for r in trace.records] == want
