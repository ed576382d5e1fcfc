"""Restriction facts read from GameInstance against the scan loops they replace.

The reference functions below are the per-caller scans the package used
before ``GameInstance`` computed the facts once; they stay here as the
reference the fact-based callers must reproduce, value for value and error
class for error class.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinhood import (
    MODE_EXACT,
    MODE_PAPER,
    FunctionSpec,
    GameInstance,
    RestrictionViolated,
    RobinHoodError,
    ScheduleSpec,
    StrategyKind,
    run_trace,
    survival_curve,
)
from robinhood.analysis import _classify_bounded_gap, _classify_convergent, _classify_pinned_pool

from .per_night_kernels import ref_clamped_b, ref_prefix_sums


def _function(draw, values: list[int], lo: int, hi: int) -> FunctionSpec:
    """A table over a prefix of ``values`` with a constant or affine tail."""
    tail = draw(
        st.one_of(
            st.builds(FunctionSpec.constant, st.integers(lo, hi)),
            st.builds(FunctionSpec.affine, st.integers(0, 2), st.integers(lo - 3, hi)),
        )
    )
    return FunctionSpec.table(values[: draw(st.integers(0, len(values)))], tail)


@st.composite
def instances(draw) -> GameInstance:
    """Small schedules with memory breaks, window dips and invalid suffixes."""
    cap = draw(st.integers(1, 24))
    s = draw(st.lists(st.integers(2, 7), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    bad = draw(st.none() | st.integers(1, cap))
    if bad is not None:
        r[bad - 1] = s[bad - 1] + draw(st.integers(0, 1))  # r >= s: invalid from there on
    b, gap_step = [], 0
    for _ in range(cap):
        # A step of 2 or more lets b(i+1) > b(i) + 1: a restriction-1 break.
        gap_step = max(0, gap_step + draw(st.sampled_from([-1, 0, 1, 1, 1, 2, 3])))
        b.append(gap_step)
    role = draw(st.sampled_from([None, "b", "c"]))
    spec = ScheduleSpec(
        r_spec=_function(draw, r, 1, 3),
        s_spec=_function(draw, s, 2, 7),
        b_spec=_function(draw, b, 0, 3),
        provenance=None if role is None else {"generator": "separating-instance", "role": role},
    )
    return GameInstance(spec, horizon_cap=cap)


# ------------------------------------------------------- reference scans


def ref_restriction1(inst: GameInstance, horizon: int) -> int | None:
    for i in range(1, horizon):
        if ref_clamped_b(inst, i + 1) > ref_clamped_b(inst, i) + 1:
            return i
    return None


def ref_memory_gaps(inst: GameInstance, horizon: int) -> list[int]:
    return [i - ref_clamped_b(inst, i) for i in range(1, horizon + 1)]


def ref_restriction2_last(inst: GameInstance, horizon: int) -> int | None:
    first_invalid = inst.first_invalid_index
    if first_invalid is not None and first_invalid > horizon:
        first_invalid = None
    valid_end = horizon if first_invalid is None else first_invalid - 1
    spec, cap = inst.spec, inst.horizon_cap
    sum_s, sum_r = ref_prefix_sums(spec.s_spec, cap), ref_prefix_sums(spec.r_spec, cap)
    last = None
    for i in range(1, valid_end + 1):
        if max(0, sum_s[i - ref_clamped_b(inst, i)] - sum_r[i - 1]) <= inst.r_at(i):
            last = i
    return last


def ref_pool_nights(inst: GameInstance, strict: bool) -> set[int]:
    """Valid nights with Ltilde(i) < r(i) (strict) or Ltilde(i) <= r(i)."""
    end = inst.horizon_cap if inst.first_invalid_index is None else inst.first_invalid_index - 1
    nights = set()
    for i in range(1, end + 1):
        ltilde, r = inst.very_old_level(i), inst.r_at(i)
        if ltilde < r or (not strict and ltilde == r):
            nights.add(i)
    return nights


def ref_survival_precondition(
    inst: GameInstance, d: int, horizon: int, mode: str, refuse_dips: bool = True
) -> None:
    if mode == MODE_PAPER:
        for i in range(d, horizon + 1):
            if inst.very_old_level(i) <= inst.r_at(i):
                raise RestrictionViolated(f"Ltilde({i}) <= r({i})")
    else:
        for i in range(1, horizon):
            if inst.b_at(i + 1) > inst.b_at(i) + 1:
                raise RestrictionViolated(f"memory bound grows too fast at night {i}")
        for i in range(1, horizon + 1):
            if refuse_dips and inst.very_old_level(i) < inst.r_at(i):
                raise RestrictionViolated(f"Ltilde({i}) < r({i})")


def ref_survival(inst: GameInstance, d: int, horizon: int, mode: str) -> Fraction:
    ref_survival_precondition(inst, d, horizon, mode)
    acc = Fraction(1)
    for i in range(d, horizon + 1):
        if mode == MODE_PAPER or d <= i - inst.b_at(i):
            ltilde = inst.very_old_level(i)
            acc *= Fraction(ltilde - inst.r_at(i), ltilde)
    return acc


def ref_fast_path(inst: GameInstance, d: int, nights: int) -> list[tuple[int, float]] | None:
    if inst.first_invalid_index is not None:
        return None
    for i in range(1, nights):
        if inst.b_at(i + 1) > inst.b_at(i) + 1:
            return None
    probs = []
    for i in range(1, nights + 1):
        ltilde = inst.very_old_level(i)
        if ltilde < inst.r_at(i):
            return None
        if i >= d and d <= i - inst.b_at(i):
            probs.append((i, float(Fraction(inst.r_at(i), ltilde))))
    return probs


def _gap_nondecreasing(inst: GameInstance, upto: int) -> bool:
    return all(inst.b_at(i + 1) <= inst.b_at(i) + 1 for i in range(1, upto))


def ref_pinned_pool_applies(inst: GameInstance, upto: int) -> bool:
    if not _gap_nondecreasing(inst, upto):
        return False
    return not any(inst.very_old_level(i) > inst.r_at(i) for i in range(1, upto + 1))


def ref_convergent_prefix_end(inst: GameInstance, upto: int) -> int | None:
    if upto < 2 or not _gap_nondecreasing(inst, upto):
        return None
    violations = [i for i in range(1, upto + 1) if inst.very_old_level(i) <= inst.r_at(i)]
    prefix_end = len(violations)
    if violations != list(range(1, prefix_end + 1)) or prefix_end >= upto:
        return None
    for i in range(max(2, prefix_end + 1), upto + 1):
        if inst.r_at(i) * i * i > inst.very_old_level(i):
            return None
    return prefix_end


def _outcome(fn, *args):
    """A call's value, or the class of the package error it raised."""
    try:
        return fn(*args)
    except RobinHoodError as exc:
        return type(exc)


# ----------------------------------------------------------------- tests


@settings(max_examples=200, deadline=None)
@given(instances())
def test_facts_match_the_scan_loops_they_replace(inst: GameInstance) -> None:
    cap = inst.horizon_cap
    for strict, runs in ((False, inst.restriction2_violations), (True, inst.window_dips)):
        nights = ref_pool_nights(inst, strict)
        for lo in range(1, cap + 1):
            assert runs.last(lo) == max((i for i in nights if i <= lo), default=None)
            for hi in range(lo, cap + 1):
                span = set(range(lo, hi + 1))
                assert runs.first(lo, hi) == min(span & nights, default=None)
                assert runs.covers(lo, hi) == (span <= nights)

    valid = inst.first_invalid_index is None
    role = (inst.spec.provenance or {}).get("role")
    for horizon in range(1, cap + 1):
        report = inst.check_restrictions(horizon)
        assert report.restriction1_first_violation == ref_restriction1(inst, horizon)
        assert report.restriction1_ok == (ref_restriction1(inst, horizon) is None)
        assert report.restriction2_last_violation == ref_restriction2_last(inst, horizon)
        for d in range(1, horizon + 1):
            for mode in (MODE_PAPER, MODE_EXACT):
                got = _outcome(lambda: survival_curve(inst, d, horizon, mode=mode)[-1].value)
                want = _outcome(ref_survival, inst, d, horizon, mode)
                if (
                    mode == MODE_EXACT
                    and want is RestrictionViolated
                    and _outcome(ref_survival_precondition, inst, d, horizon, mode, False) is None
                ):
                    # A window dip: exact mode multiplies the cells through it
                    # (checked against the engine in tests/test_cell_ledger.py).
                    assert isinstance(got, Fraction)
                else:
                    assert got == want
            probs = ref_fast_path(inst, d, horizon)
            if probs is not None:
                # Where the closed very-old law applies, the ledger gives its
                # probabilities and leaves every other night alone.
                cells = list(enumerate(inst.cells(d, d, horizon), d))
                assert [(i, take / count) for i, (count, take) in cells if take] == probs
        if valid and role == "c":
            verdict = _classify_pinned_pool(inst, horizon)
            assert (verdict is not None) == ref_pinned_pool_applies(inst, horizon)
        if valid and role == "b":
            verdict = _classify_convergent(inst, horizon)
            prefix_end = None if verdict is None else verdict.certificate["restriction2_violation_prefix_end"]
            assert prefix_end == ref_convergent_prefix_end(inst, horizon)


# Arrival sums fall after the invalid day 2, so a search for the FIFO cut
# must stay within the valid days.
FALLING_ARRIVALS = GameInstance(
    ScheduleSpec(
        r_spec=FunctionSpec.constant(1),
        s_spec=FunctionSpec.table([3], FunctionSpec.affine(0, -5)),
        b_spec=FunctionSpec.constant(0),
    ),
    horizon_cap=4,
)


@settings(max_examples=200, deadline=None)
@given(instances())
@example(FALLING_ARRIVALS)
def test_oldest_det_removal_nights_follow_the_fifo_rank(inst: GameInstance) -> None:
    """Bag (d, p) leaves on the first night i with r(1)+...+r(i) >= s(1)+...+s(d-1) + p."""
    nights = inst.valid_end(inst.horizon_cap)
    if inst.restriction1_first_violation is not None:
        # Night b + 1 would re-admit forgotten days; the engine refuses it.
        nights = min(nights, inst.restriction1_first_violation)
    tags = [(d, p) for d in range(1, nights + 1) for p in range(1, inst.s_at(d) + 1)]
    trace = run_trace(inst, StrategyKind.OLDEST_DET, nights, seed=0, tagged_days=tags)

    arrived_before = [0]
    for d in range(1, nights + 1):
        arrived_before.append(arrived_before[-1] + inst.s_at(d))
    removed_through = [0]
    for i in range(1, nights + 1):
        removed_through.append(removed_through[-1] + inst.r_at(i))
    for bag in trace.tagged:
        rank = arrived_before[bag.day - 1] + bag.pos
        expected = next((i for i in range(1, nights + 1) if removed_through[i] >= rank), None)
        assert bag.removed_night == expected


@st.composite
def memory_gap_instances(draw) -> GameInstance:
    """Any table/affine memory spec, negative and non-monotone values included."""
    values = draw(st.lists(st.integers(-2, 12), max_size=16))
    tail = draw(
        st.one_of(
            st.builds(FunctionSpec.affine, st.integers(-1, 3), st.integers(-6, 6)),
            st.builds(FunctionSpec.constant, st.integers(0, 8)),
        )
    )
    b_spec = draw(st.sampled_from([FunctionSpec.table(values, tail), tail]))
    spec = ScheduleSpec(FunctionSpec.constant(1), FunctionSpec.constant(3), b_spec)
    return GameInstance(spec, horizon_cap=draw(st.integers(1, 30)))


@settings(max_examples=300, deadline=None)
@given(memory_gap_instances())
def test_memory_gap_facts_match_a_rescan_at_every_prefix(inst: GameInstance) -> None:
    for horizon in range(1, inst.horizon_cap + 1):
        gaps = ref_memory_gaps(inst, horizon)
        assert inst.memory_gap_range(horizon) == (min(gaps), max(gaps))
        report = inst.check_restrictions(horizon)
        assert (report.i_minus_b_max, report.i_minus_b_grew) == (max(gaps), max(gaps) > min(gaps))
        assert report.restriction1_first_violation == ref_restriction1(inst, horizon)
        verdict = _classify_bounded_gap(inst, horizon)
        if verdict is not None:
            assert verdict.certificate["max_observed_gap"] == max(gaps)
