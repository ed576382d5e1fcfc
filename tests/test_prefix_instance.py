"""``GameInstance`` stores only its table prefix and reads every later index from closed forms.

The reference is ``tests/materialized_instance.py``, the former per-index
construction: the two must agree, reader by reader, on every index, value
for value or error class and message for error class and message. Past the
prefix the instance's cost does not depend on ``horizon_cap``.
"""

from __future__ import annotations

import json
import time
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinhood import (
    DEFAULT_DIGIT_BUDGET,
    FunctionSpec,
    GameInstance,
    LimitExceeded,
    RobinHoodError,
    ScheduleSpec,
    classify,
)
from robinhood.cli import dispatch

from .conftest import make_spec
from .materialized_instance import MaterializedInstance


def _outcome(call):
    """What ``call()`` gives: ("ok", value, with iterators listed) or (error class, message)."""
    try:
        value = call()
        return ("ok", list(value) if hasattr(value, "__next__") else value)
    except RobinHoodError as exc:
        return (type(exc).__name__, str(exc))


def _functions(values: st.SearchStrategy[int], slopes: st.SearchStrategy[int], offsets: st.SearchStrategy[int]):
    """Constant, affine and nested-table specs over the given value ranges."""
    closed = st.one_of(
        st.builds(FunctionSpec.constant, offsets.map(abs)),
        st.builds(FunctionSpec.affine, slopes, offsets),
    )
    table = st.builds(FunctionSpec.table, st.lists(values, max_size=8), closed)
    nested = st.builds(FunctionSpec.table, st.lists(values, max_size=4), table)
    return st.one_of(closed, table, nested)


_R = _functions(st.integers(-1, 6), st.integers(-1, 2), st.integers(-3, 8))
_S = _functions(st.integers(-1, 12), st.integers(-1, 3), st.integers(-5, 40))
# Memory bounds below 0 and above i on both sides of the prefix, and slopes >= 2 that break restriction 1.
_B = _functions(st.integers(-5, 60), st.integers(-2, 3), st.integers(-80, 80))


def _assert_same_instance(spec: ScheduleSpec, cap: int, budget: int) -> None:
    built = _outcome(lambda: GameInstance(spec, horizon_cap=cap, digit_budget=budget))
    expected = _outcome(lambda: MaterializedInstance(spec, horizon_cap=cap, digit_budget=budget))
    if "ok" not in (built[0], expected[0]):
        assert built == expected
        return
    assert built[0] == expected[0] == "ok", (built, expected)
    new, ref = built[1], expected[1]

    def same(name: str, *args) -> None:
        got = _outcome(lambda: getattr(new, name)(*args))
        want = _outcome(lambda: getattr(ref, name)(*args))
        assert got == want, (name, args, got, want)

    for fact in ("horizon_cap", "first_invalid_index", "restriction1_first_violation"):
        assert getattr(new, fact) == getattr(ref, fact), fact
    top = cap + 1
    for i in range(-1, top + 1):
        for name in ("r_at", "s_at", "b_at", "cave_level", "very_old_level", "very_old_level_unclamped",
                     "fifo_cut", "night_cuts", "valid_end", "restriction1_holds", "memory_gap_range",
                     "check_restrictions"):
            same(name, i)
        for runs in ("restriction2_violations", "window_dips"):
            got, want = getattr(new, runs), getattr(ref, runs)
            assert got.last(i) == want.last(i), (runs, i)
            assert got.first(i, cap) == want.first(i, cap), (runs, i)
            assert got.first(1, i) == want.first(1, i), (runs, i)
            assert got.covers(i, cap) == want.covers(i, cap), (runs, i)
            assert got.covers(1, i) == want.covers(1, i), (runs, i)
    spots = sorted({0, 1, 2, cap // 3, cap // 2, cap - 1, cap, top})
    for lo in spots:
        for hi in spots:
            same("terms", lo, hi)
            for d in (1, lo // 2, lo):
                same("cells", d, lo, hi)


@settings(max_examples=60, deadline=None)
@given(
    r=_R,
    s=_S,
    b=_B,
    cap=st.one_of(st.integers(0, 40), st.integers(0, 5000)),
    budget=st.one_of(st.just(DEFAULT_DIGIT_BUDGET), st.integers(1, 12)),
)
# r(i) = i, s(i) = i + 41, b = 40: Ltilde(i) - r(i) = i - 860, so restriction 2 ends at night 860.
@example(r=FunctionSpec.affine(1, 0), s=FunctionSpec.affine(1, 41), b=FunctionSpec.constant(40), cap=5000,
         budget=DEFAULT_DIGIT_BUDGET)
# b = 2i - 3000 is below 0 (an invalid day) up to 1499 and above i past 3000, with a
# falling cutoff between: a restriction-1 break at night 1500, on three clamp pieces.
@example(r=FunctionSpec.constant(1), s=FunctionSpec.affine(1, 3), b=FunctionSpec.affine(2, -3000), cap=5000,
         budget=DEFAULT_DIGIT_BUDGET)
# The same shape on valid days: b = 0 for i <= 5, then 2i - 10, so the cutoff falls after night 5.
@example(r=FunctionSpec.constant(1), s=FunctionSpec.constant(3),
         b=FunctionSpec.table([0] * 5, FunctionSpec.affine(2, -10)), cap=5000, budget=DEFAULT_DIGIT_BUDGET)
# s runs away negative: |S| crosses the budget, r >= s from day 1.
@example(r=FunctionSpec.constant(1), s=FunctionSpec.affine(-3, 1), b=FunctionSpec.constant(0), cap=5000, budget=5)
# b = i - 3 past a table keeps the cutoff at day 3, so the pool S(3) - R(i - 1) shrinks
# quadratically: Ltilde(i) - r(i) = 15 - i(i + 1)/2, zero on night 5, window dips from night 6 on.
@example(r=FunctionSpec.affine(1, 0), s=FunctionSpec.affine(2, 1),
         b=FunctionSpec.table([0, 1, 2], FunctionSpec.affine(1, -3)), cap=5000, budget=DEFAULT_DIGIT_BUDGET)
# s falls by one a day, so S is a downward quadratic, inverted with a rounded-up root; r >= s from day 19.
@example(r=FunctionSpec.constant(1), s=FunctionSpec.affine(-1, 20), b=FunctionSpec.constant(0), cap=40,
         budget=DEFAULT_DIGIT_BUDGET)
def test_prefix_instance_matches_the_materialized_reference(r, s, b, cap, budget) -> None:
    _assert_same_instance(ScheduleSpec(r_spec=r, s_spec=s, b_spec=b), cap, budget)


@settings(max_examples=150, deadline=None)
@given(r=_R, s=_S, b=_B, cap=st.integers(0, 3000), data=st.data())
# b = 3 past a five-entry table: cut(i) = i - 3, so nights 6..8 still read the table (m > 0).
@example(r=FunctionSpec.constant(1), s=FunctionSpec.constant(3),
         b=FunctionSpec.table([0] * 5, FunctionSpec.constant(3)), cap=60, data=None)
# b = 3i - 82 past the same table: cut(i) = 82 - 2i on 28..41, at or below 5 from night 39 on (m < 0).
@example(r=FunctionSpec.constant(1), s=FunctionSpec.constant(3),
         b=FunctionSpec.table([0] * 5, FunctionSpec.affine(3, -82)), cap=60, data=None)
def test_tail_polys_match_the_materialized_reference(r, s, b, cap, data) -> None:
    spec = ScheduleSpec(r_spec=r, s_spec=s, b_spec=b)
    try:
        inst = GameInstance(spec, horizon_cap=cap)
    except RobinHoodError:
        return
    ref, top = MaterializedInstance(spec, horizon_cap=cap), inst._top
    lo, hi = top + 1, cap
    if data is not None and lo <= hi:
        lo = data.draw(st.integers(lo, hi), label="lo")
        hi = data.draw(st.integers(lo - 1, hi), label="hi")
    pieces = inst._tail_polys(lo, hi)
    # The pieces cover lo..hi in increasing order.
    assert [i for first, last, *_ in pieces for i in range(first, last + 1)] == list(range(lo, hi + 1))
    for first, last, m, k, table, r2, l2 in pieces:
        cuts = [ref._cut[i] for i in range(first, last + 1)]
        assert [m * i + k for i in range(first, last + 1)] == cuts
        assert list(table) == ([] if m == 0 else [i for i, cut in enumerate(cuts, first) if cut <= top])
        assert len(table) <= top + 1
        for i in range(first, last + 1):
            if i in table:
                continue
            before = ref._sum_r[i - 1]
            assert (r2[0] * i + r2[1]) * i + r2[2] == 2 * (ref._sum_r[i] - before), ("r", i)
            assert (l2[0] * i + l2[1]) * i + l2[2] == 2 * (ref._sum_s[ref._cut[i]] - before), ("Ltilde", i)


def test_tail_polys_clip_the_stored_pieces_to_every_window() -> None:
    # The pieces are built once, unclipped; every read clips them. cut(i) = i - 3 past a five-entry
    # table has table nights 6..8; cut(i) = 82 - 2i on 28..41 has them from night 39 on.
    for tail in (FunctionSpec.constant(3), FunctionSpec.affine(3, -82)):
        inst = GameInstance(make_spec(1, 3, FunctionSpec.table([0] * 5, tail)), horizon_cap=60)
        whole = inst._tail_polys(6, 60)
        for lo in range(6, 61):
            for hi in range(lo - 1, 61):
                want = [(max(lo, f), min(hi, last), m, k, [i for i in t if lo <= i <= hi], r2, l2)
                        for f, last, m, k, t, r2, l2 in whole if max(lo, f) <= min(hi, last)]
                got = inst._tail_polys(lo, hi)
                assert [(f, last, m, k, list(t), r2, l2) for f, last, m, k, t, r2, l2 in got] == want, (lo, hi)
                # The margin pass reads the closed nights next to the table, so an empty one keeps its edge.
                for f, last, m, _, t, _, _ in got:
                    assert f <= t.start <= t.stop <= last + 1 and (t.start == f if m > 0 else t.stop == last + 1)


def test_generated_specs_are_all_prefix() -> None:
    r = FunctionSpec.generated([1, 1, 2, 1])
    s = FunctionSpec.generated([2, 5, 3, 9])
    _assert_same_instance(make_spec(r, s, FunctionSpec.table([0, 2], FunctionSpec.constant(1))), 100, 10**6)


# ------------------------------------------------------------ any horizon

_THM21 = make_spec(1, 3, 2)
_PROP11 = make_spec(1, 3, FunctionSpec.table([0] * 5, FunctionSpec.affine(1, -5)))


def test_a_closed_instance_at_a_horizon_of_10_to_the_12_is_small_and_fast() -> None:
    for spec in (_THM21, _PROP11):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            inst = GameInstance(spec, horizon_cap=10**12)
            elapsed = time.perf_counter() - start
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01
        assert held < 2**20


def test_restrictions_and_verdicts_at_10_to_the_12_match_those_at_10_to_the_4() -> None:
    for spec, rule in ((_THM21, "Thm2.1"), (_PROP11, "Prop1.1")):
        near, far = GameInstance(spec, horizon_cap=10**4), GameInstance(spec, horizon_cap=10**12)
        near_report, far_report = near.check_restrictions(10**4), far.check_restrictions(10**12)
        for field in ("validity_ok", "restriction1_ok", "i_minus_b_grew"):
            assert getattr(far_report, field) == getattr(near_report, field), field
        # b = 2 keeps the gap at i - 2; the table-then-(i - 5) bound keeps it at 5.
        assert (near_report.i_minus_b_max, far_report.i_minus_b_max) in ((10**4 - 2, 10**12 - 2), (5, 5))
        # The last violation of restriction 2 is the same night, or each report's own horizon.
        last = (near_report.restriction2_last_violation, far_report.restriction2_last_violation)
        assert last[0] == last[1] or last == (10**4, 10**12)
        near_verdict, far_verdict = classify(near, 10**4), classify(far, 10**12)
        assert (far_verdict.kind, far_verdict.rule) == (near_verdict.kind, near_verdict.rule)
        assert far_verdict.rule == rule


def test_the_last_night_of_a_far_horizon_reads_its_closed_forms() -> None:
    inst = GameInstance(_THM21, horizon_cap=10**12)
    n = 10**12
    assert (inst.r_at(n), inst.s_at(n), inst.b_at(n)) == (1, 3, 2)
    assert inst.cave_level(n) == 2 * n
    assert inst.very_old_level(n) == 3 * (n - 2) - (n - 1)
    assert inst.fifo_cut(n) == ((n - 1) // 3 + 1, (n - 1) % 3 + 1)
    assert inst.night_cuts(n) == [(0, 3 * (n - 2) - (n - 1), 1)]


# ------------------------------------------------------------ digit budget


def test_the_digit_budget_guards_sums_that_run_away_in_either_sign() -> None:
    for c in (10**20, -(10**20)):
        spec = make_spec(1, FunctionSpec.affine(c, 0), 0)
        try:
            GameInstance(spec, horizon_cap=1000, digit_budget=5)
        except LimitExceeded as exc:
            assert str(exc) == "integer exceeds the 5-digit budget in sum of arrivals through day 1"
        else:
            raise AssertionError(f"s = affine({c}, 0) built under a 5-digit budget")


def test_validate_exits_2_when_the_sums_pass_the_digit_budget_in_either_sign(tmp_path, capsys) -> None:
    for c in (10**20, -(10**20)):
        path = tmp_path / "runaway.json"
        path.write_text(json.dumps({"r": {"kind": "constant", "value": 1}, "s": {"kind": "affine", "a": c, "c": 0},
                                    "b": {"kind": "constant", "value": 0}}))
        assert dispatch(["validate", str(path), "--horizon", "1000", "--digit-budget", "5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "LimitExceeded"
