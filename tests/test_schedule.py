"""Schedule parsing, clamping, level quantities, and restriction reports."""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinhood import (
    FunctionSpec,
    GameInstance,
    IndexBeyondHorizon,
    LimitExceeded,
    SpecInvalid,
    canonical_dumps,
    load_schedule,
    parse_function,
    parse_schedule,
)
from robinhood.schedule import bounded_memory_gap, decimal_str, parse_decimal, spec_plus_one

from .conftest import make_instance, make_spec


# ---------------------------------------------------------------- oracles


def brute_levels(r, s, b, horizon):
    """Levels straight from their defining sums, no prefix-array reuse.

    Returns (L, Ltilde) as dicts over 1..horizon; b is clamped to min(b, i).
    """
    L = {0: 0}
    Lt = {}
    for i in range(1, horizon + 1):
        L[i] = sum(s(j) for j in range(1, i + 1)) - sum(r(j) for j in range(1, i + 1))
        bi = min(b(i), i)
        Lt[i] = max(
            0,
            sum(s(j) for j in range(1, i - bi + 1)) - sum(r(j) for j in range(1, i)),
        )
    return L, Lt


# ---------------------------------------------------------------- parsing


def test_parse_constant_and_affine_roundtrip() -> None:
    obj = {
        "r": {"kind": "constant", "value": 1},
        "s": {"kind": "affine", "a": 2, "c": 1},
        "b": {"kind": "constant", "value": 0},
    }
    spec = parse_schedule(obj)
    assert spec.r_spec.value_at(10) == 1
    assert spec.s_spec.value_at(10) == 21
    assert canonical_dumps(parse_schedule(json.loads(canonical_dumps(spec.to_obj()))).to_obj()) == canonical_dumps(spec.to_obj())


def test_parse_table_with_tail_evaluates_tail_at_original_index() -> None:
    fs = parse_function(
        {"kind": "table", "values": [5, 7], "tail": {"kind": "affine", "a": 1, "c": 0}},
        "s",
    )
    assert [fs.value_at(i) for i in (1, 2, 3, 4)] == [5, 7, 3, 4]


def test_parse_generated_decimal_strings() -> None:
    fs = parse_function({"kind": "generated", "values": ["8", "216"]}, "s")
    assert fs.value_at(2) == 216
    with pytest.raises(IndexBeyondHorizon):
        fs.value_at(3)


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({"kind": "nope"}, "s.kind"),
        ({"kind": "constant"}, "missing"),
        ({"kind": "constant", "value": 1, "a": 2}, "unexpected"),
        ({"kind": "constant", "value": True}, "s.value"),
        ({"kind": "constant", "value": "3"}, "s.value"),
        ({"kind": "affine", "a": 1.5, "c": 0}, "s.a"),
        ({"kind": "table", "values": [1, "x"], "tail": {"kind": "constant", "value": 1}}, "s.values[1]"),
        ({"kind": "generated", "values": [8]}, "s.values[0]"),
        ({"kind": "generated", "values": ["8x"]}, "s.values[0]"),
    ],
)
def test_parse_function_errors_carry_field_paths(obj, fragment) -> None:
    with pytest.raises(SpecInvalid) as exc:
        parse_function(obj, "s")
    assert fragment in str(exc.value)


def test_parse_schedule_rejects_unknown_top_level_fields() -> None:
    with pytest.raises(SpecInvalid) as exc:
        parse_schedule({"r": {}, "s": {}, "b": {}, "bogus": 1})
    assert "bogus" in str(exc.value)


def test_load_schedule_reports_json_position(tmp_path) -> None:
    p = tmp_path / "sched.json"
    p.write_text('{"r": }')
    with pytest.raises(SpecInvalid) as exc:
        load_schedule(str(p))
    assert "line 1" in str(exc.value)


def test_constant_negative_rejected() -> None:
    with pytest.raises(SpecInvalid):
        parse_function({"kind": "constant", "value": -1}, "b")


def test_decimal_str_and_parse_decimal_are_inverse_beyond_the_cap() -> None:
    n = 10 ** 5000 + 12345  # far past the interpreter's 4300-digit default
    text = decimal_str(n)
    assert len(text) == 5001
    assert parse_decimal(text) == n


@pytest.fixture()
def lowest_digit_cap():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest cap Python allows
    yield
    sys.set_int_max_str_digits(before)


def test_decimal_conversions_work_under_the_lowest_cap_and_restore_it(lowest_digit_cap) -> None:
    # 639 and 641 digits sit on either side of the cap; 10**640 has 2127 bits.
    for n, digits in ((10**638 + 1, 639), (-(10**638 + 1), 639), (10**640, 641), (10**100_000 - 3, 100_000)):
        text = decimal_str(n)
        assert len(text.lstrip("-")) == digits
        assert parse_decimal(text) == n
        assert sys.get_int_max_str_digits() == 640


def test_small_decimal_conversions_leave_the_digit_cap_alone(monkeypatch) -> None:
    # Large values too: no conversion of any size touches the cap.
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", calls.append)
    for n in (0, 7, -12345, 2**2000 - 1, -(2**2000 - 1), 2**5000 + 1, 10**100_000 - 3, -(10**100_000 - 3)):
        assert parse_decimal(decimal_str(n)) == n
    assert parse_decimal("9" * 640) == 10**640 - 1
    assert parse_decimal("-" + "9" * 5000) == -(10**5000 - 1)
    assert calls == []


@contextmanager
def builtin_digit_cap_lifted():
    """For the builtin ``str``/``int`` this test compares against."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _boundary_magnitudes():
    """Magnitudes at the kernels' switch points and at powers of 2 and 10."""
    bits = st.sampled_from([1, 2000, 2001, 4096, 4097, 8192, 8193]) | st.integers(1, 500_000)
    digits = st.sampled_from([639, 640, 641, 1233, 1234]) | st.integers(1, 150_000)
    return st.one_of(
        st.builds(lambda k, d: (1 << k) + d, bits, st.sampled_from([-1, 0, 1])),
        st.builds(lambda k, d: 10**k + d, digits, st.sampled_from([-1, 0])),
        # Random values of exactly k bits.
        st.builds(lambda k, seed: random.Random(seed).getrandbits(k) | 1 << (k - 1), bits, st.integers(0, 2**32)),
    )


@settings(max_examples=60, deadline=None)
@given(_boundary_magnitudes(), st.booleans())
@example(0, False)
@example(10**640 - 1, True)  # 640 digits and a sign: 641 characters
@example(10**639, False)  # 640 characters
@example((1 << 500_000) + 1, True)
@example(10**150_000 - 1, False)
def test_decimal_conversions_round_trip_at_every_size(magnitude, negative) -> None:
    n = -magnitude if negative else magnitude
    text = decimal_str(n)
    with builtin_digit_cap_lifted():
        assert text == str(n)
    assert parse_decimal(text) == n


@pytest.mark.parametrize(
    "form",
    [
        lambda digits: "+" + digits,
        lambda digits: " " + digits,
        lambda digits: digits + "\n",
        lambda digits: digits[:1] + "_" + digits[1:],
        lambda digits: "--" + digits,
        lambda digits: digits + "-",
        lambda digits: "\uff18" + digits,  # FULLWIDTH DIGIT EIGHT
        lambda digits: digits[:-1] + "\u0669",  # ARABIC-INDIC DIGIT NINE
    ],
)
@pytest.mark.parametrize("length", [2, 700])
def test_generated_values_accept_only_ascii_minus_digits(form, length) -> None:
    text = form("8" * length)
    with pytest.raises(ValueError):
        parse_decimal(text)
    with pytest.raises(SpecInvalid, match=r"s\.values\[1\]: not a decimal integer"):
        parse_function({"kind": "generated", "values": ["8", text]}, "s")


@pytest.mark.parametrize("text", ["", "-", "-" + "8" * 700 + " "])
def test_empty_or_sign_only_text_is_not_a_decimal(text) -> None:
    with pytest.raises(ValueError):
        parse_decimal(text)


def test_conversion_kernels_beat_the_quadratic_builtins() -> None:
    n = 3 ** 252_000 + 1  # about 4e5 bits, 120 000 digits
    text = decimal_str(n)

    def best_of_3(fn, arg):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
        return min(times)

    with builtin_digit_cap_lifted():
        assert best_of_3(decimal_str, n) < 0.5 * best_of_3(str, n)
        assert best_of_3(parse_decimal, text) < 0.5 * best_of_3(int, text)


# ---------------------------------------------------------------- levels


def test_memoryless_levels_match_brute_force(memoryless_121) -> None:
    L, Lt = brute_levels(lambda i: 1, lambda i: 2, lambda i: 0, 60)
    for i in range(1, 61):
        assert memoryless_121.cave_level(i) == L[i] == i
        assert memoryless_121.very_old_level(i) == Lt[i] == i + 1


def test_levels_against_brute_force_mixed_memory() -> None:
    # r = 2, s = i + 3, b = table [0, 1, 2] then constant 2: a growing window.
    b_spec = FunctionSpec.table([0, 1, 2], FunctionSpec.constant(2))
    inst = make_instance(2, FunctionSpec.affine(1, 3), b_spec, horizon_cap=40)
    L, Lt = brute_levels(lambda i: 2, lambda i: i + 3, lambda i: min(i, 3) - 1 if i <= 3 else 2, 40)
    for i in range(1, 41):
        assert inst.cave_level(i) == L[i]
        assert inst.very_old_level(i) == Lt[i]


def test_memory_clamp_never_exceeds_elapsed_days() -> None:
    inst = make_instance(1, 2, FunctionSpec.constant(100), horizon_cap=30)
    for i in range(1, 31):
        assert inst.b_at(i) == i  # clamped from 100
        # Fully clamped memory leaves no arrival day outside the window.
        assert inst.very_old_level(i) == 0


def test_full_memory_b_equals_i_empties_very_old_pool() -> None:
    inst = make_instance(1, 2, FunctionSpec.affine(1, 0), horizon_cap=25)
    for i in range(1, 26):
        assert inst.b_at(i) == i
        assert inst.very_old_level(i) == 0


def test_levels_clamp_at_zero_but_unclamped_value_is_exposed() -> None:
    # b = min(i, 2): at i = 2 the pool sum is (no arrivals) - r(1) = -1.
    b_spec = FunctionSpec.table([1, 2], FunctionSpec.constant(2))
    inst = make_instance(1, 2, b_spec, horizon_cap=10)
    assert inst.very_old_level_unclamped(2) == -1
    assert inst.very_old_level(2) == 0


def test_invalid_schedule_keeps_valid_prefix_usable() -> None:
    # s drops to r's level at i = 4.
    s_spec = FunctionSpec.table([5, 5, 5, 2], FunctionSpec.constant(5))
    inst = make_instance(2, s_spec, 0, horizon_cap=10)
    assert inst.first_invalid_index == 4
    assert inst.cave_level(3) == 9
    with pytest.raises(SpecInvalid):
        inst.r_at(4)
    with pytest.raises(IndexBeyondHorizon):
        inst.r_at(11)


def test_digit_budget_aborts_runaway_growth() -> None:
    s_spec = FunctionSpec.affine(10**20, 0)
    with pytest.raises(LimitExceeded):
        GameInstance(make_spec(1, s_spec, 0), horizon_cap=10_000, digit_budget=5)


def test_generated_values_bound_the_horizon() -> None:
    r = FunctionSpec.generated([1, 1, 1])
    inst = make_instance(r, 2, 0, horizon_cap=100)
    assert inst.horizon_cap == 3


# ---------------------------------------------------------------- reports


def test_report_on_valid_memoryless_schedule(memoryless_121) -> None:
    rep = memoryless_121.check_restrictions(50)
    assert rep.validity_ok and rep.restriction1_ok
    assert rep.first_invalid_index is None
    assert rep.restriction1_first_violation is None
    assert rep.restriction2_last_violation is None  # Ltilde = i + 1 > 1 always
    assert rep.i_minus_b_max == 50 and rep.i_minus_b_grew


def test_report_flags_memory_jump() -> None:
    # b jumps 0 -> 2 at i = 2: forgotten day 1 would re-enter the window.
    b_spec = FunctionSpec.table([0, 2], FunctionSpec.constant(2))
    rep = make_instance(1, 3, b_spec, horizon_cap=10).check_restrictions(10)
    assert not rep.restriction1_ok
    assert rep.restriction1_first_violation == 1


def test_report_restriction2_last_violation() -> None:
    # With b = min(i, 1) the pool at night i >= 2 is L(i-1); choosing r = 1
    # and s = [2, 2, 2, 3, 3, ...] gives L = 1, 2, 3, 5, ..., so the only
    # violations Ltilde(i) <= r(i) are at i = 2 (pool 1 <= 1).
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    s_spec = FunctionSpec.table([2, 2, 2, 3], FunctionSpec.constant(3))
    rep = make_instance(1, s_spec, b_spec, horizon_cap=30).check_restrictions(30)
    assert rep.restriction2_last_violation == 2


def test_report_on_invalid_schedule_scans_only_valid_prefix() -> None:
    s_spec = FunctionSpec.table([5, 5, 1], FunctionSpec.constant(5))
    rep = make_instance(2, s_spec, 0, horizon_cap=10).check_restrictions(10)
    assert not rep.validity_ok
    assert rep.first_invalid_index == 3
    # The restriction-2 scan stops before the invalid index.
    assert rep.restriction2_last_violation is None


def test_report_invalid_index_past_horizon_counts_as_valid() -> None:
    s_spec = FunctionSpec.table([5, 5, 5, 5, 1], FunctionSpec.constant(5))
    rep = make_instance(2, s_spec, 0, horizon_cap=10).check_restrictions(3)
    assert rep.validity_ok
    assert rep.first_invalid_index is None


# ------------------------------------------------------------- properties


@st.composite
def memory_tables(draw):
    """A raw memory table plus the horizon it covers."""
    values = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=12))
    return values


@settings(max_examples=200, deadline=None)
@given(memory_tables())
def test_restriction1_iff_nondecreasing_memory_gap(b_values) -> None:
    horizon = len(b_values)
    b_spec = FunctionSpec.table(b_values, FunctionSpec.constant(b_values[-1]))
    inst = make_instance(1, 100, b_spec, horizon_cap=horizon)
    rep = inst.check_restrictions(horizon)
    gaps = [i - inst.b_at(i) for i in range(1, horizon + 1)]
    nondecreasing = all(x <= y for x, y in zip(gaps, gaps[1:]))
    assert rep.restriction1_ok == nondecreasing


def raw_functions(lo: int, hi: int):
    """Specs of every kind with values mostly in [lo, hi]. Tables nest over any
    kind, so their prefixes shadow each other and some end in generated values."""
    values = st.lists(st.integers(lo, hi), max_size=12)
    leaves = st.one_of(
        st.builds(FunctionSpec.constant, st.integers(max(lo, 0), hi)),
        st.builds(FunctionSpec.affine, st.integers(-1, 2), st.integers(lo, hi)),
        st.builds(FunctionSpec.generated, values),
    )
    return st.recursive(leaves, lambda tails: st.builds(FunctionSpec.table, values, tails), max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(raw_functions(-2, 9))
def test_every_spec_reads_prefix_then_tail_then_closed_form(fs) -> None:
    assert parse_function(fs.to_obj(), "f") == fs
    horizon = fs.hard_horizon()
    stream = list(islice(fs, 40))
    # Tables hold at most 12 values, so a stream that stops does so by index 12.
    assert len(stream) == (40 if horizon is None else horizon)
    assert stream == [fs.value_at(i) for i in range(1, len(stream) + 1)]
    if horizon is not None:
        with pytest.raises(IndexBeyondHorizon):
            fs.value_at(horizon + 1)

    bumped = spec_plus_one(fs)
    assert parse_function(bumped.to_obj(), "f") == bumped
    assert bumped.hard_horizon() == horizon
    assert list(islice(bumped, 40)) == [v + 1 for v in stream]

    ec = fs.eventually_constant()
    if ec is not None:
        value, start = ec
        assert horizon is None and stream[start - 1 :] == [value] * (41 - start)
    bound = bounded_memory_gap(fs)
    if bound is not None:
        gaps = [i - (min(v, i) if v >= 0 else 0) for i, v in enumerate(stream, 1)]
        # With no negative value the bound is attained, by the index where the affine tail starts.
        assert bound >= max(gaps) and (min(stream) < 0 or bound == max(gaps))


@settings(max_examples=300, deadline=None)
@given(raw_functions(-1, 6), raw_functions(0, 8), raw_functions(-2, 14), st.integers(1, 20))
def test_values_read_from_prefix_sums_equal_the_raw_spec(r_spec, s_spec, b_spec, cap) -> None:
    inst = GameInstance(make_spec(r_spec, s_spec, b_spec), horizon_cap=cap)
    # Generated values can end before the requested cap.
    cap = inst.horizon_cap
    first_invalid = None
    for i in range(1, cap + 1):
        r, s, b = r_spec.value_at(i), s_spec.value_at(i), b_spec.value_at(i)
        if not (1 <= r < s and b >= 0):
            first_invalid = i
            break
        assert inst.evaluate(i) == (r, s, min(b, i))
        assert (inst.r_at(i), inst.s_at(i), inst.b_at(i)) == (r, s, min(b, i))
    assert inst.first_invalid_index == first_invalid
    for i in range(first_invalid or cap + 1, cap + 1):
        for read in (inst.r_at, inst.s_at, inst.evaluate):
            with pytest.raises(SpecInvalid):
                read(i)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=5, max_value=9),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_larger_memory_never_shrinks_the_window_gap_pool(r, s, b_small, extra) -> None:
    """Ltilde under memory b is >= Ltilde under memory b + extra, pointwise.

    A larger memory bound excludes more recent arrival days from the
    very-old pool, so the pool can only shrink.
    """
    horizon = 30
    small = make_instance(r, s, b_small, horizon_cap=horizon)
    large = make_instance(r, s, b_small + extra, horizon_cap=horizon)
    for i in range(1, horizon + 1):
        assert small.very_old_level(i) >= large.very_old_level(i)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=9))
def test_memoryless_identity_constant(r, s_extra) -> None:
    s = r + s_extra
    inst = make_instance(r, s, 0, horizon_cap=50)
    for i in range(1, 51):
        assert inst.very_old_level(i) == inst.cave_level(i) + inst.r_at(i)


# ------------------------------------------------------------- plus-one


def test_spec_plus_one_commutes_with_clamp() -> None:
    for fs in (
        FunctionSpec.constant(0),
        FunctionSpec.constant(3),
        FunctionSpec.affine(1, 0),
        FunctionSpec.table([0, 5, 1], FunctionSpec.constant(2)),
    ):
        bumped = spec_plus_one(fs)
        for i in range(1, 20):
            raw = fs.value_at(i)
            assert min(bumped.value_at(i), i) == min(min(raw, i) + 1, i)


def test_bounded_memory_gap_detection() -> None:
    # b(i) = i keeps i - b(i) = 0 forever.
    assert bounded_memory_gap(FunctionSpec.affine(1, 0)) == 0
    # b(i) = i + 5 clamps to i: same bounded gap.
    assert bounded_memory_gap(FunctionSpec.affine(1, 5)) == 0
    # Constant memory: the gap grows without bound.
    assert bounded_memory_gap(FunctionSpec.constant(2)) is None
    # Table prefix then full memory.
    fs = FunctionSpec.table([0, 0], FunctionSpec.affine(1, 0))
    assert bounded_memory_gap(fs) == 2
