"""``GameInstance.terms`` and ``cells`` against the per-night calls they replace.

Each stream checks its range once, at the call, and then reads the prefix
sums night by night. It must yield what the per-night calls give, item for
item, and raise what the first failing per-night call raises, before any
item. The kernels that read the streams must give what their former
per-night loops gave (``tests/per_night_kernels.py``), and must make a
number of checked calls that does not grow with the horizon.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    RobinHoodError,
    ScheduleSpec,
    SeriesDiagnostics,
    SpecInvalid,
    classify,
    empirical_survival,
    load_schedule,
    run_trace,
    series_diagnostics,
    survival_curve,
    survival_probability,
)
from robinhood.analysis import RULE_CONVERGENT, _survival_points

from .conftest import make_instance, make_spec
from .per_night_kernels import ref_cell, ref_series_diagnostics, ref_survival_points
from .test_cell_ledger import dip_instances
from .test_schedule import raw_functions

MODES = [(mode, space) for mode in (MODE_PAPER, MODE_EXACT) for space in (SPACE_RATIONAL, SPACE_LOG)]

# Constant, affine, table and generated specs: clamps (b > i), negative b
# and invalid days; or Restriction-1 schedules with window dips, memory
# breaks and invalid days.
instances = st.one_of(
    st.builds(
        lambda r, s, b, cap: GameInstance(make_spec(r, s, b), horizon_cap=cap),
        raw_functions(-1, 6),
        raw_functions(0, 8),
        raw_functions(-2, 14),
        st.integers(0, 20),
    ),
    dip_instances(),
)


def _per_night(read, lo: int, hi: int):
    """The items of read(lo), ..., read(hi) up to the first error, and that error."""
    items = []
    try:
        for i in range(lo, hi + 1):
            items.append(read(i))
    except RobinHoodError as exc:
        return items, (type(exc), str(exc))
    return items, None


def _streamed(make):
    """The items of the stream make() up to its error, and that error."""
    items = []
    try:
        for item in make():
            items.append(item)
    except RobinHoodError as exc:
        return items, (type(exc), str(exc))
    return items, None


def _assert_same(make, want) -> None:
    want_items, want_error = want
    got = _streamed(make)
    if want_error is None:
        assert got == (want_items, None)
        return
    # The stream raises the first failing night's error before any item,
    # at the call itself.
    assert got == ([], want_error)
    with pytest.raises(want_error[0]):
        make()


@settings(max_examples=400, deadline=None)
@given(inst=instances, data=st.data())
def test_streams_equal_the_per_night_calls(inst, data) -> None:
    cap = inst.horizon_cap
    lo = data.draw(st.integers(-2, cap + 3), label="lo")
    hi = data.draw(st.integers(-2, cap + 3), label="hi")
    d = data.draw(st.integers(-1, cap + 2), label="d")
    _assert_same(lambda: inst.terms(lo, hi), _per_night(lambda i: (inst.r_at(i), inst.very_old_level(i)), lo, hi))
    _assert_same(lambda: inst.cells(d, lo, hi), _per_night(lambda i: ref_cell(inst, d, i), lo, hi))


def table_invalid_from(day: int) -> FunctionSpec:
    """Arrivals of 2 a day with s = 1 from ``day`` on, so r = 1 is invalid there."""
    return FunctionSpec.table([2] * (day - 1), FunctionSpec.constant(1))


def test_empty_ranges_yield_nothing_and_check_nothing() -> None:
    inst = make_instance(1, table_invalid_from(3), 0, horizon_cap=5)
    for lo, hi in [(1, 0), (5, 4), (10**6, -(10**6)), (-3, -4), (9, 2)]:
        assert list(inst.terms(lo, hi)) == []
        for d in (-1, 0, 1, 9):
            assert list(inst.cells(d, lo, hi)) == []
    # The same ranges, one night wider, reach the invalid day or the edge.
    with pytest.raises(SpecInvalid, match="schedule invalid from day 3"):
        inst.terms(3, 3)
    with pytest.raises(IndexBeyondHorizon, match=r"night 0 outside \[1, 5\]"):
        inst.terms(0, 0)
    with pytest.raises(IndexBeyondHorizon, match="cell of day 0 on night 1"):
        inst.cells(0, 1, 1)


def test_cells_raise_the_memory_break_before_a_later_invalid_day() -> None:
    # b jumps by 2 at night 3 (break after night 2), and day 4 is invalid.
    memory = FunctionSpec.table([0, 0, 2], FunctionSpec.constant(0))
    inst = make_instance(1, table_invalid_from(4), memory, horizon_cap=6)
    assert list(inst.cells(1, 1, 2)) == [ref_cell(inst, 1, 1), ref_cell(inst, 1, 2)]
    with pytest.raises(RestrictionViolated, match="at night 2"):
        inst.cells(1, 1, 6)
    with pytest.raises(IndexBeyondHorizon, match="cell of day 2 on night 1"):
        inst.cells(2, 1, 6)
    # terms read no memory restriction: they stop at the invalid day only.
    assert len(list(inst.terms(1, 3))) == 3
    with pytest.raises(SpecInvalid):
        inst.terms(2, 4)


# Arrivals of 2 to 9 bags or of 10^400-scale ones: r/Ltilde can round to
# 0.0 and the log factors can be -0.0; memory that often grows by one
# drains the pool into window dips.
HUGE = 10**400


@st.composite
def kernel_instances(draw) -> GameInstance:
    cap = draw(st.one_of(st.integers(1, 19), st.integers(20, 160)))
    r: list[int] = []
    s: list[int] = []
    b = [0]
    for i in range(cap):
        s.append(draw(st.sampled_from([2, 3, 9, HUGE, 3 * HUGE + 1])))
        r.append(draw(st.one_of(st.integers(1, min(5, s[-1] - 1)), st.just(s[-1] - 1))))
        if i:
            b.append(max(0, b[-1] + draw(st.sampled_from([1, 1, 0, -1, -3]))))
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, cap - 1))
        r[at] = s[at]
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(0)),
    )
    return GameInstance(spec, horizon_cap=cap)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RobinHoodError as exc:
        return type(exc), str(exc)


def _ref_outcome(fn, *args):
    """``_outcome`` of a reference loop; the package raises its float overflow as LimitExceeded."""
    try:
        return _outcome(fn, *args)
    except OverflowError:
        return LimitExceeded


def _assert_same_outcome(got, want) -> None:
    if want is LimitExceeded:
        assert isinstance(got, tuple) and got[0] is LimitExceeded, got
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(inst=kernel_instances(), data=st.data())
@example(inst=make_instance(1, HUGE, 0, horizon_cap=12), data=None)
def test_streamed_kernels_equal_their_per_night_loops(inst, data) -> None:
    cap = inst.horizon_cap
    horizon = cap if data is None else data.draw(st.integers(1, cap + 1), label="horizon")
    d = 1 if data is None else data.draw(st.integers(1, horizon + 1), label="d")
    got = _outcome(series_diagnostics, inst, horizon)
    assert got == _outcome(ref_series_diagnostics, inst, horizon)
    if data is None:
        # 1/(10^400 + ...) rounds to 0.0 on every night: no slope candidates.
        assert got.partial_sum == 0.0 and got.term_decay_exponent_estimate is None
    for mode, space in MODES:
        _assert_same_outcome(
            _outcome(lambda: list(_survival_points(inst, d, horizon, mode, space))),
            _ref_outcome(lambda: list(ref_survival_points(inst, d, horizon, mode, space))),
        )


@settings(max_examples=100, deadline=None)
@given(inst=kernel_instances(), data=st.data())
@example(inst=make_instance(1, HUGE, 0, horizon_cap=12), data=None)
def test_survival_curve_results_equal_the_per_night_loop(inst, data) -> None:
    # The points survival_curve builds, not only the fold under them, against the per-night loop.
    # Days reach past both ends, and invalid days and thin pools raise, so errors must match too.
    cap = inst.horizon_cap
    horizon = cap if data is None else data.draw(st.integers(0, cap + 1), label="horizon")
    d = 1 if data is None else data.draw(st.integers(0, horizon + 2), label="d")
    for mode, space in MODES:

        def points():
            curve = survival_curve(inst, d, horizon, mode=mode, space=space)
            assert {(p.day, p.mode, p.space) for p in curve} == {(d, mode, space)}
            return [(p.horizon, p.value, p.log_value) for p in curve]

        _assert_same_outcome(
            _outcome(points), _ref_outcome(lambda: list(ref_survival_points(inst, d, horizon, mode, space)))
        )


@st.composite
def closed_tail_instances(draw) -> GameInstance:
    """A table prefix of up to 5 days, then affine r, s = r + d and b tails, on up to 400 nights.

    b's slope reaches 2, so some clamp pieces have a constant cutoff, and b can
    go negative, which makes its days invalid; r = i, d = 1, b = 3 empties the
    very-old pool on every night. Scaled by 10^400, r gives terms past the
    float range or huge ones, and d terms that round to 0.0.
    """
    unit_r, unit_d = draw(st.sampled_from([(1, 1), (1, 1), (1, 1), (HUGE, 1), (1, HUGE)]))
    ar = draw(st.integers(0, 2))
    r = (ar * unit_r, draw(st.integers(1 - ar, 4)) * unit_r)
    ad = draw(st.integers(0, 2))
    d = (ad * unit_d, draw(st.integers(1 - ad, 4)) * unit_d)
    b = (draw(st.sampled_from([0, 0, 0, 0, 1, 2, -1])), draw(st.sampled_from([0, 0, 1, 1, 2, 3, 5, -2])))
    prefix = draw(st.integers(0, 5))
    jitter = st.lists(st.integers(-1, 1), min_size=prefix, max_size=prefix)
    r_values = [max(1, r[0] * i + r[1] + e) for i, e in enumerate(draw(jitter), 1)]
    s_values = [v + max(1, d[0] * i + d[1] + e) for i, (v, e) in enumerate(zip(r_values, draw(jitter)), 1)]
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r_values, FunctionSpec.affine(*r)),
        s_spec=FunctionSpec.table(s_values, FunctionSpec.affine(r[0] + d[0], r[1] + d[1])),
        b_spec=FunctionSpec.table(draw(st.lists(st.integers(0, 4), max_size=prefix)), FunctionSpec.affine(*b)),
    )
    return GameInstance(spec, horizon_cap=prefix + draw(st.integers(1, 395)))


@settings(max_examples=300, deadline=None)
@given(inst=closed_tail_instances(), data=st.data())
def test_closed_tails_equal_the_per_night_calls(inst, data) -> None:
    # Nights past the table prefix: the runs that series_diagnostics sums or skips whole, and
    # that terms zips, against one checked call per night, errors included.
    cap = inst.horizon_cap
    horizon = data.draw(st.integers(1, cap + 1), label="horizon")
    lo = data.draw(st.integers(-1, cap + 2), label="lo")
    hi = data.draw(st.integers(lo - 1, cap + 3), label="hi")
    assert _outcome(series_diagnostics, inst, horizon) == _outcome(ref_series_diagnostics, inst, horizon)
    _assert_same(lambda: inst.terms(lo, hi), _per_night(lambda i: (inst.r_at(i), inst.very_old_level(i)), lo, hi))


@pytest.mark.parametrize(
    "inst, want",
    [
        # Ltilde(i) = -i: the pool is empty on every night.
        (make_instance(FunctionSpec.affine(1, 0), FunctionSpec.affine(1, 1), 3), SeriesDiagnostics(200, 0.0, None, None, 1)),
        # Ltilde(i) = i - 1 against r(i) = 10^400.
        (make_instance(HUGE, HUGE + 1, 1), (LimitExceeded, "term r(2)/Ltilde(2) of night 2 exceeds the float range")),
        # Every term 1/(10^400 i (i + 1)/2 + i + 1) rounds to 0.0: no slope candidates.
        (
            make_instance(1, FunctionSpec.affine(HUGE, 2), 0),
            SeriesDiagnostics(200, 0.0, Fraction(1, HUGE * 100 * 201 + 201), None, None),
        ),
    ],
)
def test_closed_runs_that_are_empty_past_the_float_range_or_round_to_zero(inst, want) -> None:
    assert _outcome(series_diagnostics, inst, 200) == want


class CheckCounter:
    """Counts the calls of the instance's read checks."""

    NAMES = ("check_horizon", "require_valid", "require_playable")

    def __init__(self, monkeypatch) -> None:
        self.calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            monkeypatch.setattr(GameInstance, name, self._counted(name, getattr(GameInstance, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def count(self, fn) -> dict[str, int]:
        self.calls = dict.fromkeys(self.NAMES, 0)
        fn()
        return dict(self.calls)


def _thm22_file(path) -> str:
    """A Thm2.2 schedule: r = 1, s(i) = 2i + 1, b = 0 gives Ltilde(i) = i^2 + i + 1,
    so term(i) <= 1/i^2 on every night; the provenance names the b side of a
    separating instance, which the classifier re-verifies night by night."""
    obj = {
        "r": {"kind": "constant", "value": 1},
        "s": {"kind": "affine", "a": 2, "c": 1},
        "b": {"kind": "constant", "value": 0},
        "provenance": {"generator": "separating-instance", "role": "b"},
    }
    path.write_text(json.dumps(obj))
    return str(path)


def test_kernels_make_a_constant_number_of_checked_calls(monkeypatch, tmp_path) -> None:
    """Each kernel's checks, and the simulator's, are per range, not per night: the counts at
    horizon 10^4 equal those at horizon 100. Survival runs on r = 1, s = 2,
    b = 0, whose exact product 1/(N + 1) stays small."""
    thm22 = load_schedule(_thm22_file(tmp_path / "thm22.json"))
    harmonic = make_spec(1, 2, 0)
    assert classify(GameInstance(thm22, horizon_cap=10**4), 10**4).rule == RULE_CONVERGENT
    kernels = [
        ("series_diagnostics", thm22, series_diagnostics),
        ("classify", thm22, classify),
        ("empirical_survival", harmonic, lambda inst, n: empirical_survival(inst, 3, n, 20, seed=1)),
        ("run_trace", harmonic, lambda inst, n: run_trace(inst, "oldest-rnd", n, 1, tagged_days=[3, (5, 2)])),
    ]
    for mode, space in MODES:
        survival = lambda inst, n, mode=mode, space=space: survival_probability(inst, 3, n, mode, space)  # noqa: E731
        kernels.append((f"survival {mode} {space}", harmonic, survival))
    counter = CheckCounter(monkeypatch)
    for name, spec, kernel in kernels:
        small, large = GameInstance(spec, horizon_cap=100), GameInstance(spec, horizon_cap=10**4)
        at_small = counter.count(lambda: kernel(small, 100))
        at_large = counter.count(lambda: kernel(large, 10**4))
        assert at_large == at_small, (name, at_small, at_large)

