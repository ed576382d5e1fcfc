"""The running exactly rounded sum and the three float kernels built on it.

``RunningSum`` must agree bit for bit with ``math.fsum`` of every prefix,
and its callers must give what the quadratic code gave: log-space survival
(one ``math.fsum`` of the log terms per night), ``series_diagnostics`` (one
``Fraction`` per term) and the ``validate --csv`` ``partial_sum`` column.
Those references are kept here. The last two tests count the elements
passed to ``math.fsum`` instead of timing anything, so they fail on the
quadratic code on any machine.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from decimal import Decimal, localcontext
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
    LimitExceeded,
    RobinHoodError,
    ScheduleSpec,
    series_diagnostics,
    survival_curve,
)
from robinhood.analysis import RunningSum
from robinhood.cli import dispatch

from .conftest import make_instance
from .per_night_kernels import ref_cell

MAGNITUDES = [1e16, -1e16, 1.0, -1.0, 1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]

finite_terms = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from(MAGNITUDES),
    st.floats(min_value=-1e-307, max_value=1e-307),
)


def _fsum_outcome(terms: list[float]) -> str:
    try:
        return repr(math.fsum(terms))
    except OverflowError as exc:
        return type(exc).__name__


@given(
    terms=st.lists(finite_terms, max_size=60),
    neg_inf_at=st.one_of(st.none(), st.integers(0, 60)),
)
@example(terms=[1e16, 1.0, -1e16], neg_inf_at=None)
@example(terms=[1e16, 1.0, -1e16], neg_inf_at=2)
@example(terms=[5e-324, 5e-324, -1e-323, 0.0, -0.0], neg_inf_at=None)
@settings(max_examples=400, deadline=None)
def test_running_sum_is_fsum_of_every_prefix(terms, neg_inf_at) -> None:
    if neg_inf_at is not None:
        terms.insert(min(neg_inf_at, len(terms)), -math.inf)
    total = RunningSum()
    assert repr(total.value) == repr(math.fsum([]))
    for k, x in enumerate(terms, start=1):
        total.add(x)
        # repr tells 0.0 from -0.0 and compares nan and inf as text.
        assert repr(total.value) == _fsum_outcome(terms[:k])
        if neg_inf_at is not None and neg_inf_at < k:
            assert total.value == -math.inf


def test_running_sum_state_stays_within_the_float_range_of_bits() -> None:
    # Every float is n / 2**k with k <= 1074 and |n| < 2**1024 * 2**1074.
    rnd = random.Random(16)
    total = RunningSum()
    terms = []
    for _ in range(10_000):
        x = math.ldexp(rnd.uniform(-1.0, 1.0), rnd.randint(-1074, 1000))
        total.add(x)
        terms.append(x)
    assert total.value == math.fsum(terms)
    assert total._den <= 2**1074
    assert total._num.bit_length() < 2200


def test_running_sum_overflows_where_fsum_does() -> None:
    total = RunningSum()
    total.add(1.7e308)
    with pytest.raises(OverflowError):
        total.add(1.7e308)
    assert _fsum_outcome([1.7e308, 1.7e308]) == "OverflowError"


def draw_schedule(draw, cap: int, unit: int) -> ScheduleSpec:
    """A Restriction-1 schedule. A memory that often grows by one a night
    holds the cutoff, so the very-old pool drains into window dips; r then
    sometimes takes the whole pool or all but a few of its bags."""
    r: list[int] = []
    s: list[int] = []
    b: list[int] = []
    sum_s, sum_r = [0], [0]
    for i in range(1, cap + 1):
        b.append(0 if i == 1 else max(0, b[-1] + draw(st.sampled_from([1, 1, 0, -1, -3]))))
        cutoff = i - b[-1]
        pool = max(0, sum_s[cutoff] - sum_r[i - 1]) if cutoff < i else 0
        kind = draw(st.sampled_from(["any", "any", "sweep", "near"]))
        if kind == "sweep" and pool > 0:
            r.append(pool)
        elif kind == "near" and pool > 5:
            r.append(pool - draw(st.integers(1, 5)))
        else:
            r.append(draw(st.integers(1, 3)) * unit)
        s.append(r[-1] + draw(st.integers(1, 9)) * unit + draw(st.integers(0, 9)))
        sum_s.append(sum_s[-1] + s[-1])
        sum_r.append(sum_r[-1] + r[-1])
    return ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.table(b, FunctionSpec.constant(0)),
    )


@st.composite
def restriction1_instances(draw) -> GameInstance:
    cap = draw(st.integers(1, 40))
    return GameInstance(draw_schedule(draw, cap, unit=1), horizon_cap=cap)


def ref_log_term(count: int, take: int) -> float:
    """log(1 - take/count): log1p of the ratio up to 1/2, else from the integers."""
    if take == count:
        return -math.inf
    if Fraction(take, count) <= Fraction(1, 2):
        return math.log1p(-(take / count))
    return math.log(count - take) - math.log(count)


def ref_log_curve(inst: GameInstance, d: int, horizon: int, mode: str) -> list[float]:
    """log_value at N = d-1..horizon: math.fsum of every log term so far."""
    log_terms: list[float] = []
    out = [0.0]
    for i in range(d, horizon + 1):
        if mode == MODE_EXACT:
            count, take = ref_cell(inst, d, i)
        else:
            count, take = inst.very_old_level(i), inst.r_at(i)
        if take:
            log_terms.append(ref_log_term(count, take))
        out.append(math.fsum(log_terms))
    return out


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RobinHoodError as exc:
        return type(exc)


@given(inst=restriction1_instances(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_log_survival_equals_the_fsum_fold(inst, data) -> None:
    d = data.draw(st.integers(1, inst.horizon_cap))
    horizon = data.draw(st.integers(d, inst.horizon_cap))
    for mode in (MODE_EXACT, MODE_PAPER):
        got = _outcome(survival_curve, inst, d, horizon, mode=mode, space=SPACE_LOG)
        # Both spaces check the same preconditions before any night.
        refused = _outcome(survival_curve, inst, d, horizon, mode=mode, space=SPACE_RATIONAL)
        if isinstance(refused, type):
            assert got is refused
            continue
        want = ref_log_curve(inst, d, horizon, mode)
        assert [res.horizon for res in got] == list(range(d - 1, horizon + 1))
        assert [repr(res.log_value) for res in got] == [repr(x) for x in want]
        assert [res.value for res in got] == [math.exp(x) for x in want]


def test_log_survival_fold_reaches_window_dips_and_whole_cell_takes() -> None:
    # b grows by one a night from 0: the very-old pool is empty on nights
    # 3-6 (window dips), so the day-2 bag's own cell of 1 bag is taken
    # whole on night 4, and -inf must stay -inf to the end.
    memory = FunctionSpec.table([0, 1, 2, 3, 4, 5], FunctionSpec.constant(0))
    inst = make_instance(1, 2, memory, horizon_cap=12)
    assert inst.window_dips.first(1, 12) == 3
    curve = survival_curve(inst, 2, 12, mode=MODE_EXACT, space=SPACE_LOG)
    assert [res.log_value for res in curve] == ref_log_curve(inst, 2, 12, MODE_EXACT)
    assert [res.log_value for res in curve[:3]] == [0.0, 0.0, math.log(0.5)]
    assert all(res.log_value == -math.inf and res.value == 0.0 for res in curve[3:])


@st.composite
def steep_instances(draw) -> GameInstance:
    """b = 0 schedules whose nights take more than half of the pool, up to
    all but one of its bags, from pools of up to about 10^20 bags."""
    cap = draw(st.integers(1, 12))
    r: list[int] = []
    s: list[int] = []
    level = 0
    for _ in range(cap):
        s.append(level + draw(st.integers(3, 10 ** draw(st.integers(1, 20)))))
        pool = level + s[-1]
        r.append(draw(st.one_of(st.integers(pool // 2 + 1, s[-1] - 1), st.just(s[-1] - 1))))
        level = pool - r[-1]
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table(s, FunctionSpec.constant(2)),
        b_spec=FunctionSpec.constant(0),
    )
    return GameInstance(spec, horizon_cap=cap)


def exact_log(value: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(value.numerator).ln() - Decimal(value.denominator).ln()


@given(inst=steep_instances())
@settings(max_examples=300, deadline=None)
def test_log_value_is_the_log_of_the_exact_value_above_half_ratios(inst) -> None:
    # Independent of the fold: each log_value against 60-digit logs of the
    # exact rational survival at the same N (b = 0, so both modes agree).
    cap = inst.horizon_cap
    assert all(2 * inst.r_at(i) > inst.very_old_level(i) for i in range(1, cap + 1))
    for mode in (MODE_EXACT, MODE_PAPER):
        exact = survival_curve(inst, 1, cap, mode=mode)
        log = survival_curve(inst, 1, cap, mode=mode, space=SPACE_LOG)
        for e, g in zip(exact[1:], log[1:]):
            want = exact_log(e.value)
            assert abs(Decimal(g.log_value) - want) <= Decimal("1e-12") * abs(want)


def test_log_value_near_one_matches_the_integers() -> None:
    # Night 2 takes 10^16 - 1 of 10^16 + 1 bags: log1p of the rounded ratio
    # gave -37.0245, where log(3/40000000000000004) = -37.1290.
    big = 10**16
    spec = ScheduleSpec(
        r_spec=FunctionSpec.table([1, big - 1], FunctionSpec.constant(1)),
        s_spec=FunctionSpec.table([2, big], FunctionSpec.constant(2)),
        b_spec=FunctionSpec.constant(0),
    )
    inst = GameInstance(spec, horizon_cap=3)
    for mode in (MODE_EXACT, MODE_PAPER):
        assert survival_curve(inst, 1, 3, mode=mode)[-1].value == Fraction(3, 4 * big + 4)
        assert survival_curve(inst, 1, 3, mode=mode, space=SPACE_LOG)[-1].log_value == -37.129043560356514


def ref_series_diagnostics(inst: GameInstance, horizon: int) -> tuple:
    """The Fraction-per-term loop: (partial_sum, last_term, slope, first_undefined)."""
    floats: list[float] = []
    points: list[tuple[int, float]] = []
    last_term = None
    first_undefined = None
    for i in range(1, horizon + 1):
        ltilde = inst.very_old_level(i)
        if ltilde == 0:
            if first_undefined is None:
                first_undefined = i
            continue
        term = Fraction(inst.r_at(i), ltilde)
        last_term = term
        value = float(term)
        floats.append(value)
        if value > 0.0:
            points.append((i, value))
    low = max(2, horizon // 10)
    window = [(math.log(i), math.log(v)) for i, v in points if i >= low]
    if len(window) > 64:
        window = window[:: len(window) // 64 + 1]
    slope = None
    if len(window) >= 2 and window[0][0] != window[-1][0]:
        xbar = math.fsum(x for x, _ in window) / len(window)
        ybar = math.fsum(y for _, y in window) / len(window)
        sxx = math.fsum((x - xbar) ** 2 for x, _ in window)
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in window)
        if sxx > 0.0:
            slope = sxy / sxx
    return math.fsum(floats), last_term, slope, first_undefined


@st.composite
def big_value_instances(draw) -> GameInstance:
    """Schedules of 400+ digit values: empty pools, pools of a few bags
    against a huge r (a term past the float range), sometimes an invalid day."""
    cap = draw(st.integers(1, 60))
    spec = draw_schedule(draw, cap, unit=10 ** draw(st.integers(400, 420)))
    if draw(st.integers(0, 4)) == 0:
        r = list(spec.r_spec.values)
        s = list(spec.s_spec.values)
        at = draw(st.integers(0, cap - 1))
        r[at] = s[at]
        spec = ScheduleSpec(
            r_spec=FunctionSpec.table(r, FunctionSpec.constant(1)),
            s_spec=spec.s_spec,
            b_spec=spec.b_spec,
        )
    return GameInstance(spec, horizon_cap=cap)


def _diag_outcome(fn, *args):
    try:
        return fn(*args)
    except RobinHoodError as exc:
        return type(exc)


def _ref_diag_outcome(fn, *args):
    """``_diag_outcome`` of a reference; the package raises its float overflow as LimitExceeded."""
    try:
        return _diag_outcome(fn, *args)
    except OverflowError:
        return LimitExceeded


@given(inst=big_value_instances(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_series_diagnostics_equals_the_fraction_reference(inst, data) -> None:
    horizon = data.draw(st.integers(1, inst.horizon_cap))
    got = _diag_outcome(series_diagnostics, inst, horizon)
    want = _ref_diag_outcome(ref_series_diagnostics, inst, horizon)
    if isinstance(want, type):
        assert got is want
        return
    partial_sum, last_term, slope, first_undefined = want
    assert repr(got.partial_sum) == repr(partial_sum)
    assert got.last_term == last_term and type(got.last_term) is type(last_term)
    assert repr(got.term_decay_exponent_estimate) == repr(slope)
    assert got.first_undefined_index == first_undefined


def test_series_diagnostics_reports_an_empty_pool_and_the_last_term() -> None:
    # b grows by one a night from 0, so the very-old pool of 10^400-scale
    # bags is empty on nights 3-6; b = 0 from night 7 refills it.
    big = 10**400
    s = FunctionSpec.table([2 * big], FunctionSpec.constant(2 * big + 1))
    memory = FunctionSpec.table([0, 1, 2, 3, 4, 5], FunctionSpec.constant(0))
    inst = make_instance(big, s, memory, horizon_cap=8)
    got = series_diagnostics(inst, 8)
    partial_sum, last_term, slope, first_undefined = ref_series_diagnostics(inst, 8)
    assert got.first_undefined_index == first_undefined == 3
    assert got.last_term == last_term == Fraction(big, 9 * big + 7)
    assert repr(got.partial_sum) == repr(partial_sum)
    assert repr(got.term_decay_exponent_estimate) == repr(slope)


def _csv_rows(capsys, schedule_path: str, horizon: int) -> list[dict[str, str]]:
    assert dispatch(["validate", schedule_path, "--horizon", str(horizon), "--csv"]) in (0, 1)
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_csv_partial_sum_is_fsum_of_the_terms_so_far(tmp_path, capsys) -> None:
    # 400-digit values, an empty pool on nights 4-5 (blank terms) and an
    # invalid day 8 that ends the table.
    big = 10**400
    r = [big, big - 1, 1, 1, 1, big, 1, 5]
    s = [2 * big, 2 * big, 9, 2, 2, 2 * big, 3, 2]
    b = [0, 1, 2, 3, 4, 1, 0]
    path = tmp_path / "sched.json"
    path.write_text(
        json.dumps(
            {
                "r": {"kind": "table", "values": r, "tail": {"kind": "constant", "value": 1}},
                "s": {"kind": "table", "values": s, "tail": {"kind": "constant", "value": 2}},
                "b": {"kind": "table", "values": b, "tail": {"kind": "constant", "value": 0}},
            }
        ),
        encoding="utf-8",
    )
    rows = _csv_rows(capsys, str(path), 12)
    assert [row["i"] for row in rows] == [str(i) for i in range(1, 8)]
    assert [row["term"] == "" for row in rows] == [False, False, False, True, True, False, False]
    terms: list[float] = []
    for row in rows:
        if row["term"]:
            terms.append(float(Fraction(row["term"])))
        assert row["partial_sum"] == repr(math.fsum(terms))
    assert [row["partial_sum"] for row in rows] == ["0.5", "1.5", "2.5", "2.5", "2.5", "3.0", "3.0"]


@pytest.fixture()
def fsum_elements(monkeypatch) -> list[int]:
    """Counts the elements every math.fsum call receives."""
    counted = [0]
    real = math.fsum

    def counting(terms):
        terms = list(terms)
        counted[0] += len(terms)
        return real(terms)

    monkeypatch.setattr(math, "fsum", counting)
    return counted


N = 5000


def test_log_survival_passes_linear_work_to_fsum(fsum_elements) -> None:
    inst = make_instance(1, 2, 0, horizon_cap=N)
    curve = survival_curve(inst, 1, N, space=SPACE_LOG)
    assert curve[-1].value == pytest.approx(1 / (N + 1), rel=1e-12)
    # The quadratic fold passes about N^2 / 2 elements.
    assert fsum_elements[0] <= 4 * N


def test_csv_partial_sum_passes_linear_work_to_fsum(tmp_path, capsys, fsum_elements) -> None:
    path = tmp_path / "sched.json"
    path.write_text(
        json.dumps({name: {"kind": "constant", "value": v} for name, v in (("r", 1), ("s", 2), ("b", 0))}),
        encoding="utf-8",
    )
    rows = _csv_rows(capsys, str(path), N)
    assert len(rows) == N
    assert fsum_elements[0] <= 4 * N
