"""Survival probabilities, series terms, diagnostics, and classification."""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinhood import analysis
from robinhood import (
    KIND_ROBIN_AS,
    KIND_ROBIN_SURELY,
    KIND_SHERIFF_AS,
    KIND_UNDETERMINED,
    MODE_EXACT,
    MODE_PAPER,
    SPACE_LOG,
    SPACE_RATIONAL,
    FunctionSpec,
    GameInstance,
    IndexBeyondHorizon,
    RestrictionViolated,
    RobinHoodError,
    SpecInvalid,
    SurvivalResult,
    VerificationFailed,
    classify,
    separating_instance,
    series_diagnostics,
    survival_curve,
    survival_probability,
)

from .conftest import make_instance

# The hand-checkable generated pair (three construction steps, memoryless
# small side): r doubles-then-cubes as 2, 6, 216 while s runs one cube ahead.
HAND_R = [2, 6, 216]
HAND_S = [8, 216, 10077696]


def hand_instance(memory: int) -> GameInstance:
    return make_instance(
        FunctionSpec.generated(HAND_R),
        FunctionSpec.generated(HAND_S),
        memory,
        horizon_cap=3,
    )


# ------------------------------------------------------------------ terms


def test_series_term_memoryless(memoryless_121) -> None:
    assert Fraction(*next(memoryless_121.terms(9, 9))) == Fraction(1, 10)
    assert Fraction(*next(memoryless_121.terms(1, 1))) == Fraction(1, 2)


def test_series_term_reduces_generated_values() -> None:
    inst = hand_instance(0)
    # raw 6/222, reduced by the exact rational arithmetic
    assert list(inst.terms(2, 2)) == [(6, 222)]
    assert Fraction(*next(inst.terms(2, 2))) == Fraction(1, 37)


# --------------------------------------------------------------- survival


def test_telescoping_survival(memoryless_121) -> None:
    for d in (1, 2, 7, 50):
        for n in (d, d + 1, 100, 1000):
            got = survival_probability(memoryless_121, d, n).value
            assert got == Fraction(d, n + 1)


def test_survival_empty_product_is_one(memoryless_121) -> None:
    res = survival_probability(memoryless_121, 4, 3)
    assert res.value == Fraction(1)
    res_log = survival_probability(memoryless_121, 4, 3, space=SPACE_LOG)
    assert res_log.value == 1.0 and res_log.log_value == 0.0


def test_survival_horizon_below_day_minus_one_rejected(memoryless_121) -> None:
    with pytest.raises(SpecInvalid):
        survival_probability(memoryless_121, 4, 2)


def test_survival_before_day_requires_no_schedule_access() -> None:
    # horizon < d never touches the schedule, so even an instance with an
    # empty playable range answers the trivial question.
    inst = make_instance(FunctionSpec.generated([]), 2, 0, horizon_cap=50)
    assert inst.horizon_cap == 0
    assert survival_probability(inst, 5, 4).value == Fraction(1)


def test_survival_curve_is_one_pass_and_matches_pointwise(memoryless_121) -> None:
    d = 3
    curve = survival_curve(memoryless_121, d, 40)
    assert [res.horizon for res in curve] == list(range(d - 1, 41))
    for res in curve:
        assert res.value == survival_probability(memoryless_121, d, res.horizon).value


@pytest.mark.parametrize("mode", [MODE_PAPER, MODE_EXACT])
@pytest.mark.parametrize("space", [SPACE_RATIONAL, SPACE_LOG])
def test_survival_probability_keeps_only_the_last_point(memoryless_121, monkeypatch, mode, space) -> None:
    # Building the whole curve for its last entry kept every prefix product.
    real, made = analysis.SurvivalResult, []

    def counting(**fields):
        made.append(fields["horizon"])
        return real(**fields)

    monkeypatch.setattr(analysis, "SurvivalResult", counting)
    for d, horizon in ((3, 300), (5, 4)):
        made.clear()
        result = survival_probability(memoryless_121, d, horizon, mode=mode, space=space)
        assert made == [horizon]
        assert result == survival_curve(memoryless_121, d, horizon, mode=mode, space=space)[-1]


@pytest.mark.parametrize("mode", [MODE_PAPER, MODE_EXACT])
@pytest.mark.parametrize("space", [SPACE_RATIONAL, SPACE_LOG])
def test_survival_results_are_immutable_named_tuples(mode, space) -> None:
    assert SurvivalResult._fields == ("day", "horizon", "mode", "space", "value", "log_value")
    inst = make_instance(1, 3, 0, horizon_cap=50)  # Ltilde(i) = 2i + 1: the pool keeps the quota covered
    curve = survival_curve(inst, 2, 50, mode=mode, space=space)
    assert all(type(point) is SurvivalResult for point in curve)
    assert curve[-1] == survival_probability(inst, 2, 50, mode=mode, space=space)
    point = curve[1]
    with pytest.raises(AttributeError):
        point.value = 0  # type: ignore[misc]
    for twin in (pickle.loads(pickle.dumps(point)), copy.copy(point), copy.deepcopy(point)):
        assert type(twin) is SurvivalResult and twin == point and hash(twin) == hash(point)
    # A tuple of the same fields: unpacking, indexing and equality with a plain tuple.
    day, horizon, *_, value, log_value = point
    assert (day, horizon, point[2], point[3]) == (2, 2, mode, space) and point == tuple(point)
    assert sorted(curve) == curve and curve[0] < curve[-1]  # same day, mode and space: ordered by horizon
    assert (value, log_value) == ((Fraction(4, 5), None) if space == SPACE_RATIONAL else (0.8, math.log1p(-0.2)))


def test_survival_result_dicts_and_reprs_are_pinned() -> None:
    inst = make_instance(2, 3, 1, horizon_cap=40)  # a day-1 bag: 2 of 3 taken, then its whole cell
    rational = survival_curve(inst, 1, 1, mode=MODE_EXACT)[-1]
    assert rational.as_dict() == {
        "day": 1, "horizon": 1, "mode": MODE_EXACT, "space": SPACE_RATIONAL, "value": "1/3", "log_value": None,
    }
    assert repr(rational) == (
        "SurvivalResult(day=1, horizon=1, mode='exact_strategy', space='rational', value=Fraction(1, 3), log_value=None)"
    )
    log = survival_curve(inst, 1, 2, mode=MODE_EXACT, space=SPACE_LOG)[-1]
    assert log.as_dict() == {
        "day": 1, "horizon": 2, "mode": MODE_EXACT, "space": SPACE_LOG, "value": 0.0, "log_value": "-inf",
    }
    assert repr(log) == "SurvivalResult(day=1, horizon=2, mode='exact_strategy', space='log', value=0.0, log_value=-inf)"


@st.composite
def survival_cases(draw) -> tuple[GameInstance, int, int]:
    """Table schedules whose memory moves up and down, so that a cell is often
    mostly or wholly taken, with a day and a horizon that can pass 600 nights."""
    cap = draw(st.integers(1, 12))
    s = draw(st.lists(st.integers(2, 6), min_size=cap, max_size=cap))
    r = [draw(st.integers(1, x - 1)) for x in s]
    b = [0]
    for _ in range(cap - 1):  # a memory growing by one a night drains the very-old pool
        b.append(max(0, b[-1] + draw(st.sampled_from([1, 1, 0, -1, -3]))))
    inst = make_instance(
        FunctionSpec.table(r, FunctionSpec.constant(1)),
        FunctionSpec.table(s, FunctionSpec.constant(draw(st.integers(2, 4)))),
        FunctionSpec.table(b, FunctionSpec.constant(0)),
        horizon_cap=cap + 600,
    )
    d = draw(st.integers(1, cap + 2))
    return inst, d, draw(st.integers(d - 1, cap + 600))


def _outcome(call):
    """A call's value, or the class of the package error it raised."""
    try:
        return call()
    except RobinHoodError as exc:
        return type(exc)


# r=2, s=3, b=1: a day-1 bag faces 2 of 3 bags taken on night 1, then its whole cell on night 2.
@example((make_instance(2, 3, 1, horizon_cap=400), 1, 400), MODE_EXACT, SPACE_LOG)
@example((make_instance(2, 3, 1, horizon_cap=400), 1, 400), MODE_EXACT, SPACE_RATIONAL)
@example((make_instance(2, 3, 0, horizon_cap=400), 1, 400), MODE_PAPER, SPACE_LOG)
@settings(max_examples=150, deadline=None)
@given(survival_cases(), st.sampled_from([MODE_PAPER, MODE_EXACT]), st.sampled_from([SPACE_RATIONAL, SPACE_LOG]))
def test_last_survival_point_equals_the_curves(case, mode, space) -> None:
    # The product tree (rational) and the one fsum (log) against the running fold.
    inst, d, horizon = case
    got = _outcome(lambda: survival_probability(inst, d, horizon, mode=mode, space=space))
    assert got == _outcome(lambda: survival_curve(inst, d, horizon, mode=mode, space=space)[-1])


@st.composite
def big_count_cases(draw) -> tuple[GameInstance, int, int]:
    """Table schedules with batches at 2^64 and above whose quotas take a half, a third,
    all but one or (sometimes) all of a batch, so factors share primes with the product."""
    cap = draw(st.integers(1, 16))
    s = [draw(st.sampled_from([2, 6, 2**64, 2**64 + 1, 3 * 2**64, 10**30])) for _ in range(cap)]
    r = [draw(st.sampled_from([1, max(1, x // 3), x // 2, x - 1])) for x in s]
    b = [0]
    for _ in range(cap - 1):
        b.append(max(0, b[-1] + draw(st.sampled_from([1, 0, -1]))))
    inst = make_instance(
        FunctionSpec.table(r, FunctionSpec.constant(1)),
        FunctionSpec.table(s, FunctionSpec.constant(2**64)),
        FunctionSpec.table(b, FunctionSpec.constant(0)),
        horizon_cap=cap + 40,
    )
    d = draw(st.integers(1, cap + 1))
    return inst, d, draw(st.integers(d - 1, cap + 40))


# r = 2^64, s = 2^64 + 1, b = 1: a day-1 bag faces 2^64 of 2^64 + 1 taken, then its whole cell.
@example((make_instance(2**64, 2**64 + 1, 1, horizon_cap=40), 1, 40))
@example((make_instance(1, 2, 0, horizon_cap=40), 1, 40))
@settings(max_examples=100, deadline=None)
@given(big_count_cases())
def test_rational_survival_points_are_canonical_fractions(case) -> None:
    # The fold keeps its product as a coprime pair and builds each point without
    # Fraction's own normalization: each must be the Fraction that normalization gives.
    inst, d, horizon = case
    for mode in (MODE_PAPER, MODE_EXACT):
        curve = _outcome(lambda: survival_curve(inst, d, horizon, mode=mode))
        if not isinstance(curve, list):
            continue
        for point in curve:
            v = point.value
            assert type(v) is Fraction and v.denominator > 0
            assert math.gcd(v.numerator, v.denominator) == 1
            plain = Fraction(v.numerator, v.denominator)
            assert (hash(v), str(v)) == (hash(plain), str(plain))
        assert curve[-1].value == survival_probability(inst, d, horizon, mode=mode).value


def test_a_sure_removal_ends_the_product_at_zero() -> None:
    inst = make_instance(2, 3, 1, horizon_cap=400)
    assert list(inst.cells(1, 1, 2)) == [(3, 2), (1, 1)]
    assert survival_probability(inst, 1, 400, mode=MODE_EXACT).value == 0
    log = survival_probability(inst, 1, 400, mode=MODE_EXACT, space=SPACE_LOG)
    assert (log.value, log.log_value) == (0.0, -math.inf)


def test_survival_curve_is_nonincreasing(memoryless_121) -> None:
    values = [res.value for res in survival_curve(memoryless_121, 2, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_modes_agree_exactly_when_memoryless() -> None:
    for (r, s) in ((1, 2), (2, 5), (3, 11)):
        inst = make_instance(r, s, 0, horizon_cap=120)
        for d in (1, 3, 10):
            paper = survival_probability(inst, d, 100, mode=MODE_PAPER).value
            exact = survival_probability(inst, d, 100, mode=MODE_EXACT).value
            assert paper == exact


def test_exact_mode_skips_window_protected_nights() -> None:
    # b = 0 on day 1 then 1 afterwards; r = 1, s = 3. The very-old pool at
    # night i >= 2 is L(i-1) = 2(i-1). A day-2 bag sits inside the memory
    # window on night 2, so the exact law multiplies factors only from
    # night 3 on: (1 - 1/4)(1 - 1/6) = 5/8 through night 4.
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    inst = make_instance(1, 3, b_spec, horizon_cap=20)
    exact = survival_probability(inst, 2, 4, mode=MODE_EXACT).value
    assert exact == Fraction(5, 8)
    paper = survival_probability(inst, 2, 4, mode=MODE_PAPER).value
    assert paper == Fraction(5, 16)  # extra night-2 factor 1/2


def test_log_space_tracks_rational_within_1e9(memoryless_121) -> None:
    for d in (1, 5, 20):
        rat = survival_probability(memoryless_121, d, 800, space=SPACE_RATIONAL)
        log = survival_probability(memoryless_121, d, 800, space=SPACE_LOG)
        expect = float(rat.value)
        assert math.isclose(log.value, expect, rel_tol=1e-9)
        assert math.isclose(log.log_value, math.log(expect), rel_tol=1e-9, abs_tol=1e-12)


def test_paper_mode_requires_strictly_covered_quota() -> None:
    # Pool dips to r at i = 2 (see the schedule tests): the product factor
    # would be zero or negative, which MODE_PAPER refuses.
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    s_spec = FunctionSpec.table([2, 2, 2, 3], FunctionSpec.constant(3))
    inst = make_instance(1, s_spec, b_spec, horizon_cap=30)
    with pytest.raises(RestrictionViolated):
        survival_probability(inst, 1, 10, mode=MODE_PAPER)


def test_exact_mode_tolerates_exact_cover_but_paper_mode_does_not() -> None:
    # Ltilde(2) = r(2) = 1: the pool exactly covers the quota. The exact law
    # allows it (removals still never dip into the window); the product form
    # needs strict coverage because its factor would vanish.
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    s_spec = FunctionSpec.table([2, 2, 2, 9], FunctionSpec.constant(9))
    inst = make_instance(1, s_spec, b_spec, horizon_cap=30)
    assert inst.very_old_level(2) == inst.r_at(2) == 1
    res = survival_probability(inst, 5, 10, mode=MODE_EXACT)
    assert 0 < res.value < 1
    with pytest.raises(RestrictionViolated):
        survival_probability(inst, 2, 10, mode=MODE_PAPER)


def test_exact_mode_multiplies_cells_through_window_dips() -> None:
    # The strict dip sits at i = 2: the pool holds 1 bag against r(2) = 2,
    # so night 2 also takes 1 of day 2's 4 bags. A day-5 bag is very old
    # from night 6, when the pool holds 33 - 9 = 24 bags and grows by 9 - 2
    # per night.
    r_spec = FunctionSpec.table([1, 2], FunctionSpec.constant(2))
    s_spec = FunctionSpec.table([2, 4, 9], FunctionSpec.constant(9))
    b_spec = FunctionSpec.table([0], FunctionSpec.constant(1))
    inst = make_instance(r_spec, s_spec, b_spec, horizon_cap=30)
    assert inst.very_old_level(2) < inst.r_at(2)
    assert list(inst.cells(2, 2, 3)) == [(4, 1), (3, 2)]
    assert list(inst.cells(5, 5, 10)) == [(9, 0)] + [(24 + 7 * k, 2) for k in range(5)]
    expected = math.prod(Fraction(22 + 7 * k, 24 + 7 * k) for k in range(5))
    assert survival_probability(inst, 5, 10, mode=MODE_EXACT).value == expected
    assert survival_probability(inst, 2, 3, mode=MODE_EXACT).value == Fraction(3, 4) * Fraction(1, 3)


def test_exact_mode_requires_nondecreasing_memory_gap() -> None:
    b_spec = FunctionSpec.table([0, 2], FunctionSpec.constant(2))
    inst = make_instance(1, 9, b_spec, horizon_cap=30)
    with pytest.raises(RestrictionViolated):
        survival_probability(inst, 1, 10, mode=MODE_EXACT)


def test_survival_beyond_instance_horizon(memoryless_121) -> None:
    with pytest.raises(IndexBeyondHorizon):
        survival_probability(memoryless_121, 1, 10_000)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=10, max_value=60),
)
def test_survival_value_matches_direct_product(r, extra, d, n) -> None:
    """Paper-mode survival equals the straightforwardly multiplied product."""
    s = r + extra
    inst = make_instance(r, s, 0, horizon_cap=n)
    expect = Fraction(1)
    for i in range(d, n + 1):
        lt = inst.very_old_level(i)
        expect *= Fraction(lt - r, lt)
    assert survival_probability(inst, d, n).value == expect


# ------------------------------------------------------------ diagnostics


def test_diagnostics_partial_sum_and_decay(memoryless_121) -> None:
    diag = series_diagnostics(memoryless_121, 1000)
    # sum of 1/(i+1) over 1..1000 ~ ln(1001) - 1 + gamma ~ 6.49
    assert math.isclose(diag.partial_sum, sum(1.0 / (i + 1) for i in range(1, 1001)), rel_tol=1e-12)
    assert diag.last_term == Fraction(1, 1001)
    assert diag.first_undefined_index is None
    assert -1.3 < diag.term_decay_exponent_estimate < -0.7  # ~ 1/i decay


def test_diagnostics_quadratic_decay() -> None:
    inst = make_instance(1, FunctionSpec.affine(2, 2), 0, horizon_cap=2000)
    diag = series_diagnostics(inst, 2000)
    assert -2.3 < diag.term_decay_exponent_estimate < -1.7  # ~ 1/i^2 decay


def test_diagnostics_record_undefined_terms() -> None:
    # Fully clamped memory leaves an empty pool from night 1 onwards.
    b_spec = FunctionSpec.table([1, 2], FunctionSpec.constant(2))
    inst = make_instance(1, 2, b_spec, horizon_cap=10)
    diag = series_diagnostics(inst, 10)
    assert diag.first_undefined_index == 1


# ---------------------------------------------------------- classification


def test_classify_divergent_constant_schedule(memoryless_121) -> None:
    verdict = classify(memoryless_121, 100)
    assert verdict.kind == KIND_ROBIN_AS
    assert verdict.rule == "Thm2.1"
    cert = verdict.certificate
    assert cert["eventual_r"] == 1 and cert["eventual_s"] == 2 and cert["eventual_b"] == 0
    assert cert["very_old_slope"] == 1


def test_classify_full_memory_bounded_gap() -> None:
    inst = make_instance(1, 2, FunctionSpec.affine(1, 0), horizon_cap=100)
    verdict = classify(inst, 100)
    assert verdict.kind == KIND_ROBIN_SURELY
    assert verdict.rule == "Prop1.1"
    assert verdict.certificate["i_minus_b_bound"] == 0


def test_classify_contradicted_family_bound_fails_verification(monkeypatch) -> None:
    # A wrong symbolic bound must stop classification even under python -O.
    monkeypatch.setattr(analysis, "bounded_memory_gap", lambda fs: -1)
    inst = make_instance(1, 2, FunctionSpec.affine(1, 0), horizon_cap=20)
    with pytest.raises(VerificationFailed):
        classify(inst, 20)


def test_classify_bounded_gap_after_transient() -> None:
    b_spec = FunctionSpec.table([0, 0], FunctionSpec.affine(1, 0))
    inst = make_instance(1, 2, b_spec, horizon_cap=100)
    verdict = classify(inst, 100)
    assert verdict.rule == "Prop1.1"
    assert verdict.certificate["i_minus_b_bound"] == 2
    assert verdict.certificate["max_observed_gap"] == 2


def test_classify_generated_pair_separates() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 5)
    side_c = GameInstance(gen.schedule_c(), horizon_cap=5)
    side_b = GameInstance(gen.schedule_b(), horizon_cap=5)
    vc = classify(side_c, 5)
    vb = classify(side_b, 5)
    assert (vc.kind, vc.rule) == (KIND_ROBIN_SURELY, "Prop1.2")
    assert (vb.kind, vb.rule) == (KIND_SHERIFF_AS, "Thm2.2")
    assert vb.certificate["majorant"] == "term(i) <= 1/i^2"


def test_classify_distrusts_mislabelled_provenance() -> None:
    # Swap the roles in the provenance hint; the recomputation fails and the
    # verdict honestly falls back to Undetermined instead of trusting it.
    gen = separating_instance(FunctionSpec.constant(0), 5)
    spec_c = gen.schedule_c()
    lying = type(spec_c)(
        r_spec=spec_c.r_spec,
        s_spec=spec_c.s_spec,
        b_spec=spec_c.b_spec,
        provenance={**spec_c.provenance, "role": "b"},
    )
    verdict = classify(GameInstance(lying, horizon_cap=5), 5)
    assert verdict.kind == KIND_UNDETERMINED


def test_classify_undetermined_growing_arrivals() -> None:
    # Quadratically growing pool: genuinely convergent series, but no
    # certificate family covers it, so the classifier must not guess.
    inst = make_instance(1, FunctionSpec.affine(2, 2), 0, horizon_cap=500)
    verdict = classify(inst, 500)
    assert verdict.kind == KIND_UNDETERMINED
    assert verdict.rule == "none"
    assert verdict.diagnostics is not None
    assert verdict.diagnostics.partial_sum < 2.0


def test_classify_rejects_invalid_spec() -> None:
    inst = make_instance(2, 2, 0, horizon_cap=10)
    with pytest.raises(SpecInvalid):
        classify(inst, 10)


def test_classify_verdict_serialization(memoryless_121) -> None:
    obj = classify(memoryless_121, 50).as_dict()
    assert obj["kind"] == KIND_ROBIN_AS
    assert obj["rule"] == "Thm2.1"
    assert "witness" in obj["certificate"]
