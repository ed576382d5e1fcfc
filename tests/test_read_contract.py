"""One read contract: every reader raises what the former per-night checks raised.

``GameInstance._check_read`` decides, for a whole range of nights, what
reading it raises; every point reader, range reader and kernel goes through
``check_horizon``, ``require_valid`` or ``require_playable``. On every range,
including night 0, negative nights, nights past the cap, invalid days and
memory breaks, each must raise the error class that the former checks
(``tests/per_night_checks.py``) and the former per-night loops
(``tests/per_night_kernels.py``) raise, and nothing where they raise nothing.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from robinhood import (
    MODE_EXACT,
    MODE_PAPER,
    SPACE_LOG,
    SPACE_RATIONAL,
    FunctionSpec,
    IndexBeyondHorizon,
    LimitExceeded,
    RestrictionViolated,
    RobinHoodError,
    SpecInvalid,
    classify,
    empirical_survival,
    run_trace,
    series_diagnostics,
    survival_probability,
)

from .conftest import make_instance
from .per_night_checks import ref_check_horizon, ref_check_index, ref_require_playable, ref_require_valid
from .per_night_kernels import ref_series_diagnostics, ref_survival_points
from .test_range_readers import instances, table_invalid_from

READ_ERRORS = (IndexBeyondHorizon, SpecInvalid, RestrictionViolated)
MODES = [(mode, space) for mode in (MODE_PAPER, MODE_EXACT) for space in (SPACE_RATIONAL, SPACE_LOG)]


def _error(fn) -> type | None:
    """The class of the package error fn() raises, else None; the references'
    float OverflowError is the package's LimitExceeded."""
    try:
        fn()
    except RobinHoodError as exc:
        return type(exc)
    except OverflowError:
        return LimitExceeded
    return None


def _first_error(check, lo: int, hi: int) -> type | None:
    """The error of the first night in lo..hi that ``check`` refuses."""
    for i in range(lo, hi + 1):
        error = _error(lambda: check(i))
        if error is not None:
            return error
    return None


def _ref_cell(inst, d: int, i: int) -> None:
    if not 1 <= d <= i <= inst.horizon_cap:
        raise IndexBeyondHorizon(f"cell of day {d} on night {i}")
    ref_require_playable(inst, i)


def _ref_classify(inst, horizon: int) -> None:
    """classify's former refusal: an invalid day anywhere, then the horizon."""
    ref_require_valid(inst, inst.horizon_cap)
    ref_check_horizon(inst, horizon)


def _ref_empirical_survival(inst, d: int, nights: int) -> None:
    if d < 1:
        raise SpecInvalid(f"day must be >= 1, got {d}")
    if nights < d - 1:
        raise SpecInvalid(f"nights must be >= day - 1, got nights={nights} day={d}")
    if nights < d:
        return
    ref_check_horizon(inst, nights)
    ref_require_playable(inst, nights)


def _ref_run_trace(inst, nights: int, tag: int) -> None:
    """run_trace's former checks for one bag tagged at position 1 of day ``tag``;
    after the checks of nights, a tag day past nights + 1 is refused, as
    empirical_survival refuses it."""
    if nights < 0:
        raise SpecInvalid(f"nights must be >= 0, got {nights}")
    if nights:
        ref_check_horizon(inst, nights)
    if tag > nights + 1:
        raise SpecInvalid(f"nights must be >= day - 1, got nights={nights} day={tag}")
    if tag <= nights:
        ref_require_playable(inst, tag - 1)
        ref_check_index(inst, tag, 1)  # s(tag) >= 2 on a valid day holds position 1
    ref_require_playable(inst, nights)


def _assert_reads_refused_as_before(inst, i: int, lo: int, hi: int, d: int) -> None:
    """Point readers at night i, range readers on lo..hi (cells for day d), and the
    kernels at horizon hi and day d raise the former checks' error class."""
    for reader in (inst.r_at, inst.s_at, inst.b_at, inst.very_old_level, inst.very_old_level_unclamped):
        assert _error(lambda: reader(i)) is _error(lambda: ref_check_index(inst, i, 1)), reader
    for reader in (inst.cave_level, inst.fifo_cut):
        assert _error(lambda: reader(i)) is _error(lambda: ref_check_index(inst, i, 0)), reader
    assert _error(lambda: inst.night_cuts(i)) is _error(lambda: _ref_cell(inst, i, i))
    assert _error(lambda: inst.terms(lo, hi)) is _first_error(lambda n: ref_check_index(inst, n, 1), lo, hi)
    assert _error(lambda: inst.cells(d, lo, hi)) is _first_error(lambda n: _ref_cell(inst, d, n), lo, hi)
    for reader in (inst.check_horizon, inst.memory_gap_range, inst.check_restrictions):
        assert _error(lambda: reader(hi)) is _error(lambda: ref_check_horizon(inst, hi)), reader

    for mode, space in MODES:
        assert _error(lambda: survival_probability(inst, d, hi, mode, space)) is _error(
            lambda: list(ref_survival_points(inst, d, hi, mode, space))
        ), (mode, space)
    assert _error(lambda: series_diagnostics(inst, hi)) is _error(lambda: ref_series_diagnostics(inst, hi))
    # Past its refusal classify may still fail verification or overflow a float,
    # but never on a read.
    refusal, got = _error(lambda: _ref_classify(inst, hi)), _error(lambda: classify(inst, hi))
    assert got is refusal if refusal is not None else got not in READ_ERRORS, (got, refusal)
    assert _error(lambda: empirical_survival(inst, d, hi, 3, seed=1)) is _error(
        lambda: _ref_empirical_survival(inst, d, hi)
    )
    tag = max(d, 1)
    assert _error(lambda: run_trace(inst, "oldest-rnd", hi, 1, tagged_days=[tag])) is _error(
        lambda: _ref_run_trace(inst, hi, tag)
    )


@settings(max_examples=300, deadline=None)
@given(inst=instances, data=st.data())
def test_every_reader_raises_what_the_former_checks_raise(inst, data) -> None:
    cap = inst.horizon_cap
    i, lo, hi = (data.draw(st.integers(-2, cap + 3), label=label) for label in ("i", "lo", "hi"))
    d = data.draw(st.integers(-1, cap + 3), label="d")
    _assert_reads_refused_as_before(inst, i, lo, hi, d)


def test_a_memory_break_before_or_at_the_first_invalid_day() -> None:
    """b jumps by 2 at night 3 (a break after night 2); day 4, or day 3 itself, is
    invalid. Every range from -1 to past the cap of 6, with the day at its start."""
    memory = FunctionSpec.table([0, 0, 2], FunctionSpec.constant(0))
    for invalid_from in (4, 3):
        inst = make_instance(1, table_invalid_from(invalid_from), memory, horizon_cap=6)
        for lo, hi in product(range(-1, 9), repeat=2):
            _assert_reads_refused_as_before(inst, hi, lo, hi, lo)
