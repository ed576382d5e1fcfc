"""The instance's former read checks, kept as the reference for its one check core.

``GameInstance`` used to decide in four helpers, and in copies inside its
range readers and the kernels, what reading a night raises: ``_check_index``
(range, then validity), ``check_horizon`` (range only), ``require_valid``
(days 1..i valid) and ``require_playable`` (nights 1..n playable). Now
``_check_read`` decides it for a whole range, behind ``check_horizon``,
``require_valid(lo, hi)`` and ``require_playable(lo, hi)``. These are the
former helpers, as functions of the instance's public facts; the tests
check that every reader raises the error class they raise. Their messages
are the former ones, except that ``ref_check_horizon`` words a horizon out
of range as the package's one range message does.
"""

from __future__ import annotations

from robinhood import GameInstance, IndexBeyondHorizon, RestrictionViolated, SpecInvalid


def ref_check_index(inst: GameInstance, i: int, low: int) -> None:
    """Index i in [low, horizon_cap], then days 1..i valid."""
    if not (low <= i <= inst.horizon_cap):
        raise IndexBeyondHorizon(f"index {i} outside [{low}, {inst.horizon_cap}] for this instance")
    ref_require_valid(inst, i)


def ref_check_horizon(inst: GameInstance, horizon: int) -> None:
    """1 <= horizon <= horizon_cap."""
    if not 1 <= horizon <= inst.horizon_cap:
        raise IndexBeyondHorizon(f"night {horizon} outside [1, {inst.horizon_cap}] for this instance")


def ref_require_valid(inst: GameInstance, i: int) -> None:
    """Days 1..i valid."""
    if inst.first_invalid_index is not None and i >= inst.first_invalid_index:
        raise SpecInvalid(
            f"schedule invalid from day {inst.first_invalid_index} (needs 1 <= r(i) < s(i) and b(i) >= 0)"
        )


def ref_require_playable(inst: GameInstance, n: int) -> None:
    """Nights 1..n playable: a memory break before the first invalid day, else the invalid day."""
    if not inst.restriction1_holds(inst.valid_end(n)):
        i = inst.restriction1_first_violation
        raise RestrictionViolated(
            f"memory bound grows too fast at night {i}: b({i + 1}) > b({i}) + 1 would re-admit forgotten days"
        )
    ref_require_valid(inst, n)
