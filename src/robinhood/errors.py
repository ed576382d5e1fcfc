"""Exception types and the big-integer digit-budget guard.

Every error raised by this package derives from RobinHoodError, so callers
can catch one type at the boundary. The CLI maps subtypes to exit codes.
"""

from __future__ import annotations

# Default ceiling on the decimal-digit size of any integer the package will
# compute. Separation-instance schedules roughly triple their digit count per
# construction step, so an unguarded run would stall long before exhausting
# memory; the guard aborts instead.
DEFAULT_DIGIT_BUDGET = 10**6

# bits-per-decimal-digit, rounded up enough that the guard never fires early.
_LOG2_10 = 3.321928094887362


class RobinHoodError(Exception):
    """Base class for all package errors."""


class SpecInvalid(RobinHoodError):
    """A schedule spec failed structural or value validation."""


class IndexBeyondHorizon(RobinHoodError):
    """An evaluation was requested past the instance's defined horizon."""


class LimitExceeded(RobinHoodError):
    """An integer grew past the configured digit budget, or a float diagnostic past the float range."""


class RestrictionViolated(RobinHoodError):
    """A memory-function restriction required by an operation does not hold."""


class ValidityViolated(RobinHoodError):
    """A generated schedule broke the r < s validity requirement."""


class VerificationFailed(RobinHoodError):
    """Independent recomputation contradicted a stored certificate."""


def budget_bits(digit_budget: int) -> int:
    """Bit-length ceiling corresponding to a decimal digit budget."""
    return int(digit_budget * _LOG2_10) + 1


def guard_digits(value: int, digit_budget: int, context: str = "") -> int:
    """Return value unchanged, or raise LimitExceeded if it is too large.

    The check uses bit length, so it never converts the integer to decimal.
    """
    if value.bit_length() > budget_bits(digit_budget):
        where = f" in {context}" if context else ""
        raise LimitExceeded(
            f"integer exceeds the {digit_budget}-digit budget{where}"
        )
    return value
