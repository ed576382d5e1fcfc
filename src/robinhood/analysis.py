"""Series terms, survival probabilities, and instance classification.

The central quantity is the per-night term ``r(i)/Ltilde(i)``: under the
randomized oldest-first strategy it is the chance that one particular
very-old bag is removed on night i. Survival of a day-d bag over nights
d..N is a product of per-night non-removal factors, available in two modes:

* ``paper_product`` — the literal product of ``1 - r(i)/Ltilde(i)`` over
  every i in [d, N];
* ``exact_strategy`` — the bag's true survival law: the factor is
  ``1 - take/count`` of the cell that holds the bag on night i
  (``GameInstance.cell``), which is ``1 - r(i)/Ltilde(i)`` once the bag is
  very old and the pool covers the quota, and 1 while removals do not
  reach its day in the memory window.

The two modes differ on at most finitely many factors and have the same
convergence behaviour; ``exact_strategy`` is what the simulator matches.

Classification is certificate-based: a verdict about who wins is only
emitted when a recognized structural family proves it (bounded memory gap,
a generated separating instance verified by recomputation, or an
eventually-constant schedule with an affine very-old level). Partial sums
alone never decide convergence; otherwise the verdict is Undetermined with
numeric diagnostics attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Iterator

from .errors import (
    IndexBeyondHorizon,
    RestrictionViolated,
    SpecInvalid,
    TermUndefined,
    VerificationFailed,
)
from .schedule import GameInstance, bounded_memory_gap, decimal_str

MODE_PAPER = "paper_product"
MODE_EXACT = "exact_strategy"
SPACE_RATIONAL = "rational"
SPACE_LOG = "log"

KIND_ROBIN_SURELY = "RobinSurely"
KIND_ROBIN_AS = "RobinAlmostSurely"
KIND_SHERIFF_AS = "SheriffAlmostSurely"
KIND_UNDETERMINED = "Undetermined"

# Rule identifiers are part of the output contract (see README).
RULE_BOUNDED_GAP = "Prop1.1"
RULE_PINNED_POOL = "Prop1.2"
RULE_DIVERGENT = "Thm2.1"
RULE_CONVERGENT = "Thm2.2"
RULE_NONE = "none"

SEPARATION_GENERATOR = "separating-instance"


def fraction_str(value: Fraction) -> str:
    return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"


class RunningSum:
    """Running exactly rounded float sum: ``value`` is ``math.fsum`` of the terms so far.

    Keeps Shewchuk's non-overlapping partials (Shewchuk 1997, *Adaptive
    Precision Floating-Point Arithmetic*), the state ``math.fsum`` builds
    internally, so each ``add`` costs the length of that short list instead
    of a new pass over every term. Both ``math.fsum(partials)`` and
    ``math.fsum(terms)`` are the correctly rounded exact sum, so every value
    is bit-identical to ``math.fsum`` of the prefix.
    """

    __slots__ = ("_partials", "value")

    def __init__(self) -> None:
        self._partials: list[float] = []
        self.value = 0.0

    def add(self, x: float) -> None:
        """Add a finite term or -inf; after -inf the value stays -inf, as fsum's does."""
        if x == -math.inf or self.value == -math.inf:
            self.value = -math.inf
            return
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if not math.isfinite(x):
            raise OverflowError("intermediate overflow in fsum")
        partials[i:] = [x]
        self.value = math.fsum(partials)


def series_term(instance: GameInstance, i: int) -> Fraction:
    """Exact reduced r(i)/Ltilde(i); TermUndefined when Ltilde(i) = 0."""
    ltilde = instance.very_old_level(i)
    if ltilde == 0:
        raise TermUndefined(f"very-old level is 0 at night {i}; term r({i})/Ltilde({i}) undefined")
    return Fraction(instance.r_at(i), ltilde)


@dataclass(frozen=True)
class SurvivalResult:
    """Survival probability of a day-``day`` bag through night ``horizon``."""

    day: int
    horizon: int
    mode: str
    space: str
    value: Fraction | float
    log_value: float | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "day": self.day,
            "horizon": self.horizon,
            "mode": self.mode,
            "space": self.space,
            "value": fraction_str(self.value) if isinstance(self.value, Fraction) else self.value,
            # Canonical JSON has no -inf; write it as compare writes a non-finite z.
            "log_value": "-inf" if self.log_value == -math.inf else self.log_value,
        }


def _survival_points(
    instance: GameInstance, d: int, horizon: int, mode: str, space: str
) -> Iterator[tuple[int, Fraction | float, float | None]]:
    """(N, value, log_value) for N = d-1, d, ..., horizon, in one pass over the
    nights; every input error is raised before the first point."""
    if d < 1:
        raise SpecInvalid(f"day must be >= 1, got {d}")
    if horizon < d - 1:
        raise SpecInvalid(f"horizon must be >= day - 1, got horizon={horizon} day={d}")
    if mode not in (MODE_PAPER, MODE_EXACT):
        raise SpecInvalid(f"unknown survival mode {mode!r}")
    if space not in (SPACE_RATIONAL, SPACE_LOG):
        raise SpecInvalid(f"unknown probability space {space!r}")
    if horizon < d:
        # No nights elapsed: probability 1 with no schedule access at all.
        yield horizon, Fraction(1) if space == SPACE_RATIONAL else 1.0, 0.0 if space == SPACE_LOG else None
        return

    if horizon > instance.horizon_cap:
        raise IndexBeyondHorizon(
            f"horizon {horizon} beyond instance horizon_cap {instance.horizon_cap}"
        )

    # Fail before yielding anything, regardless of where the violation sits.
    # A violation on the valid prefix wins over an invalid day later on.
    # cell(i) is (count, take): on night i the bag leaves a cell of count
    # bags with probability take/count; paper mode reads the very-old pool.
    if mode == MODE_PAPER:
        i = instance.restriction2_violations.first(d, horizon)
        if i is not None:
            raise RestrictionViolated(
                f"Ltilde({i}) <= r({i}): the product form needs a strictly larger very-old pool"
            )
        instance.require_valid(horizon)

        def cell(i: int) -> tuple[int, int]:
            return instance.very_old_level(i), instance.r_at(i)
    else:
        instance.require_playable(horizon)
        cell = partial(instance.cell, d)

    if space == SPACE_RATIONAL:
        acc = Fraction(1)
        yield d - 1, acc, None
        for i in range(d, horizon + 1):
            count, take = cell(i)
            if take:
                acc *= Fraction(count - take, count)
            yield i, acc, None
        return

    log_sum = RunningSum()
    yield d - 1, 1.0, log_sum.value
    for i in range(d, horizon + 1):
        count, take = cell(i)
        if take:
            if take == count:
                log_sum.add(-math.inf)  # the bag leaves for sure: value 0
            elif 2 * take <= count:
                log_sum.add(math.log1p(-(take / count)))
            else:
                # log1p would amplify the rounding of a ratio above 1/2.
                log_sum.add(math.log(count - take) - math.log(count))
        yield i, math.exp(log_sum.value), log_sum.value


def survival_curve(
    instance: GameInstance,
    d: int,
    horizon: int,
    mode: str = MODE_PAPER,
    space: str = SPACE_RATIONAL,
) -> list[SurvivalResult]:
    """Survival results for every truncation N = d-1, d, ..., horizon.

    One pass over the nights, so evaluating a whole curve costs the same as
    its final point. The N = d-1 entry is the empty product 1.
    """
    return [
        SurvivalResult(day=d, horizon=n, mode=mode, space=space, value=value, log_value=log_value)
        for n, value, log_value in _survival_points(instance, d, horizon, mode, space)
    ]


def survival_probability(
    instance: GameInstance,
    d: int,
    horizon: int,
    mode: str = MODE_PAPER,
    space: str = SPACE_RATIONAL,
) -> SurvivalResult:
    """Survival probability of a day-d bag through night ``horizon``; only
    the running product is kept, not the curve."""
    for n, value, log_value in _survival_points(instance, d, horizon, mode, space):
        pass
    return SurvivalResult(day=d, horizon=n, mode=mode, space=space, value=value, log_value=log_value)


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Numeric summary of the term series on a finite horizon.

    Diagnostics only: a partial sum can never certify convergence or
    divergence, so these fields accompany Undetermined verdicts.
    """

    horizon: int
    partial_sum: float
    last_term: Fraction | None
    term_decay_exponent_estimate: float | None
    first_undefined_index: int | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "horizon": self.horizon,
            "partial_sum": self.partial_sum,
            "last_term": fraction_str(self.last_term) if self.last_term is not None else None,
            "term_decay_exponent_estimate": self.term_decay_exponent_estimate,
            "first_undefined_index": self.first_undefined_index,
        }


def series_diagnostics(instance: GameInstance, horizon: int) -> SeriesDiagnostics:
    """Partial sum, last term, and a log-log decay-slope estimate."""
    instance.check_horizon(horizon)
    floats: list[float] = []
    points: list[tuple[int, float]] = []
    last: tuple[int, int] | None = None
    first_undefined: int | None = None
    for i in range(1, horizon + 1):
        ltilde = instance.very_old_level(i)
        if ltilde == 0:
            if first_undefined is None:
                first_undefined = i
            continue
        r = instance.r_at(i)
        last = (r, ltilde)
        # Int true division is correctly rounded: float(Fraction(r, ltilde)).
        value = r / ltilde
        floats.append(value)
        if value > 0.0:
            points.append((i, value))

    # Slope of log(term) against log(i) over the last decade of indices.
    low = max(2, horizon // 10)
    window = [(math.log(i), math.log(v)) for i, v in points if i >= low]
    if len(window) > 64:
        stride = len(window) // 64 + 1
        window = window[::stride]
    slope: float | None = None
    if len(window) >= 2 and window[0][0] != window[-1][0]:
        xbar = math.fsum(x for x, _ in window) / len(window)
        ybar = math.fsum(y for _, y in window) / len(window)
        sxx = math.fsum((x - xbar) ** 2 for x, _ in window)
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in window)
        if sxx > 0.0:
            slope = sxy / sxx

    return SeriesDiagnostics(
        horizon=horizon,
        partial_sum=math.fsum(floats),
        last_term=Fraction(*last) if last is not None else None,
        term_decay_exponent_estimate=slope,
        first_undefined_index=first_undefined,
    )


@dataclass(frozen=True)
class Verdict:
    """Winner classification with the rule that fired and its certificate."""

    kind: str
    rule: str
    certificate: dict[str, Any]
    diagnostics: SeriesDiagnostics | None = None

    def as_dict(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "kind": self.kind,
            "rule": self.rule,
            "certificate": self.certificate,
        }
        if self.diagnostics is not None:
            obj["diagnostics"] = self.diagnostics.as_dict()
        return obj


def _classify_bounded_gap(instance: GameInstance, horizon: int) -> Verdict | None:
    """Rule: the memory-spec family proves i - b(i) bounded."""
    bound = bounded_memory_gap(instance.spec.b_spec)
    if bound is None:
        return None
    observed = instance.memory_gap_range(horizon)[1]
    # The symbolic bound covers every index, so the scan can never beat it.
    if observed > bound:
        raise VerificationFailed(
            f"family bound {bound} on i - b(i) contradicted by direct evaluation: {observed}"
        )
    certificate = {
        "i_minus_b_bound": bound,
        "max_observed_gap": observed,
        "checked_horizon": horizon,
        "witness": "memory gap bounded: deterministic oldest-first removes every bag",
    }
    return Verdict(kind=KIND_ROBIN_SURELY, rule=RULE_BOUNDED_GAP, certificate=certificate)


def _separation_provenance_role(instance: GameInstance) -> str | None:
    prov = instance.spec.provenance
    if prov is None or prov.get("generator") != SEPARATION_GENERATOR:
        return None
    role = prov.get("role")
    return role if role in ("b", "c") else None


def _classify_pinned_pool(instance: GameInstance, horizon: int) -> Verdict | None:
    """Rule: generated separating instance, small-memory side.

    The generator arranges Ltilde(i) <= r(i) at every index, so the whole
    very-old pool is swept every night. Provenance is only a hint: the
    inequality is re-verified here from the instance's own tables.
    """
    if _separation_provenance_role(instance) != "c":
        return None
    if not instance.restriction1_holds(horizon):
        return None
    if not instance.restriction2_violations.covers(1, horizon):
        return None
    certificate = {
        "witness": "Ltilde(i) <= r(i) at every checked index (by construction at every index)",
        "verified_through": horizon,
        "holds_at_every_checked_index": True,
    }
    return Verdict(kind=KIND_ROBIN_SURELY, rule=RULE_PINNED_POOL, certificate=certificate)


def _classify_divergent(instance: GameInstance, horizon: int) -> Verdict | None:
    """Rule: eventually-constant schedules give an affine very-old level.

    Once r, s, b are all constant and the window has rolled past the
    transient, Ltilde grows by exactly s0 - r0 >= 1 per night, so the terms
    are bounded below by a harmonic tail and the series diverges.
    """
    ec_r = instance.spec.r_spec.eventually_constant()
    ec_s = instance.spec.s_spec.eventually_constant()
    ec_b = instance.spec.b_spec.eventually_constant()
    if ec_r is None or ec_s is None or ec_b is None:
        return None
    r0, from_r = ec_r
    s0, from_s = ec_s
    b0, from_b = ec_b
    if not (1 <= r0 < s0 and b0 >= 0):
        return None

    anchor = max(from_s + b0 - 1, from_r, from_b, b0, 2)
    if anchor + 1 > horizon:
        return None
    if not instance.restriction1_holds(anchor + 1):
        return None

    slope = s0 - r0
    x_anchor = instance.very_old_level_unclamped(anchor)
    # First index from which the unclamped very-old level exceeds r0 forever.
    deficit = r0 + 1 - x_anchor
    holds_from = anchor if deficit <= 0 else anchor + (deficit + slope - 1) // slope
    intercept = x_anchor - slope * anchor
    certificate = {
        "eventual_r": r0,
        "eventual_s": s0,
        "eventual_b": b0,
        "affine_from_index": anchor,
        "very_old_slope": slope,
        "very_old_intercept": decimal_str(intercept),
        "restriction2_holds_from": holds_from,
        "witness": (
            f"for i >= {decimal_str(holds_from)}: term(i) ="
            f" {decimal_str(r0)}/({decimal_str(slope)}*i + {decimal_str(intercept)}),"
            " a divergent harmonic comparison"
        ),
    }
    return Verdict(kind=KIND_ROBIN_AS, rule=RULE_DIVERGENT, certificate=certificate)


def _classify_convergent(instance: GameInstance, horizon: int) -> Verdict | None:
    """Rule: generated separating instance, large-memory side.

    Verifies term(i) <= 1/i^2 by recomputation on the generated prefix;
    the majorant's tail sum beyond N is below 1/N, so the series converges
    and some bag survives with positive probability.
    """
    if _separation_provenance_role(instance) != "b":
        return None
    if horizon < 2 or not instance.restriction1_holds(horizon):
        return None

    # The violations of restriction 2 must form a proper prefix 1..prefix_end.
    prefix_end = instance.restriction2_violations.last(horizon) or 0
    if prefix_end >= horizon or (prefix_end and not instance.restriction2_violations.covers(1, prefix_end)):
        return None
    start = max(2, prefix_end + 1)
    for i in range(start, horizon + 1):
        # term(i) <= 1/i^2 by integer cross-multiplication (values are huge).
        if instance.r_at(i) * i * i > instance.very_old_level(i):
            return None
    certificate = {
        "majorant": "term(i) <= 1/i^2",
        "verified_from": start,
        "verified_through": horizon,
        "tail_bound": "sum_{i>N} 1/i^2 < 1/N",
        "restriction2_violation_prefix_end": prefix_end,
    }
    return Verdict(kind=KIND_SHERIFF_AS, rule=RULE_CONVERGENT, certificate=certificate)


def classify(instance: GameInstance, horizon: int) -> Verdict:
    """Apply the certificate rules in order; Undetermined is the fallback.

    Each rule reads ``horizon`` as checked here, within [1, horizon_cap]."""
    if instance.first_invalid_index is not None:
        raise SpecInvalid(
            f"cannot classify: schedule invalid from day {instance.first_invalid_index}"
        )
    instance.check_horizon(horizon)

    for rule in (_classify_bounded_gap, _classify_pinned_pool, _classify_divergent, _classify_convergent):
        verdict = rule(instance, horizon)
        if verdict is not None:
            return verdict

    return Verdict(
        kind=KIND_UNDETERMINED,
        rule=RULE_NONE,
        certificate={},
        diagnostics=series_diagnostics(instance, horizon),
    )
