"""Series terms, survival probabilities, and instance classification.

The central quantity is the per-night term ``r(i)/Ltilde(i)``: under the
randomized oldest-first strategy it is the chance that one particular
very-old bag is removed on night i. Survival of a day-d bag over nights
d..N is a product of per-night non-removal factors, available in two modes:

* ``paper_product`` — the literal product of ``1 - r(i)/Ltilde(i)`` over
  every i in [d, N];
* ``exact_strategy`` — the bag's true survival law: the factor is
  ``1 - take/count`` of the cell that holds the bag on night i
  (``GameInstance.cells``), which is ``1 - r(i)/Ltilde(i)`` once the bag is
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
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from operator import truediv
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import LimitExceeded, RestrictionViolated, SpecInvalid, VerificationFailed
from .schedule import GameInstance, _value, bounded_memory_gap, decimal_str

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


def fraction_str(value: Fraction, text: Callable[[int], str] = decimal_str) -> str:
    return f"{text(value.numerator)}/{text(value.denominator)}"


class RunningSum:
    """Running exactly rounded float sum: ``value`` is ``math.fsum`` of the terms so far.

    Every finite float is n / 2**k with k <= 1074, so the exact sum of the
    terms so far is one integer numerator over the largest power-of-two
    denominator seen. ``num / den`` is correctly rounded, as ``math.fsum``
    is, so every value is bit-identical to ``math.fsum`` of the prefix, and
    a sum past the float range raises OverflowError.
    """

    __slots__ = ("_num", "_den", "value")

    def __init__(self) -> None:
        self._num, self._den = 0, 1
        self.value = 0.0

    def add(self, x: float) -> None:
        """Add a finite term or -inf; after -inf the value stays -inf, as fsum's does."""
        if x == -math.inf or self.value == -math.inf:
            self.value = -math.inf
            return
        n, d = x.as_integer_ratio()
        if d > self._den:
            self._num, self._den = self._num * (d // self._den), d
        self._num += n * (self._den // d)
        self.value = self._num / self._den


class SurvivalResult(NamedTuple):
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


_make_result = SurvivalResult._make


def _survival_nights(
    instance: GameInstance, d: int, horizon: int, mode: str, space: str
) -> Iterable[tuple[int, int]]:
    """The (count, take) of nights d..horizon: on night i the bag leaves a
    cell of count bags with probability take/count (paper mode reads the
    very-old pool). Every input error is raised here, before any night is read."""
    if d < 1:
        raise SpecInvalid(f"day must be >= 1, got {d}")
    if horizon < d - 1:
        raise SpecInvalid(f"horizon must be >= day - 1, got horizon={horizon} day={d}")
    if mode not in (MODE_PAPER, MODE_EXACT):
        raise SpecInvalid(f"unknown survival mode {mode!r}")
    if space not in (SPACE_RATIONAL, SPACE_LOG):
        raise SpecInvalid(f"unknown probability space {space!r}")
    if horizon < d:
        return ()  # no nights elapsed: probability 1 with no schedule access at all

    instance.check_horizon(horizon)
    # A violation on the valid prefix wins over an invalid day later on.
    if mode == MODE_PAPER:
        i = instance.restriction2_violations.first(d, horizon)
        if i is not None:
            raise RestrictionViolated(
                f"Ltilde({i}) <= r({i}): the product form needs a strictly larger very-old pool"
            )
        return ((ltilde, r) for r, ltilde in instance.terms(d, horizon))
    return instance.cells(d, d, horizon)


def _log_term(count: int, take: int) -> float:
    """log(1 - take/count) for 0 < take <= count."""
    if take == count:
        return -math.inf  # the bag leaves for sure: value 0
    if 2 * take <= count:
        return math.log1p(-(take / count))
    # log1p would amplify the rounding of a ratio above 1/2.
    return math.log(count - take) - math.log(count)


def _product(xs: list[Any]) -> Any:
    """Product of xs (1 if empty) by a balanced tree, so multiplications pair like sizes."""
    while len(xs) > 1:
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1 :]
    return xs[0] if xs else 1


def _coprime_fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for coprime ints num and den > 0, which the caller guarantees:
    the two slots are set, as Python 3.12's private ``Fraction._from_coprime_ints`` does,
    without the gcd that ``Fraction`` would run on the pair."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _survival_points(
    instance: GameInstance, d: int, horizon: int, mode: str, space: str
) -> Iterator[tuple[int, Fraction | float, float | None]]:
    """(N, value, log_value) for N = d-1, d, ..., horizon, in one pass over the nights."""
    nights = _survival_nights(instance, d, horizon, mode, space)
    if space == SPACE_RATIONAL:
        # num/den, the product so far, stays coprime: a/b is, and the cross gcds cancel the rest.
        num = den = 1
        acc = Fraction(1)
        yield d - 1, acc, None
        for i, (count, take) in enumerate(nights, d):
            if take:
                g = math.gcd(take, count)
                a, b = (count - take) // g, count // g
                g = math.gcd(num, b)
                if g > 1:
                    num, b = num // g, b // g
                g = math.gcd(a, den)
                if g > 1:
                    a, den = a // g, den // g
                num = num if a == 1 else num * a  # a factor of 1 shares the int with the last point
                den = den if b == 1 else den * b
                acc = _coprime_fraction(num, den)
            yield i, acc, None
        return

    log_sum = RunningSum()
    yield d - 1, 1.0, log_sum.value
    for i, (count, take) in enumerate(nights, d):
        if take:
            log_sum.add(_log_term(count, take))
        yield i, math.exp(log_sum.value), log_sum.value


def survival_curve(
    instance: GameInstance,
    d: int,
    horizon: int,
    mode: str = MODE_PAPER,
    space: str = SPACE_RATIONAL,
) -> list[SurvivalResult]:
    """Survival results for every truncation N = d-1, d, ..., horizon; the N = d-1 entry is the
    empty product 1. One pass over the nights: the rational product is a coprime integer pair, each
    night's reduced factor cancelled against it by two cross gcds, so no gcd runs on the whole pair.
    Each point comes from ``SurvivalResult._make``, bound once at import, on a plain tuple."""
    return [
        _make_result((d, n, mode, space, value, log_value))
        for n, value, log_value in _survival_points(instance, d, horizon, mode, space)
    ]


def survival_probability(
    instance: GameInstance,
    d: int,
    horizon: int,
    mode: str = MODE_PAPER,
    space: str = SPACE_RATIONAL,
) -> SurvivalResult:
    """``survival_curve(...)[-1]`` without the curve: in rational space blocks of
    256 factors, each reduced once, multiplied as a product tree of fractions (so
    no gcd runs on the whole unreduced product); in log space one ``math.fsum``."""
    factors: list[tuple[int, int]] = []
    for count, take in _survival_nights(instance, d, horizon, mode, space):
        if take == count:  # the bag leaves for sure: this factor alone gives the product, 0
            factors = [(count, take)]
            break
        if take:
            factors.append((count, take))
    log_value: float | None = None
    if space == SPACE_RATIONAL:
        blocks = [factors[k : k + 256] for k in range(0, len(factors) or 1, 256)]
        value = _product([Fraction(_product([c - t for c, t in b]), _product([c for c, _ in b])) for b in blocks])
    else:
        log_value = math.fsum(_log_term(count, take) for count, take in factors)
        value = math.exp(log_value)
    return SurvivalResult(day=d, horizon=horizon, mode=mode, space=space, value=value, log_value=log_value)


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
    """Partial sum, last term, and a log-log decay-slope estimate, over ``GameInstance._runs``.

    A closed run with an empty very-old pool is skipped whole. A closed run whose
    every term is a positive finite float, by bounds at its ends, streams its terms
    into the one ``math.fsum`` through C-level iterators; every other night is
    walked. The slope's candidates are picked by index arithmetic over the runs
    and read as points. Int true division is correctly rounded and ``fsum`` is
    exact, so every field is what a walk over every night gives.
    """
    instance.check_horizon(horizon)
    # Positive terms in the last decade of indices: the slope's candidates, as runs of nights.
    low = max(2, horizon // 10)
    floats: list[Iterable[float]] = []
    picks: list[Sequence[int]] = []
    last: tuple[int, int] | None = None
    first_undefined: int | None = None
    # The valid prefix first: a term too large for a float raises before a later invalid day.
    for p, q, r2, l2, terms in instance._runs(1, instance.valid_end(horizon)):
        if l2 is not None:
            if _value(l2, p) <= 0:
                first_undefined = p if first_undefined is None else first_undefined
                continue
            ends = _value(r2, p), _value(r2, q)
            a, b, c = l2
            # With l2 <= (|a| q + |b|) q + |c| on the run, each term r2/l2 is at least 2**-1074
            # when r2 > l2 >> 1074, and below 2**1023 when r2 < 2**1024, as l2 >= 2.
            if min(ends) > ((abs(a) * q + abs(b)) * q + abs(c)) >> 1074 and max(ends) >> 1024 == 0:
                floats.append(starmap(truediv, terms))
                picks.append(range(max(p, low), q + 1))
                last = ends[1], _value(l2, q)
                continue
        run, nights = array("d"), array("q")
        for i, (r, ltilde) in enumerate(terms, p):
            if ltilde == 0:
                if first_undefined is None:
                    first_undefined = i
                continue
            last = (r, ltilde)
            # Int true division is correctly rounded: float(Fraction(r, ltilde)).
            try:
                value = r / ltilde
            except OverflowError:
                raise LimitExceeded(f"term r({i})/Ltilde({i}) of night {i} exceeds the float range") from None
            run.append(value)
            if value > 0.0 and i >= low:
                nights.append(i)
        floats.append(run)
        picks.append(nights)
    instance.require_valid(1, horizon)
    try:
        partial_sum = math.fsum(chain.from_iterable(floats))
    except OverflowError:
        raise LimitExceeded(f"partial sum of the terms through night {horizon} exceeds the float range") from None

    # Slope of log(term) against log(i), on at most 64 strided candidates, each read as a point.
    total = sum(map(len, picks))
    stride = total // 64 + 1 if total > 64 else 1
    window: list[tuple[float, float]] = []
    skip = 0  # the first pick of the next run, counted from its start
    for nights in picks:
        window += [(math.log(i), math.log(instance._term_at(i))) for i in nights[skip::stride]]
        skip = (skip - len(nights)) % stride
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
        partial_sum=partial_sum,
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
    spec = instance.spec
    eventual = [fs.eventually_constant() for fs in (spec.r_spec, spec.s_spec, spec.b_spec)]
    if None in eventual:
        return None
    (r0, from_r), (s0, from_s), (b0, from_b) = eventual
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
    # term(i) <= 1/i^2 by integer cross-multiplication (values are huge).
    if any(r * i * i > ltilde for i, (r, ltilde) in enumerate(instance.terms(start, horizon), start)):
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

    Refuses a schedule with an invalid day anywhere in 1..horizon_cap; each rule
    reads ``horizon`` as checked here, within [1, horizon_cap]."""
    instance.require_valid(1, instance.horizon_cap)
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
