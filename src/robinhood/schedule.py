"""Schedules for the cave game and their derived level quantities.

A game is driven by three integer functions on days i = 1, 2, ...:

* ``r(i)`` — bags Robin removes on night i (validity demands 1 <= r(i) < s(i)),
* ``s(i)`` — bags the Sheriff adds on day i,
* ``b(i)`` — Robin's memory bound: on night i only bags that arrived in the
  last ``b(i)`` days can still be told apart. Values are clamped to
  ``min(b(i), i)`` so the bound never exceeds the number of elapsed days.

From these the module derives

* the cave level ``L(i)`` — bags in the cave after night i, and
* the very-old level ``Ltilde(i)`` — bags that arrived on days 1..i-b(i)
  and are still in the cave when night i begins (clamped at zero).

``GameInstance`` materializes a schedule on a finite index range with eager
prefix sums, exact arbitrary-precision arithmetic, and a digit budget that
aborts runaway growth. It also computes, once, where the two structural
conditions the analysis layer relies on fail, and ``check_restrictions``
reports them relative to a horizon:

* restriction 1 — ``b(i+1) <= b(i) + 1``, i.e. ``i - b(i)`` never decreases
  (Robin never regains forgotten information);
* restriction 2 — ``Ltilde(i) > r(i)`` for all but finitely many i (the
  very-old pool eventually always covers the night's quota).
"""

from __future__ import annotations

import decimal
import json
from array import array
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace
from itertools import count, islice, repeat
from typing import Any, Callable, Iterator, Mapping

from .errors import (
    DEFAULT_DIGIT_BUDGET,
    IndexBeyondHorizon,
    RestrictionViolated,
    SpecInvalid,
    budget_bits,
    guard_digits,
)

#: Default evaluation range for schedules with no intrinsic horizon.
DEFAULT_HORIZON_CAP = 10_000

#: Cell key of the very-old pool in ``night_cuts`` and in trace removal records (real days are >= 1).
VERY_OLD_KEY = 0

_KINDS = ("constant", "affine", "table", "generated")


def _to_decimal(n: int, bits: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    """n (0 <= n < 2**bits) as an exact Decimal, split at a power of two and recombined."""
    if bits <= 4096:
        return decimal.Decimal(n)
    half = bits >> 1
    hi = n >> half
    if half not in powers:
        powers[half] = decimal.Decimal(2) ** half
    return _to_decimal(hi, bits - half, powers) * powers[half] + _to_decimal(n - (hi << half), half, powers)


def decimal_str(n: int) -> str:
    """``str(n)`` at any size in subquadratic time; thread-safe, as it never touches the digit cap.

    Up to 2000 bits (603 digits, below every allowed cap) this is ``str``. Larger
    values are split at powers of two into parts of at most 4096 bits, which
    become exact Decimals, recombined as ``hi * 2**k + lo`` by Decimal's
    subquadratic arithmetic in a thread-local context that traps ``Inexact``
    (Brent and Zimmermann, *Modern Computer Arithmetic*, section 1.7).
    """
    m = abs(n)
    if m.bit_length() <= 2000:
        return str(n)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(_to_decimal(m, m.bit_length(), {}))
    return "-" + text if n < 0 else text


def _from_digits(text: str, lo: int, hi: int, powers: dict[int, int]) -> int:
    """The ASCII digits text[lo:hi] as an int: halves recombined as lo + hi * 10**k."""
    if hi - lo <= 600:
        return int(text[lo:hi])
    k = (hi - lo) >> 1
    if k not in powers:
        powers[k] = 5**k
    return _from_digits(text, hi - k, hi, powers) + ((_from_digits(text, lo, hi - k, powers) * powers[k]) << k)


def parse_decimal(text: str) -> int:
    """The integer written by ``text`` in the grammar ``-?[0-9]+`` (ASCII only), else ValueError.

    Up to 640 characters (the lowest digit cap Python allows) this is ``int``.
    Longer digit strings are split in halves down to slices of at most 600
    digits, recombined as ``lo + ((hi * 5**k) << k)`` by subquadratic int
    multiplication. The digit cap is never touched, so this is thread-safe.
    """
    start = 1 if text[:1] == "-" else 0
    if not (text.isascii() and text[start:].isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    if len(text) <= 640:
        return int(text, 10)
    n = _from_digits(text, start, len(text), {})
    return -n if start else n


def _require_int(value: Any, path: str) -> int:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecInvalid(f"{path}: expected an integer, got {value!r}")
    return value


def _require_decimal_string(value: Any, path: str) -> int:
    if not isinstance(value, str):
        raise SpecInvalid(f"{path}: expected a decimal string, got {value!r}")
    try:
        return parse_decimal(value)
    except ValueError:
        raise SpecInvalid(f"{path}: not a decimal integer: {value!r}") from None


@dataclass(frozen=True)
class FunctionSpec:
    """One schedule function: ``values`` for i = 1..len(values), then ``tail``
    evaluated at the original index i, or ``a * i + c`` when there is no tail.

    ``kind`` names the JSON form the spec is read from and written back to:

    * ``constant`` — ``c`` at every index (``a`` is 0);
    * ``affine`` — ``a * i + c``;
    * ``table`` — explicit ``values``, then ``tail``;
    * ``generated`` — explicit ``values`` only; evaluation beyond the last
      entry refuses with IndexBeyondHorizon rather than extrapolating.
    """

    kind: str
    values: tuple[int, ...] = ()
    a: int = 0
    c: int = 0
    tail: "FunctionSpec | None" = None

    @staticmethod
    def constant(value: int) -> "FunctionSpec":
        return FunctionSpec(kind="constant", c=value)

    @staticmethod
    def affine(a: int, c: int) -> "FunctionSpec":
        return FunctionSpec(kind="affine", a=a, c=c)

    @staticmethod
    def table(values: list[int] | tuple[int, ...], tail: "FunctionSpec") -> "FunctionSpec":
        return FunctionSpec(kind="table", values=tuple(values), tail=tail)

    @staticmethod
    def generated(values: list[int] | tuple[int, ...]) -> "FunctionSpec":
        return FunctionSpec(kind="generated", values=tuple(values))

    def value_at(self, i: int) -> int:
        """Raw function value at day i >= 1 (no clamping applied)."""
        if i < 1:
            raise IndexBeyondHorizon(f"index {i} is below 1")
        if i <= len(self.values):
            return self.values[i - 1]
        if self.tail is not None:
            return self.tail.value_at(i)
        if self.kind == "generated":
            raise IndexBeyondHorizon(
                f"generated values end at index {len(self.values)}; refusing index {i}"
            )
        return self.a * i + self.c

    def __iter__(self) -> Iterator[int]:
        """The values at i = 1, 2, ...; the stream ends after index ``hard_horizon()`` when that is not None."""
        yield from self.values
        n = len(self.values)
        if self.tail is not None:
            yield from islice(self.tail, n, None)
        elif self.kind != "generated":
            yield from count(self.a * (n + 1) + self.c, self.a) if self.a else repeat(self.c)

    def hard_horizon(self) -> int | None:
        """Largest defined index, or None when defined for all i >= 1."""
        if self.tail is None:
            return len(self.values) if self.kind == "generated" else None
        th = self.tail.hard_horizon()
        return None if th is None else max(len(self.values), th)

    def eventually_constant(self) -> tuple[int, int] | None:
        """(value, from_index) if provably constant from some index on."""
        if self.tail is not None:
            ec = self.tail.eventually_constant()
        else:
            ec = None if self.kind == "generated" or self.a else (self.c, 1)
        return None if ec is None else (ec[0], max(ec[1], len(self.values) + 1))

    def to_obj(self, text: Callable[[int], str] = decimal_str) -> dict[str, Any]:
        """JSON-ready dict (generated values become decimal strings, through ``text``)."""
        if self.kind == "constant":
            return {"kind": "constant", "value": self.c}
        if self.kind == "affine":
            return {"kind": "affine", "a": self.a, "c": self.c}
        if self.kind == "table":
            return {
                "kind": "table",
                "values": list(self.values),
                "tail": self.tail.to_obj(text),  # type: ignore[union-attr]
            }
        return {"kind": "generated", "values": [text(v) for v in self.values]}


def parse_function(obj: Any, path: str) -> FunctionSpec:
    """Parse one function spec from its JSON form, with field-path errors."""
    if not isinstance(obj, dict):
        raise SpecInvalid(f"{path}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise SpecInvalid(f"{path}.kind: unknown kind {kind!r}; expected one of {_KINDS}")
    allowed = {
        "constant": {"kind", "value"},
        "affine": {"kind", "a", "c"},
        "table": {"kind", "values", "tail"},
        "generated": {"kind", "values"},
    }[kind]
    extra = set(obj) - allowed
    if extra:
        raise SpecInvalid(f"{path}: unexpected fields {sorted(extra)} for kind {kind!r}")
    missing = allowed - set(obj)
    if missing:
        raise SpecInvalid(f"{path}: missing fields {sorted(missing)} for kind {kind!r}")

    if kind == "constant":
        value = _require_int(obj["value"], f"{path}.value")
        if value < 0:
            raise SpecInvalid(f"{path}.value: constant must be nonnegative, got {value}")
        return FunctionSpec.constant(value)
    if kind == "affine":
        a = _require_int(obj["a"], f"{path}.a")
        c = _require_int(obj["c"], f"{path}.c")
        return FunctionSpec.affine(a, c)
    if kind == "table":
        raw = obj["values"]
        if not isinstance(raw, list):
            raise SpecInvalid(f"{path}.values: expected a list")
        values = [_require_int(v, f"{path}.values[{k}]") for k, v in enumerate(raw)]
        tail = parse_function(obj["tail"], f"{path}.tail")
        return FunctionSpec.table(values, tail)
    # generated
    raw = obj["values"]
    if not isinstance(raw, list):
        raise SpecInvalid(f"{path}.values: expected a list")
    values = [_require_decimal_string(v, f"{path}.values[{k}]") for k, v in enumerate(raw)]
    return FunctionSpec.generated(values)


@dataclass(frozen=True)
class ScheduleSpec:
    """The three schedule functions, plus optional generator provenance.

    ``provenance`` is an opaque JSON object carried through parse/dump
    round-trips. The classifier only ever treats it as a hint: any claim it
    makes is re-verified by recomputation before influencing a verdict.
    """

    r_spec: FunctionSpec
    s_spec: FunctionSpec
    b_spec: FunctionSpec
    provenance: Mapping[str, Any] | None = field(default=None, compare=False)

    def to_obj(self, text: Callable[[int], str] = decimal_str) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "r": self.r_spec.to_obj(text),
            "s": self.s_spec.to_obj(text),
            "b": self.b_spec.to_obj(text),
        }
        if self.provenance is not None:
            obj["provenance"] = dict(self.provenance)
        return obj


def parse_schedule(obj: Any) -> ScheduleSpec:
    """Parse a full schedule from its JSON form."""
    if not isinstance(obj, dict):
        raise SpecInvalid(f"schedule: expected an object, got {type(obj).__name__}")
    extra = set(obj) - {"r", "s", "b", "provenance"}
    if extra:
        raise SpecInvalid(f"schedule: unexpected top-level fields {sorted(extra)}")
    for key in ("r", "s", "b"):
        if key not in obj:
            raise SpecInvalid(f"schedule: missing required field {key!r}")
    provenance = obj.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise SpecInvalid("provenance: expected an object")
    return ScheduleSpec(
        r_spec=parse_function(obj["r"], "r"),
        s_spec=parse_function(obj["s"], "s"),
        b_spec=parse_function(obj["b"], "b"),
        provenance=provenance,
    )


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, no insignificant whitespace."""
    return _CANONICAL_ENCODER.encode(obj)


def read_json(path: str, what: str) -> Any:
    """The JSON value in the file ``what`` at ``path``; any read or decode failure is SpecInvalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecInvalid(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecInvalid(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable UTF-8, or an int literal past the digit cap
        raise SpecInvalid(f"{path}: unreadable JSON: {exc}") from exc


def load_schedule(path: str) -> ScheduleSpec:
    """Read and parse a schedule JSON file."""
    return parse_schedule(read_json(path, "schedule file"))


@dataclass(frozen=True)
class RestrictionReport:
    """Horizon-relative validity and restriction findings for one schedule.

    ``restriction2_last_violation`` is the largest checked i with
    ``Ltilde(i) <= r(i)``; restriction 2 is only semi-decidable, so the
    report never claims anything beyond ``horizon``.
    """

    horizon: int
    validity_ok: bool
    first_invalid_index: int | None
    restriction1_ok: bool
    restriction1_first_violation: int | None
    restriction2_last_violation: int | None
    i_minus_b_max: int
    i_minus_b_grew: bool

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class NightRuns:
    """The nights on which a condition holds, stored as the nights where it switches.

    ``edges`` lists in increasing order the nights on which the condition
    changes value, starting from "does not hold" before night 1, so it
    holds on [edges[0], edges[1]), [edges[2], edges[3]), ... Memory grows
    with the number of switches, not with the horizon, and every query is
    one bisection.
    """

    __slots__ = ("_edges",)

    def __init__(self, edges: array) -> None:
        self._edges = edges

    def first(self, lo: int, hi: int) -> int | None:
        """Earliest night in [lo, hi] on which the condition holds, or None."""
        k = bisect_right(self._edges, lo)
        night = lo if k % 2 else self._edges[k] if k < len(self._edges) else hi + 1
        return night if night <= hi else None

    def last(self, hi: int) -> int | None:
        """Latest night <= hi on which the condition holds, or None."""
        k = bisect_right(self._edges, hi)
        if k % 2:
            return hi
        return self._edges[k - 1] - 1 if k else None

    def covers(self, lo: int, hi: int) -> bool:
        """Whether the condition holds on every night of [lo, hi]."""
        k = bisect_right(self._edges, lo)
        return k % 2 == 1 and (k == len(self._edges) or self._edges[k] > hi)


class GameInstance:
    """A schedule materialized on indices 1..horizon_cap.

    The clamped b(i) and the prefix sums S(i) and R(i) of s and r are computed
    eagerly, in one pass (exact integers, guarded by ``digit_budget``); every
    other value, s(i) = S(i) - S(i-1) included, is read from them. The
    instance is immutable afterwards and safe for concurrent readers.

    Construction also records the restriction facts every caller reads
    instead of scanning: ``restriction1_first_violation``, the first i with
    b(i+1) > b(i) + 1 over all materialized indices, and, over the valid
    prefix, the nights ``restriction2_violations`` with Ltilde(i) <= r(i)
    and the nights ``window_dips`` with Ltilde(i) < r(i), on which
    oldest-first removal reaches into the memory window. It also records the
    nights on which the memory gap i - b(i) ties or beats its running
    maximum and minimum, so ``memory_gap_range`` is one bisection each.

    A value-level validity violation (r(i) < 1, r(i) >= s(i), or a negative
    raw memory bound) does not fail construction; instead
    ``first_invalid_index`` records the earliest offending day and any
    evaluation at or beyond it raises SpecInvalid. This keeps the valid
    prefix usable, in particular for restriction reports on broken specs.
    """

    __slots__ = (
        "spec",
        "horizon_cap",
        "first_invalid_index",
        "restriction1_first_violation",
        "restriction2_violations",
        "window_dips",
        "_playable_through",
        "_gap_highs",
        "_gap_lows",
        "_b",
        "_sum_s",
        "_sum_r",
    )

    def __init__(
        self,
        spec: ScheduleSpec,
        horizon_cap: int | None = None,
        digit_budget: int = DEFAULT_DIGIT_BUDGET,
    ):
        self.spec = spec

        hard = None
        for fs in (spec.r_spec, spec.s_spec, spec.b_spec):
            h = fs.hard_horizon()
            if h is not None:
                hard = h if hard is None else min(hard, h)
        cap = DEFAULT_HORIZON_CAP if horizon_cap is None else horizon_cap
        if hard is not None:
            cap = min(cap, hard)
        if cap < 0:
            raise SpecInvalid(f"horizon_cap must be nonnegative, got {cap}")
        self.horizon_cap = cap

        # Index 0 is a placeholder so value arrays are 1-based like the game.
        b_vals: list[int] = [0] * (cap + 1)
        sum_s: list[int] = [0] * (cap + 1)
        sum_r: list[int] = [0] * (cap + 1)
        first_invalid: int | None = None
        first_break: int | None = None
        # Nights where i - b(i) reaches its running max (min) so far; the
        # gap is at least 0 and at most cap.
        high_edges, low_edges = array("q"), array("q")
        high = low = False
        gap_max, gap_min, gap = 0, cap, 0
        r2_edges, dip_edges = array("q"), array("q")
        r2 = dip = False

        limit = budget_bits(digit_budget)
        acc_s = 0
        acc_r = 0
        # zip stops at the range: cap is at most every spec's hard_horizon(), so no stream ends sooner.
        for i, ri, si, bi_raw in zip(range(1, cap + 1), spec.r_spec, spec.s_spec, spec.b_spec):
            if first_invalid is None and not (1 <= ri < si and bi_raw >= 0):
                first_invalid = i
            # Clamp to [0, i]; the raw value is only needed for validity.
            b_vals[i] = min(bi_raw, i) if bi_raw >= 0 else 0
            # b(i) > b(i-1) + 1 exactly when the gap i - b(i) shrinks.
            prev, gap = gap, i - b_vals[i]
            if gap < prev and first_break is None:
                first_break = i - 1
            if (gap >= gap_max) is not high:
                high = not high
                high_edges.append(i)
            if (gap <= gap_min) is not low:
                low = not low
                low_edges.append(i)
            gap_max, gap_min = gap if high else gap_max, gap if low else gap_min
            acc_s += si
            acc_r += ri
            if max(acc_s, acc_r).bit_length() > limit:
                guard_digits(acc_s, digit_budget, context=f"sum of arrivals through day {i}")
                guard_digits(acc_r, digit_budget, context=f"sum of removals through night {i}")
            sum_s[i] = acc_s
            sum_r[i] = acc_r
            if first_invalid is None:
                # Ltilde(i) before its clamp at zero; r(i) >= 1 on valid days
                # makes the clamp irrelevant to both comparisons.
                pool = sum_s[gap] - sum_r[i - 1]
                if (pool <= ri) is not r2:
                    r2 = not r2
                    r2_edges.append(i)
                if (pool < ri) is not dip:
                    dip = not dip
                    dip_edges.append(i)

        self._b = b_vals
        self._sum_s = sum_s
        self._sum_r = sum_r
        self.first_invalid_index = first_invalid
        self.restriction1_first_violation = first_break
        valid_end = self.valid_end(cap)
        # The last n <= cap that require_playable(n) passes.
        self._playable_through = valid_end if first_break is None else min(valid_end, first_break)
        self._gap_highs = NightRuns(high_edges)
        self._gap_lows = NightRuns(low_edges)
        # Both restriction-2 conditions stop at the end of the valid prefix.
        for holds, edges in ((r2, r2_edges), (dip, dip_edges)):
            if holds:
                edges.append(valid_end + 1)
        self.restriction2_violations = NightRuns(r2_edges)
        self.window_dips = NightRuns(dip_edges)

    def _check_index(self, i: int, low: int) -> None:
        if not (low <= i <= self.horizon_cap):
            raise IndexBeyondHorizon(
                f"index {i} outside [{low}, {self.horizon_cap}] for this instance"
            )
        self.require_valid(i)

    def check_horizon(self, horizon: int) -> None:
        """Raise IndexBeyondHorizon unless 1 <= horizon <= horizon_cap."""
        if not 1 <= horizon <= self.horizon_cap:
            raise IndexBeyondHorizon(f"horizon {horizon} outside [1, {self.horizon_cap}] for this instance")

    def require_valid(self, i: int) -> None:
        """Raise SpecInvalid unless days 1..i are all valid."""
        if self.first_invalid_index is not None and i >= self.first_invalid_index:
            raise SpecInvalid(
                f"schedule invalid from day {self.first_invalid_index}"
                " (needs 1 <= r(i) < s(i) and b(i) >= 0)"
            )

    def valid_end(self, horizon: int) -> int:
        """The last day <= horizon before the first invalid day."""
        if self.first_invalid_index is None:
            return horizon
        return min(horizon, self.first_invalid_index - 1)

    def restriction1_holds(self, upto: int) -> bool:
        """Whether b(i+1) <= b(i) + 1 for every 1 <= i < upto."""
        first = self.restriction1_first_violation
        return first is None or first >= upto

    def require_playable(self, n: int) -> None:
        """Raise what the engine raises on nights 1..n: RestrictionViolated for a
        memory break before the first invalid day, else SpecInvalid for an invalid day."""
        if n <= self._playable_through:
            return
        if not self.restriction1_holds(self.valid_end(n)):
            i = self.restriction1_first_violation
            raise RestrictionViolated(
                f"memory bound grows too fast at night {i}: b({i + 1}) > b({i}) + 1"
                " would re-admit forgotten days"
            )
        self.require_valid(n)

    def r_at(self, i: int) -> int:
        self._check_index(i, 1)
        return self._sum_r[i] - self._sum_r[i - 1]

    def s_at(self, i: int) -> int:
        self._check_index(i, 1)
        return self._sum_s[i] - self._sum_s[i - 1]

    def b_at(self, i: int) -> int:
        """Memory bound at night i, clamped to min(b(i), i)."""
        self._check_index(i, 1)
        return self._b[i]

    def evaluate(self, i: int) -> tuple[int, int, int]:
        """(r(i), s(i), clamped b(i)) for 1 <= i <= horizon_cap."""
        self._check_index(i, 1)
        sum_s, sum_r = self._sum_s, self._sum_r
        return (sum_r[i] - sum_r[i - 1], sum_s[i] - sum_s[i - 1], self._b[i])

    def cave_level(self, i: int) -> int:
        """L(i): bags in the cave after night i; L(0) = 0."""
        self._check_index(i, 0)
        return self._sum_s[i] - self._sum_r[i]

    def very_old_level(self, i: int) -> int:
        """Ltilde(i): very-old bags present when night i begins."""
        return max(0, self.very_old_level_unclamped(i))

    def very_old_level_unclamped(self, i: int) -> int:
        """The inner sum of Ltilde(i) before the max-with-zero clamp."""
        self._check_index(i, 1)
        return self._sum_s[i - self._b[i]] - self._sum_r[i - 1]

    def fifo_cut(self, i: int) -> tuple[int, int]:
        """(d, p) such that the first r(1) + ... + r(i) arrivals, which FIFO
        removal has taken by the end of night i, are the bags (day, pos) <= (d, p).
        """
        self._check_index(i, 0)
        removed = self._sum_r[i]
        # Arrivals strictly increase on the valid days 1..i and outnumber
        # the removals through night i, so the search can stop at day i.
        d = bisect_right(self._sum_s, removed, 0, i + 1)
        return d, removed - self._sum_s[d - 1]

    def cell(self, d: int, i: int) -> tuple[int, int]:
        """(count, take): the size of the cell holding a day-d bag as night i
        begins (the very-old pool when d <= i - b(i), else day d's cell) and
        how many of it night i removes. Under restriction 1 oldest-first
        removal is FIFO over cells: after night j, max(0, S(x) - R(j)) bags
        are left from days <= x for every x at or past night j's cutoff.
        """
        if not 1 <= d <= i <= self.horizon_cap:
            raise IndexBeyondHorizon(f"cell of day {d} on night {i} outside 1 <= d <= i <= {self.horizon_cap}")
        self.require_playable(i)
        before, after = self._sum_r[i - 1], self._sum_r[i]
        cutoff = i - self._b[i]
        if d <= cutoff:
            count = max(0, self._sum_s[cutoff] - before)
            return count, min(after - before, count)
        count = self._bags_left(d, before)
        return count, count - self._bags_left(d, after)

    def _bags_left(self, d: int, removed: int) -> int:
        """How many of day d's bags are still in the cave once FIFO over all
        arrivals has taken the first ``removed`` of them."""
        return max(0, self._sum_s[d] - max(self._sum_s[d - 1], removed))

    def night_cuts(self, i: int) -> list[tuple[int, int, int]]:
        """[(key, count, take)]: the cells night i takes from, oldest first, as
        ``cell`` gives them; the key is VERY_OLD_KEY for the very-old pool, else the arrival day.
        One bisection finds the oldest remembered day with bags left; the walk
        stops at the day of ``fifo_cut(i)``.
        """
        if not 1 <= i <= self.horizon_cap:
            raise IndexBeyondHorizon(f"night {i} outside [1, {self.horizon_cap}] for this instance")
        self.require_playable(i)
        sum_s, sum_r = self._sum_s, self._sum_r
        cutoff = i - self._b[i]
        before, after = sum_r[i - 1], sum_r[i]
        pool = max(0, sum_s[cutoff] - before)
        cuts = [(VERY_OLD_KEY, pool, min(after - before, pool))] if pool else []
        # Arrivals strictly increase on valid days, and S(i) > R(i).
        d = bisect_right(sum_s, before, cutoff + 1, i + 1)
        while sum_s[d - 1] < after:
            count = self._bags_left(d, before)
            cuts.append((d, count, count - self._bags_left(d, after)))
            d += 1
        return cuts

    def memory_gap_range(self, horizon: int) -> tuple[int, int]:
        """(min, max) of i - b(i) over 1 <= i <= horizon: each is the gap on the
        last night up to horizon that tied or beat the running extreme."""
        self.check_horizon(horizon)
        lo, hi = self._gap_lows.last(horizon), self._gap_highs.last(horizon)
        return lo - self._b[lo], hi - self._b[hi]  # type: ignore[operator]

    def check_restrictions(self, horizon: int) -> RestrictionReport:
        """Validity and the two restrictions on [1, horizon], from the instance's facts."""
        self.check_horizon(horizon)

        first_invalid = self.first_invalid_index
        if first_invalid is not None and first_invalid > horizon:
            first_invalid = None
        validity_ok = first_invalid is None
        r1_violation = None if self.restriction1_holds(horizon) else self.restriction1_first_violation

        gap_min, gap_max = self.memory_gap_range(horizon)

        return RestrictionReport(
            horizon=horizon,
            validity_ok=validity_ok,
            first_invalid_index=first_invalid,
            restriction1_ok=r1_violation is None,
            restriction1_first_violation=r1_violation,
            restriction2_last_violation=self.restriction2_violations.last(horizon),
            i_minus_b_max=gap_max,
            i_minus_b_grew=gap_max > gap_min,
        )


def spec_plus_one(fs: FunctionSpec) -> FunctionSpec:
    """A function spec whose clamped value is min(b(i) + 1, i) when ``fs`` yields b.

    Adding 1 to every raw value commutes with the min(., i) clamp:
    min(min(v, i) + 1, i) = min(v + 1, i) for all i >= 1. Only the closed form
    reads ``c``, so a table or generated spec keeps its own.
    """
    closed = fs.tail is None and fs.kind != "generated"
    return replace(
        fs,
        values=tuple(v + 1 for v in fs.values),
        c=fs.c + 1 if closed else fs.c,
        tail=None if fs.tail is None else spec_plus_one(fs.tail),
    )


def bounded_memory_gap(fs: FunctionSpec, start_i: int = 1) -> int | None:
    """Supremum of i - min(b(i), i) over i >= start_i, when the family proves one.

    Returns the bound for specs where the gap is provably bounded (affine
    slope >= 1, possibly behind a finite table prefix), else None. Constant
    and generated specs never prove boundedness.
    """
    n = len(fs.values)
    after = max(start_i, n + 1)
    if fs.tail is not None:
        tail_bound = bounded_memory_gap(fs.tail, after)
        if tail_bound is None:
            return None
    elif fs.kind == "generated" or fs.a < 1:
        return None
    else:
        # Gap i - (a*i + c) is nonincreasing for a >= 1: sup is at the first index past the prefix.
        tail_bound = max(after - (fs.a * after + fs.c), 0)
    prefix = 0
    for i in range(start_i, n + 1):
        v = fs.values[i - 1]
        prefix = max(prefix, i - min(v, i) if v >= 0 else i)
    return max(prefix, tail_bound)
