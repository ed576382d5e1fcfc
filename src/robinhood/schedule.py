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

``GameInstance`` holds a schedule on a finite index range as the cutoff
i - b(i), the last day of night i's very-old pool, and the prefix sums of
s and r: stored for the specs' table prefix, and read past it from the
closed forms, where the sums are integer quadratics and the cutoff is
piecewise affine. Arithmetic is exact, under a digit budget that aborts
runaway growth. It also computes, once, where the two
structural conditions the analysis layer relies on fail, and
``check_restrictions`` reports them relative to a horizon:

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
from functools import cache, cached_property
from itertools import accumulate, chain, count, pairwise, repeat
from math import isqrt
from typing import Any, Callable, Iterable, Iterator, Mapping

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

#: One night of ``GameInstance.plays``: (cut(i), R(i-1), R(i), S(i), [(key, count, take)], (d, p)).
Play = tuple[int, int, int, int, list[tuple[int, int, int]], tuple[int, int]]
#: (a, b, c) for the polynomial (a * i + b) * i + c.
Quad = tuple[int, int, int]


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


def _require_decimal_string(value: Any, path: str, parse: Callable[[str], int]) -> int:
    if not isinstance(value, str):
        raise SpecInvalid(f"{path}: expected a decimal string, got {value!r}")
    try:
        return parse(value)
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

    @cached_property
    def flat(self) -> tuple[tuple[int, ...], tuple[int, int] | None]:
        """(prefix, closed): the values at i = 1..len(prefix), each from the outermost table holding i,
        then ``a * i + c`` for closed = (a, c), or None where generated values end. The one walk down ``tail``."""
        prefix, fs = tuple(self.values), self
        while fs.tail is not None:
            fs = fs.tail
            prefix += fs.values[len(prefix) :]
        return prefix, None if fs.kind == "generated" else (fs.a, fs.c)

    def value_at(self, i: int) -> int:
        """Raw function value at day i >= 1 (no clamping applied)."""
        prefix, closed = self.flat
        if i < 1:
            raise IndexBeyondHorizon(f"index {i} is below 1")
        if i <= len(prefix):
            return prefix[i - 1]
        if closed is None:
            raise IndexBeyondHorizon(f"generated values end at index {len(prefix)}; refusing index {i}")
        return closed[0] * i + closed[1]

    def __iter__(self) -> Iterator[int]:
        """The values at i = 1, 2, ...; the stream ends after index ``hard_horizon()`` when that is not None."""
        prefix, closed = self.flat
        yield from prefix
        if closed is not None:
            a, c = closed
            yield from count(a * (len(prefix) + 1) + c, a) if a else repeat(c)

    def hard_horizon(self) -> int | None:
        """Largest defined index, or None when defined for all i >= 1."""
        return len(self.flat[0]) if self.flat[1] is None else None

    def eventually_constant(self) -> tuple[int, int] | None:
        """(value, from_index) if provably constant from some index on."""
        prefix, closed = self.flat
        return None if closed is None or closed[0] else (closed[1], len(prefix) + 1)

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


def parse_function(obj: Any, path: str, parse: Callable[[str], int] = parse_decimal) -> FunctionSpec:
    """Parse one function spec from its JSON form, with field-path errors; ``parse``
    reads each generated value's decimal string."""
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
        tail = parse_function(obj["tail"], f"{path}.tail", parse)
        return FunctionSpec.table(values, tail)
    # generated
    raw = obj["values"]
    if not isinstance(raw, list):
        raise SpecInvalid(f"{path}.values: expected a list")
    values = [_require_decimal_string(v, f"{path}.values[{k}]", parse) for k, v in enumerate(raw)]
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
    """Parse a full schedule from its JSON form. Each distinct decimal string is parsed
    once: construct's files repeat values (with memory 0, r(i + 1) = s(i) from i = 2 on)."""
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
    parse = cache(parse_decimal)
    return ScheduleSpec(
        r_spec=parse_function(obj["r"], "r", parse),
        s_spec=parse_function(obj["s"], "s", parse),
        b_spec=parse_function(obj["b"], "b", parse),
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

    def __init__(self, edges: list[int]) -> None:
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


def _near_roots(lo: int, hi: int, quads: Iterable[Quad]) -> list[int]:
    """lo, then every index of [lo, hi] next to a real root of some a*x*x + b*x + c in quads, in order.

    A sign test on such a polynomial (q <= 0, q < 0, q > 0) changes value
    between i - 1 and i only when q has a root in [i - 1, i]. The floor t of
    the root estimated with ``isqrt`` is within 1.5 of it, so that i is one of
    t, t + 1 and t + 2; the indices t - 1..t + 3 are returned, and the caller
    confirms each edge by evaluating its test at them. Between two returned
    indices no sign test on any of the polynomials changes value.
    """
    if lo > hi:
        return []
    points = {lo}
    for a, b, c in quads:
        if a:
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            root = isqrt(disc)
            estimates: tuple[int, ...] = ((root - b) // (2 * a), (-root - b) // (2 * a))
        elif b:
            estimates = (-c // b,)
        else:
            continue
        for t in estimates:
            points.update(range(max(lo, t - 1), min(hi, t + 3) + 1))
    return sorted(points)


def _value(poly: Quad, x: int) -> int:
    """(a * x + b) * x + c for poly = (a, b, c)."""
    a, b, c = poly
    return (a * x + b) * x + c


def _cell(s_lo: int, s_hi: int, before: int, after: int) -> tuple[int, int]:
    """(count, take) of the cell of arrival ranks s_lo+1..s_hi on a night that removes ranks
    before+1..after: its ranks still in the cave (> before) and those the night removes."""
    # Conditionals, not max(): night_cuts, on the simulator's per-night path, calls this.
    left = s_hi - (s_lo if s_lo > before else before)
    kept = s_hi - (s_lo if s_lo > after else after)
    count = left if left > 0 else 0
    take = count - kept if kept > 0 else count
    return count, take


def _double_sum(closed: tuple[int, int], top: int, total: int) -> Quad:
    """(a2, b2, c2) with 2 * F(x) = (a2 * x + b2) * x + c2 for x >= top, where F(top) = total
    and F(x) - F(x - 1) = a * x + c past top, for closed = (a, c)."""
    a, c = closed
    return a, a + 2 * c, 2 * total - (a * top + a + 2 * c) * top


class GameInstance:
    """A schedule on indices 1..horizon_cap: its table prefix stored, every later index closed-form.

    P (``_top``) is the longest table prefix among the three specs (all of a
    ``generated`` spec's values). For i <= P the cutoff
    cut(i) = i - min(max(b(i), 0), i), the last day of night i's very-old
    pool, and the prefix sums S(i) and R(i) of s and r are stored, computed in
    one pass (exact integers, guarded by ``digit_budget``). Past P S and R are
    integer quadratics and the cutoff is affine on at most three clamp pieces
    (b < 0, 0 <= b <= i, b > i). Each has one reader (``_cut_at``, ``_s_sum``,
    ``_r_sum``), every other value is read through them, and each cell's
    count and take by one rank rule, ``_cell``. Memory and construction time
    grow with P, not with horizon_cap. The instance is immutable afterwards
    and safe for concurrent readers.

    Construction also records the restriction facts every caller reads
    instead of scanning: ``restriction1_first_violation``, the night before
    the first on which the cutoff decreases (b(i+1) > b(i) + 1) over all
    indices, and, over the valid prefix, the nights ``restriction2_violations``
    with Ltilde(i) <= r(i) and the nights ``window_dips`` with
    Ltilde(i) < r(i), on which oldest-first removal reaches into the memory
    window. Past P each fact comes from the closed forms: a sign change of a
    linear or quadratic function, located with ``isqrt`` and confirmed at
    its neighbours. ``_clamp_pieces`` builds the tail polynomials once, and
    ``_tail_polys`` is their one reader: 2 * r(i) and 2 * Ltilde(i) on each
    clamp piece, and the nights whose cutoff still falls at or below P, at
    most P + 1 per piece, which are evaluated one by one.

    A value-level validity violation (r(i) < 1, r(i) >= s(i), or a negative
    raw memory bound) does not fail construction; instead
    ``first_invalid_index`` records the earliest offending day and any
    evaluation at or beyond it raises SpecInvalid. This keeps the valid
    prefix usable, in particular for restriction reports on broken specs.
    """

    __slots__ = (
        "spec", "horizon_cap", "first_invalid_index", "restriction1_first_violation", "restriction2_violations",
        "window_dips", "_valid_through", "_playable_through", "_top", "_cut", "_sum_s", "_sum_r", "_quad_s",
        "_quad_r", "_pieces",
    )

    def __init__(
        self,
        spec: ScheduleSpec,
        horizon_cap: int | None = None,
        digit_budget: int = DEFAULT_DIGIT_BUDGET,
    ):
        self.spec = spec
        specs = (spec.r_spec, spec.s_spec, spec.b_spec)

        # A spec with no closed form ends the instance where its values end.
        ends = [fs.hard_horizon() for fs in specs]
        cap = min(h for h in [DEFAULT_HORIZON_CAP if horizon_cap is None else horizon_cap, *ends] if h is not None)
        if cap < 0:
            raise SpecInvalid(f"horizon_cap must be nonnegative, got {cap}")
        self.horizon_cap = cap
        # Past top every spec is closed: a generated one makes cap <= its length <= top.
        top = self._top = min(cap, max([len(fs.flat[0]) for fs in specs]))

        # Index 0 is a placeholder so value arrays are 1-based like the game.
        cuts = self._cut = array("q", bytes(8 * (top + 1)))
        sum_s = self._sum_s = [0] * (top + 1)
        sum_r = self._sum_r = [0] * (top + 1)
        first_invalid: int | None = None
        first_break: int | None = None

        limit = budget_bits(digit_budget)
        acc_s = 0
        acc_r = 0
        cut = 0
        # zip stops at the range: top is at most every spec's hard_horizon(), so no stream ends sooner.
        for i, ri, si, bi in zip(range(1, top + 1), spec.r_spec, spec.s_spec, spec.b_spec):
            if first_invalid is None and not (1 <= ri < si and bi >= 0):
                first_invalid = i
            # cut(i) = i - b(i), b clamped to [0, i]; the raw b is only needed for validity.
            prev, cut = cut, i - bi if 0 <= bi <= i else i if bi < 0 else 0
            cuts[i] = cut
            # b(i) > b(i-1) + 1 exactly when the cutoff decreases.
            if cut < prev and first_break is None:
                first_break = i - 1
            acc_s += si
            acc_r += ri
            if acc_s.bit_length() > limit or acc_r.bit_length() > limit:
                guard_digits(acc_s, digit_budget, context=f"sum of arrivals through day {i}")
                guard_digits(acc_r, digit_budget, context=f"sum of removals through night {i}")
            sum_s[i] = acc_s
            sum_r[i] = acc_r

        # Unread when every index is in the prefix.
        self._quad_s = self._quad_r = (0, 0, 0)
        self._pieces = ()
        if top < cap:
            (ar, cr), (as_, cs), (ab, cb) = (fs.flat[1] for fs in specs)  # type: ignore[misc]
            self._quad_s = _double_sum((as_, cs), top, acc_s)
            self._quad_r = _double_sum((ar, cr), top, acc_r)
            self._pieces = self._clamp_pieces(ab, cb)
            self._guard_tail(limit, digit_budget)
            if first_invalid is None:
                # Valid needs r >= 1, s - r >= 1 and b >= 0: three linear sign tests.
                quads = ((0, ar, cr - 1), (0, as_ - ar, cs - cr - 1), (0, ab, cb))
                first_invalid = next(
                    (i for i in _near_roots(top + 1, cap, quads)
                     if not (1 <= ar * i + cr < as_ * i + cs and ab * i + cb >= 0)),
                    None,
                )
            if first_break is None:
                # The cutoff is affine on each piece: it can first decrease at a piece's start or next index.
                steps = sorted({start + k for start, *_ in self._pieces for k in (0, 1) if start + k <= cap})
                first_break = next((i - 1 for i in steps if self._cut_at(i) < self._cut_at(i - 1)), None)

        self.first_invalid_index = first_invalid
        self.restriction1_first_violation = first_break
        valid_end = self._valid_through = self.valid_end(cap)
        # The last nights that require_valid and require_playable pass.
        self._playable_through = valid_end if first_break is None else min(valid_end, first_break)

        # Ltilde - r can change sign on any valid prefix night; past the prefix, only on a night
        # whose cutoff still reads the table or next to a root of its polynomial on a piece.
        nights: list[Iterable[int]] = [range(1, min(top, valid_end) + 1)]
        for first, last, m, _, table, r_poly, l_poly in self._tail_polys(top + 1, valid_end):
            closed = (table.stop, last) if m > 0 else (first, table.start - 1)
            roots = _near_roots(*closed, [[p - q for p, q in zip(l_poly, r_poly)]])
            nights += (table, roots) if m > 0 else (roots, table)
        r2_edges: list[int] = []
        dip_edges: list[int] = []
        r2 = dip = False
        for i in chain.from_iterable(nights):
            # Ltilde(i) - r(i) = S(cut(i)) - R(i) before Ltilde's clamp at zero, which
            # r(i) >= 1 on valid nights makes irrelevant to its sign.
            margin = self._s_sum(self._cut_at(i)) - self._r_sum(i)
            if (margin <= 0) is not r2:
                r2 = not r2
                r2_edges.append(i)
            if (margin < 0) is not dip:
                dip = not dip
                dip_edges.append(i)
        # Both restriction-2 conditions stop at the end of the valid prefix.
        for holds, edges in ((r2, r2_edges), (dip, dip_edges)):
            if holds:
                edges.append(valid_end + 1)
        self.restriction2_violations = NightRuns(r2_edges)
        self.window_dips = NightRuns(dip_edges)

    def _clamp_pieces(self, ab: int, cb: int) -> tuple[tuple[int, int, int, int, int, Quad, Quad], ...]:
        """(start, m, k, end, split, r2, l2), latest start first, for b(i) = ab * i + cb: cut(i) = m * i + k
        on nights start..end past the prefix; split is the first night whose cutoff passes P when m > 0, the
        first at or below it when m < 0, else end + 1. The one place S(cut(i)) and R compose on a piece."""
        top, starts = self._top, []
        # The clamp's branch changes only where b(i) or b(i) - i changes sign.
        for i in _near_roots(top + 1, self.horizon_cap, ((0, ab, cb), (0, ab - 1, cb))):
            b = ab * i + cb
            m, k = (1, 0) if b < 0 else (0, 0) if b > i else (1 - ab, -cb)
            if not starts or starts[-1][1:] != (m, k):
                starts.append((i, m, k))
        a_s, b_s, c_s = self._quad_s
        a_r, b_r, c_r = self._quad_r
        r2 = (0, 2 * a_r, b_r - a_r)  # 2R(i) - 2R(i - 1)
        pieces, end = [], self.horizon_cap
        for start, m, k in reversed(starts):
            split = (top - k) // m + 1 if m > 0 else -((k - top) // m) if m < 0 else end + 1
            # 2S(m * i + k) with S's quadratic, or the constant 2S(k), which may fall in the table.
            s2 = (a_s * m * m, (2 * a_s * k + b_s) * m, (a_s * k + b_s) * k + c_s) if m else (0, 0, 2 * self._s_sum(k))
            l2 = (s2[0] - a_r, s2[1] - b_r + 2 * a_r, s2[2] - a_r + b_r - c_r)  # minus 2R(i - 1)
            pieces.append((start, m, k, end, split, r2, l2))
            end = start - 1
        return tuple(pieces)

    def _guard_tail(self, limit: int, digit_budget: int) -> None:
        """Raise LimitExceeded at the first index past the prefix where |S| or |R| has more than
        ``limit`` bits, checking S, then R, as a per-index loop would; nothing if there is none."""
        cap = self.horizon_cap
        # |2F(x)| <= (|a| + |b| + |c|) * cap**2 on 1 <= x <= cap: most tails never come near.
        near = [(a, b, c) for a, b, c in (self._quad_s, self._quad_r)
                if ((abs(a) + abs(b) + abs(c)) * cap * cap).bit_length() > limit]
        if not near:
            return
        bound = 2 << limit  # |F(x)| >= 2**limit exactly when 2F(x) - bound >= 0 or 2F(x) + bound <= 0
        for x in _near_roots(self._top + 1, cap, [(a, b, c + d) for a, b, c in near for d in (-bound, bound)]):
            guard_digits(self._s_sum(x), digit_budget, context=f"sum of arrivals through day {x}")
            guard_digits(self._r_sum(x), digit_budget, context=f"sum of removals through night {x}")

    def _tail_polys(self, lo: int, hi: int) -> list[tuple[int, int, int, int, range, Quad, Quad]]:
        """(first, last, m, k, table, r2, l2): the clamp pieces cut to [lo, hi], top < lo, in increasing
        order, with cut(i) = m * i + k on nights first..last. ``table`` is the nights whose cutoff is
        still at or below the prefix's end P, at most P + 1 of them: at the start of the piece when
        m > 0, at its end when m < 0, none when m = 0. On every other night 2 * r(i) and 2 * Ltilde(i)
        before its clamp, 2 * (S(cut(i)) - R(i - 1)), are (a * i + b) * i + c for (a, b, c) = r2 and l2."""
        polys = []
        for start, m, k, end, split, r2, l2 in reversed(self._pieces):
            first, last = lo if lo > start else start, hi if hi < end else end
            if first <= last:
                split = first if split < first else last + 1 if split > last else split
                polys.append((first, last, m, k, range(first, split) if m > 0 else range(split, last + 1), r2, l2))
        return polys

    def _s_sum(self, x: int) -> int:
        """S(x), arrivals on days 1..x, for 0 <= x <= horizon_cap."""
        if x <= self._top:
            return self._sum_s[x]
        a, b, c = self._quad_s
        return ((a * x + b) * x + c) >> 1

    def _r_sum(self, x: int) -> int:
        """R(x), removals on nights 1..x, for 0 <= x <= horizon_cap."""
        if x <= self._top:
            return self._sum_r[x]
        a, b, c = self._quad_r
        return ((a * x + b) * x + c) >> 1

    def _cut_at(self, i: int) -> int:
        """cut(i) = i - b(i), b clamped to [0, i], for 0 <= i <= horizon_cap."""
        if i <= self._top:
            return self._cut[i]
        for start, m, k, _, _, _, _ in self._pieces:  # the earliest piece starts at top + 1
            if i >= start:
                break
        return m * i + k

    def _s_inverse(self, v: int, hi: int) -> tuple[int, int]:
        """(x, S(x)) for the last day x in 0..hi with S(x) <= v, for v >= 0, where days
        1..hi are valid, so that S strictly increases on 0..hi."""
        top = self._top
        if hi <= top or self._sum_s[top] > v:
            x = bisect_right(self._sum_s, v, 0, min(hi, top) + 1) - 1
            return x, self._sum_s[x]
        a, b, c = self._quad_s
        if not a:  # 2S(x) = b * x + c past the prefix
            x = min(hi, (2 * v - c) // b)
            return x, (b * x + c) >> 1
        # The root of a x^2 + b x + c - 2v on S's increasing side is (sqrt(disc) - b) / (2a); its
        # floor is exact with floor(sqrt(disc)) over 2a > 0 and with ceil(sqrt(disc)) over 2a < 0.
        disc = b * b - 4 * a * (c - 2 * v)
        if disc < 0:  # a < 0 and S stays below v
            return hi, self._s_sum(hi)
        root = isqrt(disc)
        if a < 0 and root * root < disc:
            root += 1
        x = min(hi, (root - b) // (2 * a))
        return x, self._s_sum(x)

    def _nights(self, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
        """(cut(i), S(cut(i)), R(i)) for i = lo..hi, R carried from night to night past the prefix."""
        top, cut, sum_s, sum_r = self._top, self._cut, self._sum_s, self._sum_r
        for i in range(lo, min(hi, top) + 1):
            c = cut[i]
            yield c, sum_s[c], sum_r[i]
        lo = max(lo, top + 1)
        if lo > hi:
            return
        a_s, b_s, c_s = self._quad_s
        a_r, b_r, _ = self._quad_r
        after = self._r_sum(lo - 1)
        r = (a_r * (2 * lo - 1) + b_r) >> 1  # r(lo) = R(lo) - R(lo - 1), then + a_r a night
        for first, last, m, k, *_ in self._tail_polys(lo, hi):
            x = m * first + k
            for _ in range(first, last + 1):
                after += r
                r += a_r
                yield x, sum_s[x] if x <= top else ((a_s * x + b_s) * x + c_s) >> 1, after
                x += m

    def _check_read(self, lo: int, hi: int, last: int) -> None:
        """Raise what reading nights lo..hi raises, before any night is read, when
        nights 1..last (last <= horizon_cap) are the readable ones; nothing when lo > hi.

        The first failing night decides: IndexBeyondHorizon outside 1..horizon_cap,
        else what the first unreadable night, last + 1, raises: SpecInvalid from the
        first invalid day on, RestrictionViolated after a memory break before it.
        """
        first = lo if lo < 1 else max(lo, last + 1)
        if first > hi:
            return
        if not 1 <= first <= self.horizon_cap:
            raise IndexBeyondHorizon(f"night {first} outside [1, {self.horizon_cap}] for this instance")
        invalid = self.first_invalid_index
        if invalid is not None and last + 1 >= invalid:
            raise SpecInvalid(f"schedule invalid from day {invalid} (needs 1 <= r(i) < s(i) and b(i) >= 0)")
        i = self.restriction1_first_violation
        raise RestrictionViolated(
            f"memory bound grows too fast at night {i}: b({i + 1}) > b({i}) + 1 would re-admit forgotten days"
        )

    def check_horizon(self, horizon: int) -> None:
        """Raise IndexBeyondHorizon unless 1 <= horizon <= horizon_cap; validity is not read."""
        if not 1 <= horizon <= self.horizon_cap:
            self._check_read(horizon, horizon, self.horizon_cap)

    def require_valid(self, lo: int, hi: int) -> None:
        """Raise what reading nights lo..hi raises: IndexBeyondHorizon outside
        1..horizon_cap, else SpecInvalid from the first invalid day on."""
        if not 1 <= lo <= hi <= self._valid_through:
            self._check_read(lo, hi, self._valid_through)

    def require_playable(self, lo: int, hi: int) -> None:
        """``require_valid``, and RestrictionViolated for a night after a memory break
        before the first invalid day: what simulating nights lo..hi raises."""
        if not 1 <= lo <= hi <= self._playable_through:
            self._check_read(lo, hi, self._playable_through)

    def valid_end(self, horizon: int) -> int:
        """The last day <= horizon before the first invalid day."""
        if self.first_invalid_index is None:
            return horizon
        return min(horizon, self.first_invalid_index - 1)

    def restriction1_holds(self, upto: int) -> bool:
        """Whether b(i+1) <= b(i) + 1 for every 1 <= i < upto."""
        first = self.restriction1_first_violation
        return first is None or first >= upto

    def r_at(self, i: int) -> int:
        self.require_valid(i, i)
        return self._r_sum(i) - self._r_sum(i - 1)

    def s_at(self, i: int) -> int:
        self.require_valid(i, i)
        return self._s_sum(i) - self._s_sum(i - 1)

    def b_at(self, i: int) -> int:
        """Memory bound at night i, clamped to min(b(i), i): i - cut(i)."""
        self.require_valid(i, i)
        return i - self._cut_at(i)

    def cave_level(self, i: int) -> int:
        """L(i): bags in the cave after night i; L(0) = 0."""
        self.require_valid(i or 1, i)  # night 0 reads no night: 1..0 is empty
        return self._s_sum(i) - self._r_sum(i)

    def very_old_level(self, i: int) -> int:
        """Ltilde(i): very-old bags present when night i begins."""
        return max(0, self.very_old_level_unclamped(i))

    def very_old_level_unclamped(self, i: int) -> int:
        """The inner sum of Ltilde(i) before the max-with-zero clamp."""
        self.require_valid(i, i)
        return self._s_sum(self._cut_at(i)) - self._r_sum(i - 1)

    def _term_at(self, i: int) -> float:
        """r(i)/Ltilde(i), correctly rounded, on a valid night with Ltilde(i) > 0; nothing is checked."""
        before = self._r_sum(i - 1)
        return (self._r_sum(i) - before) / (self._s_sum(self._cut_at(i)) - before)

    def fifo_cut(self, i: int) -> tuple[int, int]:
        """(d, p) such that the first r(1) + ... + r(i) arrivals, which FIFO
        removal has taken by the end of night i, are the bags (day, pos) <= (d, p).
        """
        self.require_valid(i or 1, i)  # night 0 reads no night: 1..0 is empty
        removed = self._r_sum(i)
        # Arrivals strictly increase on the valid days 1..i and outnumber
        # the removals through night i, so the search can stop at day i.
        last, s_last = self._s_inverse(removed, i)
        return last + 1, removed - s_last

    def terms(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """(r(i), Ltilde(i)) for i = lo..hi, as ``r_at`` and ``very_old_level`` give them:
        the runs of ``_runs``, chained. The range is checked once, at the call: it raises
        what the first failing per-night call would raise, and nothing when lo > hi."""
        self.require_valid(lo, hi)
        return chain.from_iterable(run[4] for run in self._runs(lo, hi)) if lo <= hi else iter(())

    def _runs(self, lo: int, hi: int) -> Iterator[tuple[int, int, Quad | None, Quad | None, Iterator[tuple[int, int]]]]:
        """(p, q, r2, l2, terms) for runs of nights p..q that cover lo..hi (1 <= lo) in order; terms
        yields (r(i), Ltilde(i)) for i = p..q. The prefix and each piece's ``table`` nights are read
        through ``_nights``, with r2 = l2 = None. On every other run 2 * r(i) and 2 * Ltilde(i) before
        its clamp are the piece's polynomials r2 and l2, cut at ``_near_roots`` of l2 so that l2 keeps
        one sign, and terms zips C-level progressions: r by ``range`` or ``repeat``, and a positive
        Ltilde by ``accumulate`` of its differences, which step by l2's a."""

        def read(p: int, q: int) -> Iterator[tuple[int, int]]:
            before = self._r_sum(p - 1)
            for _, s_cut, after in self._nights(p, q):
                pool = s_cut - before  # a conditional, not max(): this loop is the hot path
                yield after - before, pool if pool > 0 else 0
                before = after

        def closed(p: int, q: int, r2: Quad, l2: Quad) -> Iterator[tuple[int, int]]:
            step, r = r2[1] >> 1, _value(r2, p) >> 1
            rs = range(r, r + step * (q - p + 1), step) if step else repeat(r, q - p + 1)
            a, b, _ = l2
            pool = _value(l2, p) >> 1
            return zip(rs, accumulate(count((a * (2 * p + 1) + b) >> 1, a), initial=pool) if pool > 0 else repeat(0))

        top = self._top
        if lo <= min(hi, top):
            yield lo, min(hi, top), None, None, read(lo, min(hi, top))
        for first, last, m, _, table, r2, l2 in self._tail_polys(max(lo, top + 1), hi):
            start, stop = (table.stop, last + 1) if m > 0 else (first, table.start)
            edges = pairwise([*_near_roots(start, stop - 1, [l2]), stop])
            runs = [(p, q - 1, r2, l2, closed(p, q - 1, r2, l2)) for p, q in edges]
            tabled = [(table.start, table[-1], None, None, read(table.start, table[-1]))] if table else []
            yield from tabled + runs if m > 0 else runs + tabled

    def cells(self, d: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """(count, take) for nights i = lo..hi: the size of the cell holding a day-d
        bag as night i begins (the very-old pool when d <= i - b(i), else day d's
        cell) and how many of it night i removes. Under restriction 1 oldest-first
        removal is FIFO over arrival ranks: night i removes ranks R(i-1)+1..R(i), the
        pool holds ranks 1..S(cut(i)) and day d ranks S(d-1)+1..S(d), and ``_cell``
        counts both. The range is checked once, at the call: it raises what the
        first failing night would raise."""
        if lo <= hi and not 1 <= d <= lo:
            raise IndexBeyondHorizon(f"cell of day {d} on night {lo} outside 1 <= d <= i <= {self.horizon_cap}")
        self.require_playable(lo, hi)

        def walk() -> Iterator[tuple[int, int]]:
            s_day, s_before_day = self._s_sum(d), self._s_sum(d - 1)
            before = self._r_sum(lo - 1)
            for cutoff, s_cut, after in self._nights(lo, hi):
                yield _cell(0, s_cut, before, after) if d <= cutoff else _cell(s_before_day, s_day, before, after)
                before = after

        return walk() if lo <= hi else iter(())

    def plays(self, lo: int, hi: int) -> Iterator[Play]:
        """(cut(i), R(i-1), R(i), S(i), night_cuts(i), fifo_cut(i)) for nights i = lo..hi, the
        simulator's stream, checked once, at the call, as ``cells`` is. FIFO over ranks never
        moves back, so the last day x with S(x) <= R(i) is found once, for R(lo-1), by
        inverting S, then carried: a night moves it to the cutoff when its quota passes the
        whole pool, else one day at a time. The days it passes, and the partly removed one
        after them, are the night's cells past the pool, and fifo_cut(i) is (x + 1, R(i) - S(x))."""
        self.require_playable(lo, hi)

        def walk() -> Iterator[Play]:
            top, sum_s = self._top, self._sum_s
            a, b, c = self._quad_s
            before = self._r_sum(lo - 1)
            # S(lo - 1) > R(lo - 1) on valid days, so x < lo, and x < i on every night: S(x + 1) is readable.
            x, s_x = self._s_inverse(before, lo)
            s_next = self._s_sum(x + 1)
            for i, (cutoff, s_cut, after) in enumerate(self._nights(lo, hi), lo):
                count, take = _cell(0, s_cut, before, after)
                cuts = [(VERY_OLD_KEY, count, take)] if count else []
                if x < cutoff and s_cut <= after:  # the quota passes the whole pool
                    x, s_x, s_next = cutoff, s_cut, self._s_sum(cutoff + 1)
                while s_x < after:
                    d = x + 1
                    if d > cutoff:
                        cuts.append((d, *_cell(s_x, s_next, before, after)))
                    if s_next > after:
                        break
                    x, s_x, d = d, s_next, d + 1
                    s_next = sum_s[d] if d <= top else ((a * d + b) * d + c) >> 1
                s_i = sum_s[i] if i <= top else ((a * i + b) * i + c) >> 1
                yield cutoff, before, after, s_i, cuts, (x + 1, after - s_x)
                before = after

        return walk() if lo <= hi else iter(())

    def night_cuts(self, i: int) -> list[tuple[int, int, int]]:
        """[(key, count, take)]: the cells night i takes from, oldest first, each counted by ``_cell``;
        the key is VERY_OLD_KEY for the very-old pool, else the arrival day. The one-night ``plays``."""
        return next(self.plays(i, i))[4]

    def memory_gap_range(self, horizon: int) -> tuple[int, int]:
        """(min, max) of the cutoff i - b(i) over 1 <= i <= horizon: the stored prefix,
        then the ends of each affine clamp piece."""
        self.check_horizon(horizon)
        gaps = [m * x + k for first, last, m, k, *_ in self._tail_polys(self._top + 1, horizon) for x in (first, last)]
        stored = self._cut[1 : min(horizon, self._top) + 1]
        if stored:
            gaps += (min(stored), max(stored))
        return min(gaps), max(gaps)

    def check_restrictions(self, horizon: int) -> RestrictionReport:
        """Validity and the two restrictions on [1, horizon], from the instance's facts."""
        self.check_horizon(horizon)

        first_invalid = None if self.valid_end(horizon) == horizon else self.first_invalid_index
        r1_violation = None if self.restriction1_holds(horizon) else self.restriction1_first_violation

        gap_min, gap_max = self.memory_gap_range(horizon)

        return RestrictionReport(
            horizon=horizon,
            validity_ok=first_invalid is None,
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


def bounded_memory_gap(fs: FunctionSpec) -> int | None:
    """Supremum of i - min(b(i), i) over i >= 1, when the family proves one.

    Returns the bound for specs where the gap is provably bounded (affine
    slope >= 1, possibly behind a finite table prefix), else None. Constant
    and generated specs never prove boundedness.
    """
    prefix, closed = fs.flat
    if closed is None or closed[0] < 1:
        return None
    a, c = closed
    # Gap i - (a*i + c) is nonincreasing for a >= 1: its sup is at the first index past the prefix.
    after = len(prefix) + 1
    return max(0, after - (a * after + c), *(i - min(v, i) if v >= 0 else i for i, v in enumerate(prefix, 1)))
