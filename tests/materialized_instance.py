"""``GameInstance`` as it was before it stored only its table prefix, kept as the reference.

``GameInstance`` keeps cut(i) = i - b(i) and the prefix sums S(i), R(i) only
for the indices of its specs' tables and reads every later index from the
closed forms ``a * i + c``; its construction decides validity, the
Restriction-1 break, the Restriction-2 and window-dip edges and the digit
guard from those forms without visiting each index. ``MaterializedInstance``
is the former per-index construction and its readers, unchanged except for
the digit guard, which now tests magnitudes. The tests hold the new
instance to it reader by reader, value for value and message for message.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterator

import numpy as np

from robinhood.errors import (
    DEFAULT_DIGIT_BUDGET,
    IndexBeyondHorizon,
    RestrictionViolated,
    SpecInvalid,
    budget_bits,
    guard_digits,
)
from robinhood.schedule import DEFAULT_HORIZON_CAP, VERY_OLD_KEY, NightRuns, RestrictionReport, ScheduleSpec


class MaterializedInstance:
    """The per-index reference: every index 1..horizon_cap stored and scanned.

    The cutoff cut(i) and the prefix sums S(i), R(i) are computed for every
    index in one loop, which also records the validity, Restriction-1 and
    Restriction-2 facts night by night; readers index the stored lists. Its
    digit guard tests the magnitudes |S| and |R|, as ``GameInstance`` does.
    """

    __slots__ = (
        "spec",
        "horizon_cap",
        "first_invalid_index",
        "restriction1_first_violation",
        "restriction2_violations",
        "window_dips",
        "_valid_through",
        "_playable_through",
        "_cut",
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

        # A spec with no closed form ends the instance where its values end.
        ends = [fs.hard_horizon() for fs in (spec.r_spec, spec.s_spec, spec.b_spec)]
        cap = min(h for h in [DEFAULT_HORIZON_CAP if horizon_cap is None else horizon_cap, *ends] if h is not None)
        if cap < 0:
            raise SpecInvalid(f"horizon_cap must be nonnegative, got {cap}")
        self.horizon_cap = cap

        # Index 0 is a placeholder so value arrays are 1-based like the game.
        cuts = array("q", bytes(8 * (cap + 1)))
        sum_s: list[int] = [0] * (cap + 1)
        sum_r: list[int] = [0] * (cap + 1)
        first_invalid: int | None = None
        first_break: int | None = None
        r2_edges, dip_edges = array("q"), array("q")
        r2 = dip = False

        limit = budget_bits(digit_budget)
        acc_s = 0
        acc_r = 0
        cut = 0
        # zip stops at the range: cap is at most every spec's hard_horizon(), so no stream ends sooner.
        for i, ri, si, bi in zip(range(1, cap + 1), spec.r_spec, spec.s_spec, spec.b_spec):
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
            if max(acc_s.bit_length(), acc_r.bit_length()) > limit:
                guard_digits(acc_s, digit_budget, context=f"sum of arrivals through day {i}")
                guard_digits(acc_r, digit_budget, context=f"sum of removals through night {i}")
            sum_s[i] = acc_s
            sum_r[i] = acc_r
            if first_invalid is None:
                # Ltilde(i) before its clamp at zero; r(i) >= 1 on valid days
                # makes the clamp irrelevant to both comparisons.
                pool = sum_s[cut] - sum_r[i - 1]
                if (pool <= ri) is not r2:
                    r2 = not r2
                    r2_edges.append(i)
                if (pool < ri) is not dip:
                    dip = not dip
                    dip_edges.append(i)

        self._cut = cuts
        self._sum_s = sum_s
        self._sum_r = sum_r
        self.first_invalid_index = first_invalid
        self.restriction1_first_violation = first_break
        valid_end = self._valid_through = self.valid_end(cap)
        # The last nights that require_valid and require_playable pass.
        self._playable_through = valid_end if first_break is None else min(valid_end, first_break)
        # Both restriction-2 conditions stop at the end of the valid prefix.
        for holds, edges in ((r2, r2_edges), (dip, dip_edges)):
            if holds:
                edges.append(valid_end + 1)
        self.restriction2_violations = NightRuns(r2_edges)
        self.window_dips = NightRuns(dip_edges)

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
        return self._sum_r[i] - self._sum_r[i - 1]

    def s_at(self, i: int) -> int:
        self.require_valid(i, i)
        return self._sum_s[i] - self._sum_s[i - 1]

    def b_at(self, i: int) -> int:
        """Memory bound at night i, clamped to min(b(i), i): i - cut(i)."""
        self.require_valid(i, i)
        return i - self._cut[i]

    def cave_level(self, i: int) -> int:
        """L(i): bags in the cave after night i; L(0) = 0."""
        self.require_valid(i or 1, i)  # night 0 reads no night: 1..0 is empty
        return self._sum_s[i] - self._sum_r[i]

    def very_old_level(self, i: int) -> int:
        """Ltilde(i): very-old bags present when night i begins."""
        return max(0, self.very_old_level_unclamped(i))

    def very_old_level_unclamped(self, i: int) -> int:
        """The inner sum of Ltilde(i) before the max-with-zero clamp."""
        self.require_valid(i, i)
        return self._sum_s[self._cut[i]] - self._sum_r[i - 1]

    def fifo_cut(self, i: int) -> tuple[int, int]:
        """(d, p) such that the first r(1) + ... + r(i) arrivals, which FIFO
        removal has taken by the end of night i, are the bags (day, pos) <= (d, p).
        """
        self.require_valid(i or 1, i)  # night 0 reads no night: 1..0 is empty
        removed = self._sum_r[i]
        # Arrivals strictly increase on the valid days 1..i and outnumber
        # the removals through night i, so the search can stop at day i.
        d = bisect_right(self._sum_s, removed, 0, i + 1)
        return d, removed - self._sum_s[d - 1]

    def terms(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """(r(i), Ltilde(i)) for i = lo..hi, as ``r_at`` and ``very_old_level`` give them.
        The range is checked once, at the call: it raises what the first failing
        per-night call would raise, and nothing when lo > hi."""
        self.require_valid(lo, hi)

        def walk() -> Iterator[tuple[int, int]]:
            sum_s, sum_r, cut = self._sum_s, self._sum_r, self._cut
            before = sum_r[lo - 1]
            for i in range(lo, hi + 1):
                after = sum_r[i]
                pool = sum_s[cut[i]] - before  # a conditional, not max(): this loop is the hot path
                yield after - before, pool if pool > 0 else 0
                before = after

        return walk() if lo <= hi else iter(())

    def cells(self, d: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """(count, take) for nights i = lo..hi: the size of the cell holding a day-d
        bag as night i begins (the very-old pool when d <= i - b(i), else day d's
        cell) and how many of it night i removes. Under restriction 1 oldest-first
        removal is FIFO over cells: after night j, max(0, S(x) - R(j)) bags are left
        from days <= x for every x at or past night j's cutoff. The range is checked
        once, at the call: it raises what the first failing night would raise."""
        if lo <= hi and not 1 <= d <= lo:
            raise IndexBeyondHorizon(f"cell of day {d} on night {lo} outside 1 <= d <= i <= {self.horizon_cap}")
        self.require_playable(lo, hi)

        def walk() -> Iterator[tuple[int, int]]:
            sum_s, sum_r, cut, left = self._sum_s, self._sum_r, self._cut, self._bags_left
            before = sum_r[lo - 1]
            for i in range(lo, hi + 1):
                after, cutoff = sum_r[i], cut[i]
                if d <= cutoff:
                    pool, quota = sum_s[cutoff] - before, after - before
                    count = pool if pool > 0 else 0
                    yield count, quota if quota < count else count
                else:
                    count = left(d, before)
                    yield count, count - left(d, after)
                before = after

        return walk() if lo <= hi else iter(())

    def _bags_left(self, d: int, removed: int) -> int:
        """How many of day d's bags are still in the cave once FIFO over all
        arrivals has taken the first ``removed`` of them."""
        return max(0, self._sum_s[d] - max(self._sum_s[d - 1], removed))

    def night_cuts(self, i: int) -> list[tuple[int, int, int]]:
        """[(key, count, take)]: the cells night i takes from, oldest first, as
        ``cells`` gives them; the key is VERY_OLD_KEY for the very-old pool, else the arrival day.
        One bisection finds the oldest remembered day with bags left; the walk
        stops at the day of ``fifo_cut(i)``.
        """
        self.require_playable(i, i)
        sum_s, sum_r = self._sum_s, self._sum_r
        cutoff = self._cut[i]
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
        """(min, max) of the cutoff i - b(i) over 1 <= i <= horizon, read by numpy
        through a zero-copy view of the stored cutoffs."""
        self.check_horizon(horizon)
        gaps = np.frombuffer(self._cut, np.int64, count=horizon, offset=8)
        return int(gaps.min()), int(gaps.max())

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
