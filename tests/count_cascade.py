"""The engine's former count model, kept as the reference for the cell ledger.

The engine used to keep, beside its tags, an exact count for every cell of
the partition: the very-old pool and one cell per remembered arrival day.
Each day appended the new batch and merged the days at or below i - b(i)
into the pool; each night walked the cells oldest first, emptying whole
cells until the quota r(i) landed inside one boundary cell. The engine now
reads the same cells from ``GameInstance.night_cuts``; this walk is what
the tests check the instance against, as earlier replaced scans were kept.
"""

from __future__ import annotations

from collections import deque

from robinhood import GameInstance, RestrictionViolated, RobinHoodError

VERY_OLD_KEY = 0


class CountCascade:
    """Exact cell counts of one game, advanced a day and a night at a time."""

    def __init__(self, instance: GameInstance) -> None:
        self.instance = instance
        self.night = 0
        self.cave_size = 0
        self.very_old_count = 0
        self.merge_cutoff = 0
        self.cells: deque[list[int]] = deque()  # [arrival day, count], oldest first
        self.error: type | None = None  # why ``play`` stopped early, if it did

    def step_day(self, i: int) -> None:
        """Day i's batch arrives, then days <= i - b(i) merge into the pool."""
        s_i, b_i = self.instance.s_at(i), self.instance.b_at(i)
        self.cells.append([i, s_i])
        self.cave_size += s_i
        cutoff = i - b_i
        if cutoff < self.merge_cutoff:
            raise RestrictionViolated(f"cutoff {cutoff} < previously merged {self.merge_cutoff}")
        while self.cells and self.cells[0][0] <= cutoff:
            self.very_old_count += self.cells.popleft()[1]
        self.merge_cutoff = cutoff

    def window_counts(self) -> list[tuple[int, int]]:
        return [(day, count) for day, count in self.cells]

    def counts(self) -> dict[int, int]:
        """Cell key -> count: the pool under VERY_OLD_KEY, then each remembered day."""
        return {VERY_OLD_KEY: self.very_old_count, **dict(self.window_counts())}

    def cuts(self, i: int) -> list[tuple[int, int, int]]:
        """(key, count, take) of every cell night i takes from, oldest first."""
        left = quota = self.instance.r_at(i)
        assert quota <= self.cave_size, "the quota exceeds the cave"
        cuts = []
        for key, count in [(VERY_OLD_KEY, self.very_old_count), *self.window_counts()]:
            take = min(left, count)
            if take:
                cuts.append((key, count, take))
                left -= take
        assert left == 0, "the cascade failed to cover the quota"
        return cuts

    def remove(self, cuts: list[tuple[int, int, int]]) -> None:
        takes = {key: take for key, _, take in cuts}
        self.very_old_count -= takes.pop(VERY_OLD_KEY, 0)
        for cell in self.cells:
            cell[1] -= takes.pop(cell[0], 0)
        assert not takes, "a take names a cell outside the window"
        self.cave_size -= sum(take for _, _, take in cuts)
        self.night += 1

    def play(self, nights: int):
        """Yield (i, cuts) for nights 1..nights after day i; the caller makes
        the night's removals (``remove``) before taking the next. Stops at
        the first night the game cannot be played, whose error class
        ``error`` then holds."""
        for i in range(1, nights + 1):
            try:
                self.step_day(i)
            except RobinHoodError as exc:
                self.error = type(exc)
                return
            yield i, self.cuts(i)
