"""Night-by-night simulation of the cave game.

The partition on night i is the very-old pool (arrival day <= i - b(i)),
then one cell per remembered arrival day, oldest first. Removal empties
whole cells oldest first until the quota r(i) lands inside one boundary
cell. Every cell's count and take is an instance fact read from the prefix
sums (``GameInstance.night_cuts``), so the state holds only the tagged
bags: cells of astronomical size cost nothing, and a night costs one
bisection plus the cells and tags it touches, whatever the memory bound.
Tagged bags keep their exact joint removal law. Bag ``pos`` of day d has
arrival rank s(1) + ... + s(d-1) + pos, and the deterministic variant is
FIFO over all arrivals (``GameInstance.fifo_cut``); the randomized one
resolves the tags inside a partly removed cell by an exact hypergeometric
draw. The state lists the in-cave tags once, in arrival order, so a night
finds the tags of each cell its quota touches as one slice by bisection on
day, and ``oldest-det`` reads only the tags it removes.

Randomness is addressable: the draw stream for night i of trial t under
master seed S has key ``stream_key(S, t, i)`` (stream 0 is never drawn),
which makes traces reproducible and lets the vectorized Monte Carlo path
evaluate any (trial, night) cell independently.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable

import numpy as np

from .errors import (
    ScheduleExhausted,
    SpecInvalid,
    VerificationFailed,
)
from .rng import (
    RNG_VERSION,
    CounterRNG,
    child_keys_many,
    child_keys_vec,
    stream_key,
    words_vec,
)
# Removal records key the very-old pool by VERY_OLD_KEY, as night_cuts does.
from .schedule import VERY_OLD_KEY, GameInstance, canonical_dumps, decimal_str

TRACE_FORMAT = "rh-trace-v1"


class StrategyKind(str, Enum):
    OLDEST_DET = "oldest-det"
    OLDEST_RND = "oldest-rnd"


def as_strategy(value: "StrategyKind | str") -> StrategyKind:
    if isinstance(value, StrategyKind):
        return value
    try:
        return StrategyKind(value)
    except ValueError:
        raise SpecInvalid(f"unknown strategy {value!r}; expected oldest-det or oldest-rnd") from None


@dataclass
class TaggedBag:
    """A materialized bag: ``pos`` is its 1-based slot in the day's batch."""

    id: int
    day: int
    pos: int
    removed_night: int | None = None

    @property
    def in_cave(self) -> bool:
        return self.removed_night is None


@dataclass
class CaveState:
    """Mutable tag state owned by a single run; the cell counts are the
    instance's (``GameInstance.night_cuts``).

    ``night`` is the last completed night and ``day`` the last day whose
    batch has arrived. ``tagged`` is in id order, which is (day, pos)
    order, and ``in_cave`` lists the ids of its in-cave bags in that order:
    on night i the pool's tags are the ones of days <= i - b(i), and a
    remembered cell's tags are the ones of its day.
    """

    night: int = 0
    day: int = 0
    tagged: list[TaggedBag] = field(default_factory=list)
    in_cave: list[int] = field(default_factory=list)
    pending_tags: dict[int, list[int]] = field(default_factory=dict)


def step_day(state: CaveState, instance: GameInstance, i: int) -> CaveState:
    """Apply day i: tag the new batch, then check the night is playable.

    Arrival days at or below i - b(i) form the very-old pool. A memory
    bound that grows by more than one per night would require a forgotten
    day to re-enter the window, which the oldest-first cells cannot
    represent: ``instance.require_playable(i)`` raises RestrictionViolated.
    """
    if i != state.night + 1 or state.day == i:
        raise SpecInvalid(f"step_day for day {i} but day {state.day} and night {state.night} are done")
    if i > instance.horizon_cap:
        raise ScheduleExhausted(f"day {i} beyond instance horizon_cap {instance.horizon_cap}")
    s_i = instance.s_at(i)

    for pos in sorted(state.pending_tags.pop(i, ())):  # ids in position order
        if not (1 <= pos <= s_i):
            raise SpecInvalid(
                f"tag position {decimal_str(pos)} outside day {i}'s batch of size {decimal_str(s_i)}"
            )
        bag_id = len(state.tagged) + 1
        state.tagged.append(TaggedBag(id=bag_id, day=i, pos=pos))
        state.in_cave.append(bag_id)

    instance.require_playable(i)
    state.day = i
    return state


def hypergeom_weights(v: int, t: int, q: int) -> tuple[list[int], int]:
    """Unnormalized pmf of 'tagged among removed' for a uniform q-of-v draw.

    With t tagged bags in a cell of v and q removed uniformly, the number j
    of removed tagged bags has probability weights[j] / total where::

        weights[j] = C(t, j) * perm(q, j) * perm(v - q, t - j)
        total      = perm(v, t)

    weights[j] is 0 below j0 = max(0, t - (v - q)) and above min(t, q).
    In between, one product gives weights[j0] and the ratio of consecutive
    terms gives the rest::

        weights[j + 1] = weights[j] * (t - j) * (q - j) // ((j + 1) * (v - q - t + j + 1))

    where the division is exact. That is O(t) operations on big integers,
    with no factorials of v, so the law stays exact for astronomically
    large cells.
    """
    if not (0 <= t <= v and 0 <= q <= v):
        raise ValueError(f"invalid hypergeometric parameters v={v} t={t} q={q}")
    weights = [0] * (t + 1)
    rest = v - q
    j0 = max(0, t - rest)
    w = math.comb(t, j0) * math.perm(q, j0) * math.perm(rest, t - j0)
    for j in range(j0, min(t, q)):
        weights[j] = w
        w = w * (t - j) * (q - j) // ((j + 1) * (rest - t + j + 1))
    weights[min(t, q)] = w
    return weights, math.perm(v, t)


def sample_hypergeom(v: int, t: int, q: int, rng: CounterRNG) -> int:
    """Exact draw of how many of t tagged bags fall in a uniform q-subset."""
    if t == 0 or q == 0:
        return 0
    if q == v:
        return t
    weights, total = hypergeom_weights(v, t, q)
    u = rng.below(total)
    acc = 0
    for j, w in enumerate(weights):
        acc += w
        if u < acc:
            return j
    raise VerificationFailed("hypergeometric weights did not cover the draw")


def _choose_uniform_subset(count: int, take: int, rng: CounterRNG) -> list[int]:
    """Uniform ``take``-subset of range(count); no draw when forced."""
    if take == 0:
        return []
    if take == count:
        return list(range(count))
    idx = list(range(count))
    for x in range(take):
        y = x + rng.below(count - x)
        idx[x], idx[y] = idx[y], idx[x]
    return sorted(idx[:take])


@dataclass
class RemovalPlan:
    """Outcome of one night's selection, not yet applied to the state."""

    night: int
    cells: list[tuple[int, int]]  # (cell key, count taken), oldest first
    removed_tagged: list[int]  # tagged bag ids


def select_removals(
    state: CaveState,
    instance: GameInstance,
    i: int,
    strategy: "StrategyKind | str",
    rng: CounterRNG | None = None,
) -> RemovalPlan:
    """Plan night i's removals without mutating the state.

    The cells and their takes are ``instance.night_cuts(i)``: whole cells
    oldest first until the quota r(i) lands inside one boundary cell. The
    deterministic strategy removes the tagged bags that FIFO has reached by
    the end of night i. The randomized one takes the boundary remainder
    uniformly: tagged bags inside it are resolved by an exact
    hypergeometric draw, then a uniform choice of which tagged ones go.
    """
    strategy = as_strategy(strategy)
    if i != state.night + 1 or state.day != i:
        raise SpecInvalid(f"select_removals for night {i} but day {state.day} and night {state.night} are done")
    if strategy is StrategyKind.OLDEST_RND and rng is None:
        raise SpecInvalid("randomized strategy needs an rng stream")
    cuts = instance.night_cuts(i)

    in_cave = state.in_cave

    def rank(bag_id: int) -> tuple[int, int]:
        bag = state.tagged[bag_id - 1]
        return bag.day, bag.pos

    # in_cave is in (day, pos) order: FIFO reaches a run from its front, and a
    # cell's tags, those of days key..key (1..i - b(i) for the pool), are one
    # run in it.
    if strategy is StrategyKind.OLDEST_DET:
        removed_tagged = in_cave[: bisect_right(in_cave, instance.fifo_cut(i), key=rank)]
    else:
        removed_tagged = []
        for key, count, take in cuts:
            lo = bisect_left(in_cave, (key, 0), key=rank)
            t = bisect_left(in_cave, ((key or i - instance.b_at(i)) + 1, 0), lo, key=rank) - lo
            # A whole cell draws nothing: both draws are forced.
            j = sample_hypergeom(count, t, take, rng)
            removed_tagged.extend(in_cave[lo + k] for k in _choose_uniform_subset(t, j, rng))

    return RemovalPlan(night=i, cells=[(key, take) for key, _, take in cuts], removed_tagged=removed_tagged)


def apply_removals(state: CaveState, plan: RemovalPlan) -> CaveState:
    """Commit a removal plan produced by select_removals on this state."""
    if plan.night != state.night + 1 or state.day != plan.night:
        raise SpecInvalid(f"plan for night {plan.night} but day {state.day} and night {state.night} are done")

    for bag_id in plan.removed_tagged:
        if not 1 <= bag_id <= len(state.tagged):
            raise SpecInvalid(f"plan removes unknown tagged bag {bag_id}")
        bag = state.tagged[bag_id - 1]  # ids are 1, 2, ... in creation order
        if not bag.in_cave:
            raise SpecInvalid(f"plan removes tagged bag {bag_id} twice")
        bag.removed_night = plan.night
        del state.in_cave[bisect_left(state.in_cave, bag_id)]

    state.night = plan.night
    return state


@dataclass
class Trace:
    """One simulated run: the hashed lines (header, one per night; none if
    streamed to a sink) and digest."""

    header: dict[str, Any]
    lines: list[str]
    tagged: list[TaggedBag]
    digest: str

    @property
    def records(self) -> list[dict[str, Any]]:
        return [json.loads(line) for line in self.lines[1:]]

    def to_jsonl(self) -> str:
        return "\n".join([*self.lines, canonical_dumps({"digest": self.digest}), ""])


def _normalize_tags(tagged_days: Iterable[int | tuple[int, int]]) -> dict[int, list[int]]:
    pending: dict[int, list[int]] = {}
    for item in tagged_days:
        if isinstance(item, tuple) and len(item) == 2:
            day, pos = item
        else:
            day, pos = item, 1
        for name, value in (("day", day), ("position", pos)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecInvalid(f"tag {name} must be an integer, got {value!r}")
            if value < 1:
                raise SpecInvalid(f"tag {name} must be >= 1, got {decimal_str(value)}")
        pending.setdefault(day, []).append(pos)
    for day, positions in pending.items():
        positions.sort()
        if len(set(positions)) < len(positions):
            raise SpecInvalid(f"a bag of day {day} is tagged more than once")
    return pending


def _require_traceable(instance: GameInstance, nights: int, pending: dict[int, list[int]]) -> None:
    """Raise what playing nights 1..nights would raise, before the first
    line: at each tagged day, the errors of earlier nights first, then an
    invalid day, then a tag position outside the day's batch."""
    for d in sorted(pending):
        if d > nights:
            break
        instance.require_playable(d - 1)
        s_d = instance.s_at(d)
        if pending[d][-1] > s_d:
            raise SpecInvalid(
                f"tag position {decimal_str(pending[d][-1])} outside day {d}'s batch of size {decimal_str(s_d)}"
            )
    instance.require_playable(nights)


def run_trace(
    instance: GameInstance,
    strategy: "StrategyKind | str",
    nights: int,
    seed: int,
    tagged_days: Iterable[int | tuple[int, int]] = (),
    trial_index: int = 0,
    sink: Callable[[str], Any] | None = None,
) -> Trace:
    """Simulate nights 1..nights and return the trace.

    Deterministic given (instance, strategy, nights, seed, tags): night i
    draws from the stream keyed by ``stream_key(seed, trial_index, i)``.
    Every input error is raised before the first line. With ``sink``, the
    text ``to_jsonl()`` would return goes to ``sink`` one line at a time as
    it is made, and the returned trace keeps no lines.
    """
    strategy = as_strategy(strategy)
    if nights < 0:
        raise SpecInvalid(f"nights must be >= 0, got {nights}")
    if nights > instance.horizon_cap:
        raise ScheduleExhausted(f"nights {nights} beyond instance horizon_cap {instance.horizon_cap}")

    pending = _normalize_tags(tagged_days)
    _require_traceable(instance, nights, pending)
    state = CaveState(pending_tags={d: list(ps) for d, ps in pending.items()})

    header = {
        "format": TRACE_FORMAT,
        "rng": RNG_VERSION,
        "seed": seed,
        "trial": trial_index,
        "strategy": strategy.value,
        "nights": nights,
        # A fixed field of rh-trace-v1: the header is hashed, so it stays.
        "label_mode": "sequential",
        "schedule": instance.spec.to_obj(),
        "tags": sorted([day, decimal_str(pos)] for day, ps in pending.items() for pos in ps),
    }
    lines: list[str] = []
    hasher = hashlib.sha256()

    def emit(line: str) -> None:
        text = line + "\n"
        hasher.update(text.encode("ascii"))
        if sink is None:
            lines.append(line)
        else:
            sink(text)

    emit(canonical_dumps(header))
    for i in range(1, nights + 1):
        step_day(state, instance, i)
        rng = CounterRNG(stream_key(seed, trial_index, i)) if strategy is StrategyKind.OLDEST_RND else None
        plan = select_removals(state, instance, i, strategy, rng)
        apply_removals(state, plan)
        removed = [state.tagged[bag_id - 1] for bag_id in sorted(plan.removed_tagged)]
        cave_after = instance.cave_level(i)
        record = {
            "i": i,
            "cave_before": decimal_str(cave_after + instance.r_at(i)),
            "cave_after": decimal_str(cave_after),
            "removed_cells": [[key, decimal_str(take)] for key, take in plan.cells],
            "tagged_events": [
                {"id": bag.id, "day": bag.day, "pos": decimal_str(bag.pos), "night": i} for bag in removed
            ],
        }
        emit(canonical_dumps(record))

    digest = hasher.hexdigest()
    if sink is not None:
        sink(canonical_dumps({"digest": digest}) + "\n")
    return Trace(header=header, lines=lines, tagged=state.tagged, digest=digest)


def empirical_survival(
    instance: GameInstance,
    d: int,
    nights: int,
    trials: int,
    seed: int,
    strategy: "StrategyKind | str" = StrategyKind.OLDEST_RND,
) -> tuple[float, float, int]:
    """Monte Carlo estimate of a day-d bag's survival through ``nights``.

    No trial runs the engine; the bag's cells come from ``GameInstance.cell``.
    ``oldest-det`` is FIFO by arrival rank, so the bag survives in every
    trial or in none. ``oldest-rnd`` draws night i of trial t from the stream
    keyed by stream_key(seed, t, i). With no window dip (Ltilde < r) on
    nights 1..nights, all trials run at once, the bag leaving when the
    night's 53-bit uniform is below take/count. Otherwise each trial draws
    ``below(count)`` on each night that takes part of its cell and the bag
    leaves when the draw is >= count - take: the one draw ``run_trace``
    makes for a lone tag. Returns (estimate, stderr, trials) with
    stderr = sqrt(p*(1-p)/trials).
    """
    strategy = as_strategy(strategy)
    if trials < 1:
        raise SpecInvalid(f"trials must be >= 1, got {trials}")
    if d < 1:
        raise SpecInvalid(f"day must be >= 1, got {d}")
    if nights < d:
        return (1.0, 0.0, trials)
    if nights > instance.horizon_cap:
        raise ScheduleExhausted(f"nights {nights} beyond instance horizon_cap {instance.horizon_cap}")
    instance.require_playable(nights)

    if strategy is StrategyKind.OLDEST_DET:
        survivors = trials if (d, 1) > instance.fifo_cut(nights) else 0
    else:
        cells = [(i, count, take) for i in range(d, nights + 1) for count, take in [instance.cell(d, i)] if take]
        if instance.window_dips.first(1, nights) is None:
            trial_keys = child_keys_vec(seed & ((1 << 64) - 1), np.arange(trials, dtype=np.uint64))
            alive = np.ones(trials, dtype=bool)
            for i, count, take in cells:
                if not alive.any():
                    break
                u = (words_vec(child_keys_many(trial_keys, i), 0) >> np.uint64(11)) * 2.0**-53
                alive &= u >= take / count
            survivors = int(alive.sum())
        else:
            survivors = sum(
                all(take < count and CounterRNG(stream_key(seed, t, i)).below(count) < count - take
                    for i, count, take in cells)
                for t in range(trials)
            )

    estimate = survivors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return (estimate, stderr, trials)
