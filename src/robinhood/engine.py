"""Night-by-night simulation of the cave game.

The partition on night i is the very-old pool (arrival day <= i - b(i)),
then one cell per remembered arrival day, oldest first. Removal empties
whole cells oldest first until the quota r(i) lands inside one boundary
cell. Every cell's count and take is an instance fact read from the prefix
sums, so the state holds only the tagged bags, and cells of astronomical
size cost nothing. ``run_trace`` checks every night and tag once, before
its first line, then reads its nights as one stream (``GameInstance.plays``)
that carries the cutoff, R, S and the last day FIFO has emptied from night
to night; ``step_day``, ``select_removals`` and ``apply_removals`` play one
night at a time with the same tag and removal code. Bag ``pos`` of day d
has arrival rank s(1) + ... + s(d-1) + pos. ``oldest-det`` is FIFO over
all arrivals; ``oldest-rnd`` resolves the tags inside a partly removed cell
by an exact hypergeometric draw, which keeps the tags' joint removal law.
The in-cave tags are listed once, in arrival order, so a night finds each
cell's tags as one slice by bisection on day, and a night costs the cells
and tags it touches plus a few bisections, whatever the memory bound.

Randomness is addressable: the draw stream for night i of trial t under
master seed S has key ``stream_key(S, t, i)`` = child_key(child_key(S, t), i)
(stream 0 is never drawn), which makes traces reproducible and lets the
vectorized Monte Carlo path evaluate any (trial, night) cell independently.
A trace derives its trial's key once, then one key a night for
``oldest-rnd``, and writes each night's record directly in canonical form.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator

from .errors import SpecInvalid, VerificationFailed
from .rng import RNG_VERSION, CounterRNG, child_bases_vec, child_key, child_keys_many, child_keys_vec, words_vec
# Removal records key the very-old pool by VERY_OLD_KEY, as night_cuts does.
from .schedule import VERY_OLD_KEY, GameInstance, Play, canonical_dumps, decimal_str

TRACE_FORMAT = "rh-trace-v1"
TRACE_CHUNK_LINES = 256  # run_trace hashes and writes its lines this many at a time
MC_BLOCK_WORDS = 1 << 15  # size of one Monte Carlo draw's (nights x live trials) grid
_DAY, _DAY_POS = attrgetter("day"), attrgetter("day", "pos")  # bisection keys on CaveState.tagged


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
    """Mutable tag state owned by a single run; the cell counts are the instance's.

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
    """Apply day i: tag the new batch, then check the night is playable. A memory bound that
    grows by more than one a night would re-admit a forgotten day, which the oldest-first cells
    cannot represent: ``instance.require_playable(1, i)`` raises RestrictionViolated."""
    if i != state.night + 1 or state.day == i:
        raise SpecInvalid(f"step_day for day {i} but day {state.day} and night {state.night} are done")
    instance.check_horizon(i)
    positions = sorted(state.pending_tags.pop(i, ()))
    _require_tag_positions(instance, i, positions)
    _tag(state, i, positions)
    instance.require_playable(1, i)
    state.day = i
    return state


def _tag(state: CaveState, day: int, positions: Iterable[int]) -> None:
    """Tag day ``day``'s bags at the sorted ``positions``; ids continue 1, 2, ... in creation order."""
    for pos in positions:
        state.tagged.append(TaggedBag(id=len(state.tagged) + 1, day=day, pos=pos))
        state.in_cave.append(len(state.tagged))


def _require_tag_positions(instance: GameInstance, d: int, positions: list[int]) -> None:
    """Raise SpecInvalid naming the smallest of the sorted ``positions`` outside day d's batch."""
    if not positions:  # an untagged day has nothing to check, so s(d) is not read
        return
    s_d = instance.s_at(d)
    for pos in positions:
        if not 1 <= pos <= s_d:
            raise SpecInvalid(f"tag position {decimal_str(pos)} outside day {d}'s batch of size {decimal_str(s_d)}")


def hypergeom_weights(v: int, t: int, q: int) -> tuple[list[int], int]:
    """Unnormalized pmf of 'tagged among removed' for a uniform q-of-v draw.

    With t tagged bags in a cell of v and q removed uniformly, the number j
    of removed tagged bags has probability weights[j] / total where::

        weights[j] = C(t, j) * perm(q, j) * perm(v - q, t - j)
        total      = perm(v, t)

    weights[j] is 0 below j0 = max(0, t - (v - q)) and above min(t, q), and
    ``_hypergeom_support`` makes the ones in between.
    """
    support = dict(_hypergeom_support(v, t, q))
    return [support.get(j, 0) for j in range(t + 1)], math.perm(v, t)


def _hypergeom_support(v: int, t: int, q: int) -> Iterator[tuple[int, int]]:
    """(j, weights[j]) for j = j0 .. min(t, q), made lazily: one product gives weights[j0], and
    weights[j + 1] = weights[j] * (t - j) * (q - j) // ((j + 1) * (v - q - t + j + 1)), an exact
    division, the rest. No factorial of v is made, so the law stays exact for astronomical cells."""
    if not (0 <= t <= v and 0 <= q <= v):
        raise ValueError(f"invalid hypergeometric parameters v={v} t={t} q={q}")
    rest = v - q
    j0 = max(0, t - rest)
    w = math.comb(t, j0) * math.perm(q, j0) * math.perm(rest, t - j0)
    for j in range(j0, min(t, q)):
        yield j, w
        w = w * (t - j) * (q - j) // ((j + 1) * (rest - t + j + 1))
    yield min(t, q), w


def sample_hypergeom(v: int, t: int, q: int, rng: CounterRNG) -> int:
    """Exact draw of how many of t tagged bags fall in a uniform q-subset: u = below(perm(v, t)),
    then the cdf, walked only up to the weight that covers u."""
    if t == 0 or q == 0:
        return 0
    if q == v:
        return t
    if t == 1:  # weights (v - q, q) over v, the Monte Carlo dip branch's draw: no big-integer products
        return int(rng.below(v) >= v - q)
    u = rng.below(math.perm(v, t))
    for j, w in _hypergeom_support(v, t, q):
        u -= w
        if u < 0:
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
    """Plan night i's removals without mutating the state: the cells and takes of
    ``instance.night_cuts(i)`` and the tagged bags ``_removed_tags`` picks."""
    strategy = as_strategy(strategy)
    if i != state.night + 1 or state.day != i:
        raise SpecInvalid(f"select_removals for night {i} but day {state.day} and night {state.night} are done")
    if strategy is StrategyKind.OLDEST_RND and rng is None:
        raise SpecInvalid("randomized strategy needs an rng stream")
    play = next(instance.plays(i, i))
    return RemovalPlan(night=i, cells=[(key, take) for key, _, take in play[4]],
                       removed_tagged=_removed_tags(state, strategy, play, rng))


def _removed_tags(state: CaveState, strategy: StrategyKind, play: Play, rng: CounterRNG | None) -> list[int]:
    """The ids, in increasing order, of the in-cave tagged bags that the night ``play``
    (an item of ``GameInstance.plays``) removes: whole cells go oldest first until the quota
    lands inside one boundary cell. ``oldest-det`` removes the bags FIFO has reached;
    ``oldest-rnd`` takes each cell's share uniformly, drawing how many of its tags go by an
    exact hypergeometric draw, then which of them."""
    cutoff, _, _, _, cuts, fifo = play
    # tagged is in id order, which is (day, pos) order, and so is in_cave: FIFO
    # reaches a run from its front, and a cell's tags, those of days key..key
    # (1..cutoff for the pool), are one run in it, found by bisecting ids.
    in_cave, tagged = state.in_cave, state.tagged
    if strategy is StrategyKind.OLDEST_DET:
        last = bisect_right(tagged, fifo, key=_DAY_POS)  # the ids FIFO has reached are 1..last
        return in_cave[: bisect_right(in_cave, last)]
    removed: list[int] = []
    for key, count, take in cuts:  # oldest first, so the ids come out in increasing order
        lo = bisect_left(in_cave, bisect_left(tagged, key, key=_DAY) + 1)
        end = bisect_left(tagged, (key or cutoff) + 1, key=_DAY) + 1
        t = bisect_left(in_cave, end, lo) - lo
        # A cell with no tag in it, or taken whole, draws nothing: both draws are forced.
        j = sample_hypergeom(count, t, take, rng)
        removed.extend(in_cave[lo + k] for k in _choose_uniform_subset(t, j, rng))
    return removed


def apply_removals(state: CaveState, plan: RemovalPlan) -> CaveState:
    """Commit a removal plan produced by select_removals on this state."""
    if plan.night != state.night + 1 or state.day != plan.night:
        raise SpecInvalid(f"plan for night {plan.night} but day {state.day} and night {state.night} are done")
    for bag_id in plan.removed_tagged:
        if not 1 <= bag_id <= len(state.tagged):
            raise SpecInvalid(f"plan removes unknown tagged bag {bag_id}")
        if not state.tagged[bag_id - 1].in_cave:  # ids are 1, 2, ... in creation order
            raise SpecInvalid(f"plan removes tagged bag {bag_id} twice")
        _remove(state, plan.night, (bag_id,))
    state.night = plan.night
    return state


def _remove(state: CaveState, night: int, ids: Iterable[int]) -> None:
    """Mark the in-cave tagged bags ``ids`` removed on ``night`` and drop them from ``in_cave``."""
    for bag_id in ids:
        state.tagged[bag_id - 1].removed_night = night
        del state.in_cave[bisect_left(state.in_cave, bag_id)]


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
            if name == "day" and value.bit_length() > 2000:  # past any horizon; less is below every digit cap
                raise SpecInvalid(f"tag day {decimal_str(value)[:40]} has over 2000 bits: outside every horizon")
            if value < 1:
                raise SpecInvalid(f"tag {name} must be >= 1, got {decimal_str(value)}")
        pending.setdefault(day, []).append(pos)
    for day, positions in pending.items():
        positions.sort()
        if len(set(positions)) < len(positions):
            raise SpecInvalid(f"a bag of day {day} is tagged more than once")
    return pending


def _require_tags(instance: GameInstance, nights: int, pending: dict[int, list[int]]) -> None:
    """Raise, at each tagged day d <= nights in turn, what playing nights 1..d - 1 raises,
    then SpecInvalid for a tag position outside day d's batch."""
    for d in sorted(pending):
        if d > nights:
            break
        instance.require_playable(1, d - 1)
        _require_tag_positions(instance, d, pending[d])


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
    Every input error is raised before the first line. Lines are hashed in
    chunks of ``TRACE_CHUNK_LINES``. With ``sink``, the text ``to_jsonl()``
    would return goes to ``sink`` one chunk at a time as it is made, then
    the digest line, and the returned trace keeps no lines.
    """
    strategy = as_strategy(strategy)
    if nights < 0:
        raise SpecInvalid(f"nights must be >= 0, got {nights}")
    if nights:
        instance.check_horizon(nights)

    pending = _normalize_tags(tagged_days)
    if pending and max(pending) > nights + 1:  # a bag of day nights + 1 arrives after the last night
        raise SpecInvalid(f"nights must be >= day - 1, got nights={nights} day={max(pending)}")
    _require_tags(instance, nights, pending)
    plays = instance.plays(1, nights)  # raises what playing nights 1..nights raises, before the first line

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
    chunk = [canonical_dumps(header)]

    def flush() -> None:
        text = "\n".join(chunk) + "\n"
        hasher.update(text.encode("ascii"))
        if sink is None:
            lines.extend(chunk)
        else:
            sink(text)
        chunk.clear()

    # Every night and tag is checked, so the loop checks nothing.
    state, rnd = CaveState(), strategy is StrategyKind.OLDEST_RND
    # stream_key(seed, t, i) = child_key(child_key(seed, t), i): derive the trial's key once, and
    # night i's only with a tag in the cave, as no other night removes a tag or draws.
    trial_key = child_key(seed, trial_index)
    for i, play in enumerate(plays, 1):
        if len(chunk) == TRACE_CHUNK_LINES:
            flush()
        if i in pending:
            _tag(state, i, pending[i])
        _, before, after, s_i, cuts, _ = play
        # The record as canonical_dumps would write it: keys sorted, no whitespace. S(i) bounds
        # every count, take and position in it, so below decimal_str's 2000 bits all are str.
        dec = str if s_i.bit_length() <= 2000 else decimal_str
        rng = CounterRNG(child_key(trial_key, i)) if rnd and state.in_cave else None
        removed, events = _removed_tags(state, strategy, play, rng) if state.in_cave else (), ""
        if removed:  # on most nights no tag goes, and the night writes no event
            _remove(state, i, removed)
            bags = [state.tagged[bag_id - 1] for bag_id in removed]
            events = ",".join([f'{{"day":{b.day},"id":{b.id},"night":{i},"pos":"{dec(b.pos)}"}}' for b in bags])
        cells = ",".join([f'[{key},"{dec(take)}"]' for key, _, take in cuts])
        chunk.append(f'{{"cave_after":"{dec(s_i - after)}","cave_before":"{dec(s_i - before)}",'
                     f'"i":{i},"removed_cells":[{cells}],"tagged_events":[{events}]}}')
    flush()  # the chunk holds the header or a night: it is never empty here

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

    No trial runs the engine; the bag's cells come from ``GameInstance.cells``.
    ``oldest-det`` is FIFO by arrival rank, so the bag survives in every
    trial or in none. ``oldest-rnd`` draws night i of trial t from the stream
    keyed by stream_key(seed, t, i). With no window dip (Ltilde < r) on
    nights 1..nights, the bag leaves on the first night whose 53-bit uniform
    is below take/count, compared as integers; only live trials draw, a
    block of nights (about MC_BLOCK_WORDS words) per call, and draws after a
    trial's death decide nothing. Otherwise, on each night that takes from
    its cell, each trial calls ``sample_hypergeom(count, 1, take, rng)``, the
    draw ``run_trace`` makes for a lone tag, and the bag leaves when it
    returns 1. Trials go in chunks of MC_BLOCK_WORDS, each reading only its
    own streams. Only ``oldest-rnd`` imports numpy. Returns (estimate, stderr,
    trials) with stderr = sqrt(p*(1-p)/trials).
    """
    strategy = as_strategy(strategy)
    if trials < 1:
        raise SpecInvalid(f"trials must be >= 1, got {trials}")
    if d < 1:
        raise SpecInvalid(f"day must be >= 1, got {d}")
    if nights < d - 1:
        raise SpecInvalid(f"nights must be >= day - 1, got nights={nights} day={d}")
    if nights < d:
        return (1.0, 0.0, trials)
    instance.check_horizon(nights)
    instance.require_playable(1, nights)

    if strategy is StrategyKind.OLDEST_DET:
        survivors = trials if (d, 1) > instance.fifo_cut(nights) else 0
    else:
        import numpy as np  # the one numpy user: other commands start without loading it
        cells = [(i, count, take) for i, (count, take) in enumerate(instance.cells(d, d, nights), d) if take]
        dips = instance.window_dips.first(1, nights) is not None
        if not dips:
            cell_nights = np.array([i for i, _, _ in cells], dtype=np.uint64)
            # u = (w >> 11) * 2**-53 >= take/count iff w >> 11 >= ceil(take/count * 2**53): the
            # ratio is int / int, rounded once, and scaling it by 2**53 is exact.
            bar = np.array([math.ceil(math.ldexp(take / count, 53)) for _, count, take in cells], np.uint64)[:, None]
        survivors = 0
        # stream_key(seed, t, i) = child_key(child_key(seed, t), i): derive each trial's key once,
        # for at most MC_BLOCK_WORDS trials at a time, so memory is bounded by the block.
        for first in range(0, trials, MC_BLOCK_WORDS):
            keys = child_keys_vec(seed, np.arange(first, min(trials, first + MC_BLOCK_WORDS), dtype=np.uint64))
            if dips:  # run_trace's draw for a lone tag: the bag leaves when sample_hypergeom returns 1
                survivors += sum(not any(sample_hypergeom(count, 1, take, CounterRNG(child_key(key, i)))
                                         for i, count, take in cells) for key in map(int, keys))
                continue
            bases, lo = child_bases_vec(keys), 0  # the part of child_key(key, i) that i leaves alone
            while bases.size and lo < len(cells):
                hi = lo + max(1, MC_BLOCK_WORDS // bases.size)
                w = words_vec(child_keys_many(bases, cell_nights[lo:hi]), 0)
                w >>= np.uint64(11)
                bases, lo = bases[(w >= bar[lo:hi]).all(axis=0)], hi
            survivors += bases.size

    estimate = survivors / trials
    return (estimate, math.sqrt(estimate * (1.0 - estimate) / trials), trials)
