"""The engine's former night loop, kept as the reference for ``run_trace``.

``run_trace`` used to derive each night's stream key from the master seed
(``stream_key(seed, t, i)``, two key derivations a night), find each cell's
tags by bisecting the in-cave ids under a Python key that looked up each
bag's (day, pos), and write each night's record as a dict through
``canonical_dumps``. It now derives the trial's key once, bisects the tag
list on its attributes, and writes the record line directly. This loop is
what the tests hold the trace text and digest to, as the count cascade was
kept for the cell ledger. It takes valid inputs only: the input checks are
``run_trace``'s own.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right

from robinhood import CaveState, GameInstance, StrategyKind, apply_removals, step_day
from robinhood.engine import (
    TRACE_FORMAT,
    RemovalPlan,
    _choose_uniform_subset,
    _normalize_tags,
    as_strategy,
    sample_hypergeom,
)
from robinhood.rng import RNG_VERSION, CounterRNG, stream_key
from robinhood.schedule import canonical_dumps, decimal_str


def ref_select_removals(
    state: CaveState, instance: GameInstance, i: int, strategy: StrategyKind, rng: CounterRNG | None
) -> RemovalPlan:
    """The former ``select_removals`` tag lookup: a ``rank`` key on every bisection step."""
    cuts = instance.night_cuts(i)
    in_cave = state.in_cave

    def rank(bag_id: int) -> tuple[int, int]:
        bag = state.tagged[bag_id - 1]
        return bag.day, bag.pos

    if strategy is StrategyKind.OLDEST_DET:
        removed_tagged = in_cave[: bisect_right(in_cave, instance.fifo_cut(i), key=rank)]
    else:
        removed_tagged = []
        for key, count, take in cuts:
            lo = bisect_left(in_cave, (key, 0), key=rank)
            t = bisect_left(in_cave, ((key or i - instance.b_at(i)) + 1, 0), lo, key=rank) - lo
            j = sample_hypergeom(count, t, take, rng)
            removed_tagged.extend(in_cave[lo + k] for k in _choose_uniform_subset(t, j, rng))
    return RemovalPlan(night=i, cells=[(key, take) for key, _, take in cuts], removed_tagged=removed_tagged)


def ref_trace_text(
    inst: GameInstance, strategy: "StrategyKind | str", nights: int, seed: int, tags, trial_index: int = 0
) -> str:
    """The JSONL text, digest trailer included, that ``run_trace(...).to_jsonl()`` returned."""
    strategy = as_strategy(strategy)
    pending = _normalize_tags(tags)
    state = CaveState(pending_tags={d: list(ps) for d, ps in pending.items()})
    header = {
        "format": TRACE_FORMAT,
        "rng": RNG_VERSION,
        "seed": seed,
        "trial": trial_index,
        "strategy": strategy.value,
        "nights": nights,
        "label_mode": "sequential",
        "schedule": inst.spec.to_obj(),
        "tags": sorted([day, decimal_str(pos)] for day, ps in pending.items() for pos in ps),
    }
    lines = [canonical_dumps(header)]
    for i in range(1, nights + 1):
        step_day(state, inst, i)
        rng = CounterRNG(stream_key(seed, trial_index, i)) if strategy is StrategyKind.OLDEST_RND else None
        plan = ref_select_removals(state, inst, i, strategy, rng)
        apply_removals(state, plan)
        removed = [state.tagged[bag_id - 1] for bag_id in sorted(plan.removed_tagged)]
        cave_after = inst.cave_level(i)
        record = {
            "i": i,
            "cave_before": decimal_str(cave_after + inst.r_at(i)),
            "cave_after": decimal_str(cave_after),
            "removed_cells": [[key, decimal_str(take)] for key, take in plan.cells],
            "tagged_events": [
                {"id": bag.id, "day": bag.day, "pos": decimal_str(bag.pos), "night": i} for bag in removed
            ],
        }
        lines.append(canonical_dumps(record))
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode("ascii")).hexdigest()
    return "\n".join([*lines, canonical_dumps({"digest": digest}), ""])
