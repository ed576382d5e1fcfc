"""``GameInstance.plays``, the simulator's one stream of nights, against the per-night calls.

For nights lo..hi the stream yields the cutoff i - b(i), R(i-1), R(i), S(i),
``night_cuts(i)`` and ``fifo_cut(i)``, carrying the last day with S(x) <= R(i)
forward as a cursor instead of inverting S every night. It must give, night
for night, what the reference instance's point readers give (the former
per-index construction, ``tests/materialized_instance.py``), and raise what
the first failing night raises, before any item. ``run_trace`` reads it; its
lines must be those of a loop of the public ``step_day``,
``select_removals`` and ``apply_removals``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinhood import (
    CaveState,
    FunctionSpec,
    GameInstance,
    ScheduleSpec,
    StrategyKind,
    apply_removals,
    run_trace,
    select_removals,
    step_day,
)
from robinhood.rng import CounterRNG, stream_key
from robinhood.schedule import canonical_dumps, decimal_str

from .materialized_instance import MaterializedInstance
from .test_prefix_instance import _B, _R, _S
from .test_range_readers import _assert_same, _per_night


@st.composite
def playable_specs(draw) -> ScheduleSpec:
    """Valid schedules behind a table prefix: r and s constant or affine, s > r, and a
    memory that steps by at most one a night in the table (sometimes dropping), then
    constant (cutoff 0 while b > i, then i - b) or i + c (a fixed cutoff)."""
    n = draw(st.integers(0, 8))
    r = [draw(st.integers(1, 4)) for _ in range(n)]
    s = [x + draw(st.integers(1, 6)) for x in r]
    b = [draw(st.integers(0, 3))][:n]
    while len(b) < n:
        b.append(max(0, b[-1] + draw(st.sampled_from([1, 1, 0, -1, -3]))))
    a_r, c_r = draw(st.integers(0, 1)), draw(st.integers(1, 3))
    a_e, c_e = draw(st.integers(0, 2)), draw(st.integers(1, 5))
    tail_b = draw(st.one_of(st.builds(FunctionSpec.constant, st.integers(0, 40)),
                            st.builds(FunctionSpec.affine, st.just(1), st.integers(-n, 3))))
    return ScheduleSpec(
        r_spec=FunctionSpec.table(r, FunctionSpec.affine(a_r, c_r)),
        s_spec=FunctionSpec.table(s, FunctionSpec.affine(a_r + a_e, c_r + c_e)),
        b_spec=FunctionSpec.table(b, tail_b),
    )


specs = st.one_of(
    playable_specs(),
    st.builds(lambda r, s, b: ScheduleSpec(r_spec=r, s_spec=s, b_spec=b), _R, _S, _B),
)


def _reference_night(ref: MaterializedInstance, i: int):
    """Night i as the reference's point readers give it."""
    cuts = ref.night_cuts(i)  # raises what playing night i raises
    r, after = ref.r_at(i), ref._sum_r[i]
    return i - ref.b_at(i), after - r, after, ref.cave_level(i) + after, cuts, ref.fifo_cut(i)


@settings(max_examples=300, deadline=None)
@given(spec=specs, cap=st.one_of(st.integers(0, 40), st.integers(0, 400)), data=st.data())
# Memory 1, 2, 3, then 9: the cutoff is 0 through night 9 (b > i, clamped to i), then i - 9.
@example(spec=ScheduleSpec(r_spec=FunctionSpec.constant(2), s_spec=FunctionSpec.affine(1, 3),
                           b_spec=FunctionSpec.table([1, 2, 3], FunctionSpec.constant(9))), cap=60,
         data=None)
def test_the_stream_equals_the_per_night_readers(spec, cap, data) -> None:
    inst = GameInstance(spec, horizon_cap=cap)
    ref = MaterializedInstance(spec, horizon_cap=cap)
    ranges = [(1, cap), (cap // 2 + 1, cap), (2, cap + 1), (0, 1)]
    if data is not None:
        lo = data.draw(st.integers(-1, cap + 2), label="lo")
        ranges.append((lo, data.draw(st.integers(lo - 1, cap + 2), label="hi")))
    for lo, hi in ranges:
        _assert_same(lambda: inst.plays(lo, hi), _per_night(lambda i: _reference_night(ref, i), lo, hi))


def _public_loop_text(inst: GameInstance, strategy: StrategyKind, nights: int, seed: int,
                      tags: dict[int, list[int]]) -> list[str]:
    """The night records of a loop of the public per-night calls, written by ``canonical_dumps``."""
    state = CaveState(pending_tags={d: list(ps) for d, ps in tags.items()})
    lines = []
    for i in range(1, nights + 1):
        step_day(state, inst, i)
        rng = CounterRNG(stream_key(seed, 0, i)) if strategy is StrategyKind.OLDEST_RND else None
        plan = select_removals(state, inst, i, strategy, rng)
        apply_removals(state, plan)
        removed = [state.tagged[bag_id - 1] for bag_id in sorted(plan.removed_tagged)]
        lines.append(canonical_dumps({
            "i": i,
            "cave_before": decimal_str(inst.cave_level(i) + inst.r_at(i)),
            "cave_after": decimal_str(inst.cave_level(i)),
            "removed_cells": [[key, decimal_str(take)] for key, take in plan.cells],
            "tagged_events": [{"id": b.id, "day": b.day, "pos": decimal_str(b.pos), "night": i} for b in removed],
        }))
    return lines


@settings(max_examples=150, deadline=None)
@given(spec=playable_specs(), nights=st.integers(0, 60), strategy=st.sampled_from(list(StrategyKind)),
       seed=st.integers(0, 99), data=st.data())
def test_run_trace_writes_what_the_public_per_night_loop_writes(spec, nights, strategy, seed, data) -> None:
    inst = GameInstance(spec, horizon_cap=max(nights, 1))
    if inst.valid_end(nights) < nights or not inst.restriction1_holds(nights):
        nights = min(inst.valid_end(nights), inst.restriction1_first_violation or nights)
    days = data.draw(st.lists(st.integers(1, max(nights, 1)), unique=True, max_size=12), label="days") if nights else []
    tags = {d: data.draw(st.lists(st.integers(1, inst.s_at(d)), min_size=1, max_size=4, unique=True), label="pos")
            for d in days}
    trace = run_trace(inst, strategy, nights, seed, tagged_days=[(d, p) for d, ps in tags.items() for p in ps])
    assert trace.lines[1:] == _public_loop_text(inst, strategy, nights, seed, tags)
