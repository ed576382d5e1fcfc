"""The former recursive readers of ``FunctionSpec``, kept as the reference for ``FunctionSpec.flat``.

Each of these used to decide on its own how a spec nests: its ``values``,
then ``tail`` read at the original index, then ``a * i + c``, or an end for
``generated``. The package now walks ``tail`` once, in ``FunctionSpec.flat``,
and reads every fact below from that one prefix and closed form. These are
what the tests hold the flat readers to, as ``tests/per_night_kernels.py``
keeps the per-night loops.
"""

from __future__ import annotations

from itertools import count, islice, repeat
from typing import Iterator

from robinhood import FunctionSpec, IndexBeyondHorizon


def ref_value_at(fs: FunctionSpec, i: int) -> int:
    """Raw function value at day i >= 1 (no clamping applied)."""
    if i < 1:
        raise IndexBeyondHorizon(f"index {i} is below 1")
    if i <= len(fs.values):
        return fs.values[i - 1]
    if fs.tail is not None:
        return ref_value_at(fs.tail, i)
    if fs.kind == "generated":
        raise IndexBeyondHorizon(f"generated values end at index {len(fs.values)}; refusing index {i}")
    return fs.a * i + fs.c


def ref_iter(fs: FunctionSpec) -> Iterator[int]:
    """The values at i = 1, 2, ...; the stream ends after index ``ref_hard_horizon`` when that is not None."""
    yield from fs.values
    n = len(fs.values)
    if fs.tail is not None:
        yield from islice(ref_iter(fs.tail), n, None)
    elif fs.kind != "generated":
        yield from count(fs.a * (n + 1) + fs.c, fs.a) if fs.a else repeat(fs.c)


def ref_hard_horizon(fs: FunctionSpec) -> int | None:
    """Largest defined index, or None when defined for all i >= 1."""
    if fs.tail is None:
        return len(fs.values) if fs.kind == "generated" else None
    th = ref_hard_horizon(fs.tail)
    return None if th is None else max(len(fs.values), th)


def ref_eventually_constant(fs: FunctionSpec) -> tuple[int, int] | None:
    """(value, from_index) if provably constant from some index on."""
    if fs.tail is not None:
        ec = ref_eventually_constant(fs.tail)
    else:
        ec = None if fs.kind == "generated" or fs.a else (fs.c, 1)
    return None if ec is None else (ec[0], max(ec[1], len(fs.values) + 1))


def ref_bounded_memory_gap(fs: FunctionSpec, start_i: int = 1) -> int | None:
    """Supremum of i - min(b(i), i) over i >= start_i, when the family proves one."""
    n = len(fs.values)
    after = max(start_i, n + 1)
    if fs.tail is not None:
        tail_bound = ref_bounded_memory_gap(fs.tail, after)
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
