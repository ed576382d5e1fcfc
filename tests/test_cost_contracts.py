"""Cost contracts checked by counting, not by clocks.

``series_diagnostics`` reads the table prefix and each clamp piece's
``table`` nights, whose cutoff falls in the prefix, through
``GameInstance._nights``. Every other night lies on a closed run: it is
summed by C-level iterators, or skipped whole when the run's very-old pool
is empty, so no closed night is read through ``_nights`` and no per-night
array is kept.
"""

from __future__ import annotations

import tracemalloc

import pytest

from robinhood import FunctionSpec, GameInstance, series_diagnostics

from .conftest import make_spec

SQUARES = make_spec(1, FunctionSpec.affine(1, 2), 0)  # Ltilde(i) = (i^2 + 3i + 2)/2: every pool positive
EMPTY = make_spec(FunctionSpec.affine(1, 0), FunctionSpec.affine(1, 1), 3)  # Ltilde(i) = -i: every pool empty


def _record_nights(monkeypatch) -> list[int]:
    """Patches ``GameInstance._nights`` to record the cutoff of each night it yields."""
    cutoffs: list[int] = []
    nights = GameInstance._nights

    def counted(self, lo, hi):
        for night in nights(self, lo, hi):
            cutoffs.append(night[0])
            yield night

    monkeypatch.setattr(GameInstance, "_nights", counted)
    return cutoffs


@pytest.mark.parametrize("spec", [SQUARES, EMPTY], ids=["r=1,s=i+2,b=0", "r=i,s=i+1,b=3"])
def test_series_diagnostics_reads_no_closed_night_through_nights(monkeypatch, spec) -> None:
    inst = GameInstance(spec, horizon_cap=10**5)
    cutoffs = _record_nights(monkeypatch)
    series_diagnostics(inst, 10**5)
    # Both specs are closed from night 1 (no prefix): only a night whose cutoff is 0 reads the table.
    assert [c for c in cutoffs if c > 0] == []
    # The counter sees a night wherever one is read: cells walks each of its nights.
    before = len(cutoffs)
    assert len(list(inst.cells(1, 1, 10))) == 10
    assert len(cutoffs) - before == 10


def test_series_diagnostics_keeps_no_per_night_array() -> None:
    # A walk kept 8 bytes a night, 8 MB here; a float per night would be 32 MB.
    inst = GameInstance(SQUARES, horizon_cap=10**6)
    tracemalloc.start()
    try:
        series_diagnostics(inst, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
