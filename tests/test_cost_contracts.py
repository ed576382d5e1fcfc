"""Cost contracts checked by counting, not by clocks.

``series_diagnostics`` reads the table prefix and each clamp piece's
``table`` nights, whose cutoff falls in the prefix, through
``GameInstance._nights``. Every other night lies on a closed run: it is
summed by C-level iterators, or skipped whole when the run's very-old pool
is empty, so no closed night is read through ``_nights`` and no per-night
array is kept.

``validate --csv`` checks its range once: its rows come from ``terms`` and
``_nights`` beside it, so the number of checked reads (``require_valid``,
``require_playable``, ``check_horizon``) does not grow with the rows.
"""

from __future__ import annotations

import csv
import io
import tracemalloc

import pytest

from robinhood import FunctionSpec, GameInstance, series_diagnostics
from robinhood.cli import dispatch
from robinhood.schedule import canonical_dumps

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


def _record_checked_reads(monkeypatch) -> list[str]:
    """Patches the instance's range checks to record the name of each call."""
    calls: list[str] = []
    for name in ("require_valid", "require_playable", "check_horizon"):

        def counted(self, *args, _name=name, _check=getattr(GameInstance, name)):
            calls.append(_name)
            return _check(self, *args)

        monkeypatch.setattr(GameInstance, name, counted)
    return calls


# A table prefix with a growing memory, then closed tails; and one that turns invalid on day 3 (r >= s).
CSV_SPECS = {
    "prefix-then-tail": make_spec(FunctionSpec.table([1, 2, 1], FunctionSpec.constant(1)),
                                  FunctionSpec.affine(1, 3), FunctionSpec.table([0, 1, 2], FunctionSpec.constant(2))),
    "invalid-from-3": make_spec(FunctionSpec.table([1, 1, 5], FunctionSpec.constant(1)), 3, 1),
}


@pytest.mark.parametrize("name", list(CSV_SPECS))
def test_validate_csv_makes_a_constant_number_of_checked_reads(monkeypatch, capsys, tmp_path, name) -> None:
    path = tmp_path / "sched.json"
    path.write_text(canonical_dumps(CSV_SPECS[name].to_obj()))
    calls = _record_checked_reads(monkeypatch)
    counts, tables = [], []
    for horizon in (100, 10_000):
        calls.clear()
        assert dispatch(["validate", str(path), "--horizon", str(horizon), "--csv"]) in (0, 1)
        counts.append(len(calls))
        tables.append(list(csv.reader(io.StringIO(capsys.readouterr().out))))
    assert counts[0] == counts[1] <= 3, calls
    # s, the clamped b and L are those the checked point readers give.
    inst = GameInstance(CSV_SPECS[name], horizon_cap=100)
    rows = tables[0][1:]
    assert len(rows) == inst.valid_end(100)
    for i, row in enumerate(rows, 1):
        want = [i, inst.r_at(i), inst.s_at(i), inst.b_at(i), inst.cave_level(i), inst.very_old_level(i)]
        assert row[:6] == [str(v) for v in want]
