"""Command-line interface: outputs, exit codes, environment overrides."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinhood import FunctionSpec, GameInstance, SpecInvalid, classify, load_schedule, survival_probability
from robinhood import cli
from robinhood.cli import DEFAULT_SEED, dispatch
from robinhood.schedule import canonical_dumps, decimal_str

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_schedule(path, r=1, s=2, b=0) -> str:
    obj = {
        "r": {"kind": "constant", "value": r},
        "s": {"kind": "constant", "value": s},
        "b": {"kind": "constant", "value": b},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture()
def sched(tmp_path):
    return write_schedule(tmp_path / "sched.json")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


def test_validate_reports_clean_schedule(sched, capsys) -> None:
    code, out = run(capsys, "validate", sched, "--horizon", "50")
    assert code == 0
    report = json.loads(out)
    assert report["validity_ok"] is True
    assert report["restriction1_ok"] is True
    assert report["restriction2_last_violation"] is None


def test_validate_flags_invalid_schedule(tmp_path, capsys) -> None:
    path = write_schedule(tmp_path / "bad.json", r=3, s=2)
    code, out = run(capsys, "validate", path)
    assert code == 1
    assert json.loads(out)["validity_ok"] is False


def test_validate_csv_lists_per_index_values(sched, capsys) -> None:
    code, out = run(capsys, "validate", sched, "--horizon", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,r,s,b,L,Ltilde,term,partial_sum"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:6] == ["1", "1", "2", "0", "1", "2"]


def test_classify_names_the_winner(sched, capsys) -> None:
    code, out = run(capsys, "classify", sched)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "RobinAlmostSurely"
    assert verdict["rule"] == "Thm2.1"


def test_survival_exact_fraction(sched, capsys) -> None:
    code, out = run(capsys, "survival", sched, "--day", "1", "--horizon", "99")
    assert code == 0
    result = json.loads(out)
    assert result["value"] == "1/100"
    assert result["log_value"] is None


def test_survival_log_space(sched, capsys) -> None:
    code, out = run(capsys, "survival", sched, "--day", "7", "--horizon", "500", "--space", "log")
    assert code == 0
    result = json.loads(out)
    assert result["value"] == pytest.approx(7 / 501, rel=1e-12)
    assert math.exp(result["log_value"]) == pytest.approx(result["value"], rel=1e-12)


def test_exact_cover_gives_zero_survival_in_log_space(tmp_path, capsys) -> None:
    # Ltilde(2) = r(2) = 1: night 2 takes the whole very-old pool, and the
    # day-1 bag with it, so the log-space value is 0 with log -inf.
    path = tmp_path / "cover.json"
    table = {"kind": "table", "values": [2, 2, 2, 9], "tail": {"kind": "constant", "value": 9}}
    b = {"kind": "table", "values": [0], "tail": {"kind": "constant", "value": 1}}
    path.write_text(json.dumps({"r": {"kind": "constant", "value": 1}, "s": table, "b": b}), encoding="utf-8")
    argv = ["--day", "1", "--horizon", "10", "--mode", "exact", "--space", "log"]
    code, out = run(capsys, "survival", str(path), *argv)
    assert code == 0
    assert '"value":0.0' in out and json.loads(out)["log_value"] == "-inf"
    # Past 2000 nights compare reads the analytic value in log space.
    code, out = run(capsys, "compare", str(path), "--day", "1", "--nights", "2500", "--trials", "100")
    assert code == 0
    result = json.loads(out)
    assert result["analytic"] == result["empirical"] == 0.0 and result["z"] == 0.0


def _log_of(value) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


@pytest.mark.parametrize("digits", [20, 400])
def test_log_space_takes_all_but_two_bags_of_a_huge_cell(tmp_path, capsys, digits) -> None:
    # Ltilde(2) = 10^k + 1 and r(2) = 10^k - 1: take/count rounds to 1.0
    # although two bags stay, so log1p(-take/count) would be log(0).
    big = 10**digits
    path = tmp_path / "huge.json"
    obj = {
        "r": {"kind": "table", "values": [1, big - 1], "tail": {"kind": "constant", "value": 1}},
        "s": {"kind": "table", "values": [2, big], "tail": {"kind": "constant", "value": 2}},
        "b": {"kind": "constant", "value": 0},
    }
    path.write_text(json.dumps(obj), encoding="utf-8")
    inst = GameInstance(load_schedule(str(path)), horizon_cap=2500)

    code, out = run(capsys, "survival", str(path), "--day", "1", "--horizon", "3", "--space", "log")
    assert code == 0
    exact = survival_probability(inst, 1, 3).value
    assert exact == Fraction(3, 4 * big + 4)
    assert json.loads(out)["log_value"] == pytest.approx(_log_of(exact), rel=1e-12)

    exact = survival_probability(inst, 1, 2500, mode="exact_strategy").value
    log_result = survival_probability(inst, 1, 2500, mode="exact_strategy", space="log")
    assert log_result.log_value == pytest.approx(_log_of(exact), rel=1e-12)
    code, out = run(capsys, "compare", str(path), "--day", "1", "--nights", "2500", "--trials", "10")
    result = json.loads(out)
    assert result["analytic"] == math.exp(log_result.log_value)
    if digits == 400:
        # exp underflows to 0.0, which no trial's survival can contradict.
        assert code == 0 and result["analytic"] == result["empirical"] == 0.0
    # At 10^20 the exit code is the gate's: no trial survives a chance near
    # 1e-23, so the empirical stderr is 0 and z is inf (a known gate defect).


def test_simulate_streams_jsonl_trace(sched, capsys) -> None:
    code, out = run(
        capsys, "simulate", sched, "--nights", "5", "--strategy", "oldest-det", "--tag-day", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["rng"] == "rhrng-v1"
    assert header["seed"] == DEFAULT_SEED
    trailer = json.loads(lines[-1])
    assert set(trailer) == {"digest"}
    assert len(lines) == 2 + 5  # header, one record per night, trailer


def test_simulate_out_file_reports_matching_digest(sched, tmp_path, capsys) -> None:
    out_path = tmp_path / "trace.jsonl"
    code, out = run(
        capsys, "simulate", sched, "--nights", "4", "--seed", "99", "--out", str(out_path)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 99
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert json.loads(lines[-1])["digest"] == summary["digest"]


@pytest.mark.parametrize(
    "options",
    [
        ["--strategy", "oldest-det", "--tag-day", "2", "--tag-day", "5"],
        ["--strategy", "oldest-rnd", "--tag-day", "1", "--tag-day", "3", "--tag-day", "4"],
    ],
    ids=["det", "rnd"],
)
def test_simulate_out_file_holds_the_printed_trace(tmp_path, capsys, options) -> None:
    path = write_schedule(tmp_path / "sched.json", r=1, s=3, b=2)
    argv = ["simulate", path, "--nights", "40", "--seed", "8", *options]
    code, printed = run(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "trace.jsonl"
    code, out = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    assert data == printed.encode("ascii") and data.endswith(b"}\n")
    body, _, last = data[:-1].rpartition(b"\n")
    digest = hashlib.sha256(body + b"\n").hexdigest()
    assert json.loads(last) == {"digest": digest}
    assert json.loads(out)["digest"] == digest
    assert len(body.split(b"\n")) == 1 + 40


@pytest.mark.parametrize(
    "r, b, error",
    [
        ({"kind": "table", "values": [1, 1, 2], "tail": {"kind": "constant", "value": 1}},
         {"kind": "constant", "value": 0}, "SpecInvalid"),
        ({"kind": "constant", "value": 1},
         {"kind": "table", "values": [0, 0, 2], "tail": {"kind": "constant", "value": 2}}, "RestrictionViolated"),
    ],
    ids=["invalid-day-3", "memory-break-at-3"],
)
def test_simulate_fails_before_its_first_line(tmp_path, capsys, r, b, error) -> None:
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"r": r, "s": {"kind": "constant", "value": 2}, "b": b}), encoding="utf-8")
    out_path = tmp_path / "trace.jsonl"
    out_path.write_text("kept\n", encoding="utf-8")
    for extra in ([], ["--out", str(out_path)]):
        assert dispatch(["simulate", str(path), "--nights", "5", "--tag-day", "1", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == error
    assert out_path.read_text(encoding="utf-8") == "kept\n"


def test_simulate_out_streams_without_keeping_the_trace(sched, tmp_path, capsys, monkeypatch) -> None:
    # The CLI hands run_trace a sink, so no line is kept in memory.
    traces, run_trace = [], cli.run_trace
    monkeypatch.setattr(cli, "run_trace", lambda *args, **kw: traces.append(run_trace(*args, **kw)) or traces[-1])
    out_path = tmp_path / "trace.jsonl"
    code, out = run(capsys, "simulate", sched, "--nights", "300", "--seed", "4", "--out", str(out_path))
    assert code == 0
    assert traces[0].lines == [] and json.loads(out)["digest"] == traces[0].digest
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 1 + 300 + 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_canonical_dumps_is_sorted_compact_json(value) -> None:
    assert canonical_dumps(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def test_canonical_dumps_rejects_nan() -> None:
    for bad in (math.nan, {"x": [math.inf]}):
        with pytest.raises(ValueError):
            canonical_dumps(bad)


def test_simulate_trials_estimates_survival(sched, capsys) -> None:
    code, out = run(
        capsys,
        "simulate",
        sched,
        "--nights",
        "9",
        "--trials",
        "4000",
        "--tag-day",
        "1",
        "--seed",
        "7",
    )
    assert code == 0
    result = json.loads(out)
    assert result["trials"] == 4000
    # exact survival over 9 nights is 1/10
    assert abs(result["estimate"] - 0.1) <= 4 * result["stderr"]


def test_simulate_trials_requires_one_tag_day(sched, capsys) -> None:
    assert dispatch(["simulate", sched, "--nights", "5", "--trials", "100"]) == 1
    capsys.readouterr()
    code = dispatch(
        ["simulate", sched, "--nights", "5", "--trials", "100", "--tag-day", "1", "--tag-day", "2"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SpecInvalid",
        "message": "--trials needs exactly one --tag-day to estimate",
    }


def test_simulate_trials_refuses_out_before_reading_the_schedule(tmp_path, capsys) -> None:
    # An estimate writes no trace, so --out would name a file that is never written; this schedule does not exist.
    out_path = tmp_path / "x.jsonl"
    argv = ["simulate", str(tmp_path / "missing.json"), "--nights", "3", "--trials", "5", "--tag-day", "1"]
    assert dispatch([*argv, "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert json.loads(captured.err) == {"error": "SpecInvalid", "message": "--trials writes no trace: drop --out"}


def test_simulate_trials_refuses_a_bag_after_the_last_night(sched, capsys) -> None:
    # As survival refuses --horizon below --day - 1; a bag of day nights + 1 still survives with certainty.
    code = dispatch(["simulate", sched, "--nights", "5", "--trials", "3", "--tag-day", "9"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SpecInvalid",
        "message": "nights must be >= day - 1, got nights=5 day=9",
    }
    code, out = run(capsys, "simulate", sched, "--nights", "5", "--trials", "3", "--tag-day", "6")
    assert code == 0 and json.loads(out)["estimate"] == 1.0


def test_simulate_refuses_a_tag_day_after_the_last_night(tmp_path, capsys) -> None:
    # The trace would list a tag that never arrives; --trials refuses the same bag.
    sched = write_schedule(tmp_path / "sched.json", r=1, s=3, b=1)
    out_path = tmp_path / "trace.jsonl"
    for extra in ([], ["--out", str(out_path)]):
        code = dispatch(["simulate", sched, "--nights", "5", "--tag-day", "9", *extra])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "SpecInvalid",
            "message": "nights must be >= day - 1, got nights=5 day=9",
        }
    assert not out_path.exists()
    code, out = run(capsys, "simulate", sched, "--nights", "5", "--tag-day", "6", "--out", str(out_path))
    assert code == 0 and json.loads(out_path.read_text(encoding="utf-8").splitlines()[0])["tags"] == [[6, "1"]]


def test_construct_writes_three_files(tmp_path, capsys) -> None:
    stem = tmp_path / "sep.json"
    code, out = run(capsys, "construct", "--memory-b", "constant:0", "--steps", "5", "-o", str(stem))
    assert code == 0
    summary = json.loads(out)
    assert summary["verification"]["ok"] is True
    assert summary["steps"] == 5
    for path in summary["files"].values():
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)


def test_construct_digit_budget_exit_code(tmp_path, capsys) -> None:
    code = dispatch(["construct", "--memory-b", "constant:0", "--steps", "40", "-o", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_construct_env_budget_override(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("RH_DIGIT_BUDGET", "20")
    code = dispatch(["construct", "--memory-b", "constant:0", "--steps", "12", "-o", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_digit_budget_flag_beats_env(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("RH_DIGIT_BUDGET", "4")
    argv = ["construct", "--memory-b", "constant:0", "--steps", "5", "-o", str(tmp_path / "x")]
    assert dispatch(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "LimitExceeded"
    assert dispatch([*argv, "--digit-budget", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["ok"] is True


def test_construct_refuses_a_bounded_memory_gap(tmp_path, capsys) -> None:
    memory = tmp_path / "b.json"
    memory.write_text(
        json.dumps({"kind": "table", "values": [0] * 5, "tail": {"kind": "affine", "a": 1, "c": -5}}),
        encoding="utf-8",
    )
    code = dispatch(["construct", "--memory-b", str(memory), "--steps", "8", "-o", str(tmp_path / "sep")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "RestrictionViolated"
    assert error["message"].startswith("memory gap i - b(i) is at most 5 (Prop1.1)")
    assert not list(tmp_path.glob("sep*"))


@pytest.mark.parametrize("budget", ["-3", "0"])
def test_a_digit_budget_below_one_is_refused(sched, capsys, monkeypatch, budget) -> None:
    expected = {"error": "SpecInvalid", "message": f"digit budget must be >= 1, got {budget}"}
    assert dispatch(["validate", sched, "--digit-budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err) == expected
    monkeypatch.setenv("RH_DIGIT_BUDGET", budget)
    assert dispatch(["validate", sched]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err) == expected
    # The flag still beats the environment.
    assert dispatch(["validate", sched, "--digit-budget", "10"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("max_z", ["nan", "inf", "-inf", "0", "-1"])
def test_compare_refuses_a_max_z_that_no_run_could_pass(tmp_path, capsys, max_z) -> None:
    # Refused before the schedule is read: this one does not exist.
    missing = str(tmp_path / "missing.json")
    argv = ["compare", missing, "--day", "1", "--nights", "9", "--trials", "10", f"--max-z={max_z}"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SpecInvalid",
        "message": f"--max-z must be a finite number > 0, got {float(max_z)!r}",
    }


def test_compare_gate_passes_for_honest_engine(sched, capsys) -> None:
    code, out = run(
        capsys, "compare", sched, "--day", "1", "--nights", "49", "--trials", "20000", "--seed", "3"
    )
    assert code == 0
    result = json.loads(out)
    assert result["analytic_exact"] == "1/50"
    assert abs(result["z"]) < 4.0


def test_seed_env_override(sched, capsys, monkeypatch) -> None:
    monkeypatch.setenv("RH_SEED", "0x10")
    code, out = run(capsys, "simulate", sched, "--nights", "2")
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["seed"] == 16


def test_seed_flag_beats_env(sched, capsys, monkeypatch) -> None:
    monkeypatch.setenv("RH_SEED", "123")
    code, out = run(capsys, "simulate", sched, "--nights", "2", "--seed", "5")
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["seed"] == 5


def test_malformed_schedule_file_exit_code(tmp_path, capsys) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert dispatch(["validate", str(path)]) == 1
    capsys.readouterr()


def test_usage_errors_map_to_exit_one(capsys) -> None:
    assert dispatch(["survival"]) == 1
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 1
    capsys.readouterr()


def _fresh_parser_outputs(capsys, calls: list[list[str]]) -> list[tuple[int, str, str]]:
    outputs = []
    for argv in calls:
        cli.build_parser.cache_clear()
        code = dispatch(argv)
        outputs.append((code, *capsys.readouterr()))
    return outputs


def test_the_cached_parser_prints_what_fresh_parsers_print(sched, capsys) -> None:
    calls = [
        ["survival", sched, "--day", "1"],  # usage error: --horizon is missing
        ["survival", sched, "--day", "1", "--horizon", "5"],
        ["validate", sched, "--horizon", "4"],
        ["simulate", sched, "--nights", "3", "--tag-day", "1", "--tag-day", "2"],
        ["simulate", sched, "--nights", "3"],
        ["classify", sched],
    ]
    fresh = _fresh_parser_outputs(capsys, calls)
    assert fresh[0][0] == 1 and "argument error" in fresh[0][2]
    cached = []
    for argv in calls:
        code = dispatch(argv)
        cached.append((code, *capsys.readouterr()))
    assert cli.build_parser.cache_info().hits >= len(calls) - 1
    assert cached == fresh


@pytest.mark.parametrize(
    "options",
    [
        ["simulate", "--nights", "3", "--label-mode", "sequential"],
        ["classify", "--csv"],
        ["survival", "--day", "1", "--horizon", "3", "--csv"],
    ],
    ids=["simulate-label-mode", "classify-csv", "survival-csv"],
)
def test_removed_options_are_usage_errors(sched, capsys, options) -> None:
    code = dispatch([options[0], sched, *options[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "SpecInvalid"


@pytest.mark.parametrize(
    "tail",
    ["\u0661", "+1_0", " 1", "1.0", "9" * 5000 + "x"],
    ids=["arabic-indic-one", "plus-underscore", "leading-space", "decimal-point", "5000-digits-then-x"],
)
def test_memory_constant_takes_only_ascii_digits(tmp_path, capsys, tail) -> None:
    # int() read the Arabic-Indic one as 1 and "+1_0" as 10.
    code = dispatch(["construct", "--memory-b", "constant:" + tail, "--steps", "3", "-o", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "SpecInvalid" and error["message"].startswith("--memory-b constant:N")
    assert len(error["message"]) < 100
    assert list(tmp_path.iterdir()) == []


def test_memory_constant_past_the_digit_cap_is_an_integer(tmp_path, capsys) -> None:
    # int() refused 5000 digits as "not an integer"; b clamps to i, as b = 10 does, so
    # both b files are empty at 3 steps, and the least steps that works, 2k + 1, is found
    # by search rather than by running k steps.
    digits = "9" * 5000
    assert cli._parse_memory_spec("constant:" + digits) == FunctionSpec.constant(10**5000 - 1)
    for k in (10**5000 - 1, 10):
        code = dispatch(["construct", "--memory-b", f"constant:{decimal_str(k)}", "--steps", "3",
                         "-o", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert json.loads(captured.err) == {"error": "SpecInvalid", "message": (
            f"steps=3 is too few: the b file holds nights 1..0, and classify needs night {decimal_str(k + 1)},"
            f" past its restriction-2 prefix 1..{decimal_str(k)} and at least 2;"
            f" the least steps that works is {decimal_str(2 * k + 1)}")}
    with pytest.raises(SpecInvalid, match="nonnegative"):
        cli._parse_memory_spec("constant:-" + digits)
    # The negative value is quoted cut to 40 characters, not written out in full.
    code = dispatch(["construct", "--memory-b", "constant:-" + digits, "--steps", "3", "-o", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SpecInvalid",
        "message": f"--memory-b constant must be nonnegative, got {('-' + digits)[:40]!r}",
    }
    assert list(tmp_path.iterdir()) == []


def test_memory_spec_from_json_file(tmp_path, capsys) -> None:
    spec_path = tmp_path / "b.json"
    spec_path.write_text(json.dumps({"kind": "constant", "value": 1}), encoding="utf-8")
    stem = tmp_path / "sep.json"
    code, out = run(capsys, "construct", "--memory-b", str(spec_path), "--steps", "4", "-o", str(stem))
    assert code == 0
    assert json.loads(out)["verification"]["ok"] is True


def test_horizons_past_the_default_cap_match_the_library(sched, capsys) -> None:
    horizon = 20_000
    inst = GameInstance(load_schedule(sched), horizon_cap=horizon)
    expected = {
        "validate": inst.check_restrictions(horizon),
        "classify": classify(inst, horizon),
        "survival": survival_probability(inst, 3, horizon),
    }
    for command, result in expected.items():
        extra = ["--day", "3"] if command == "survival" else []
        code, out = run(capsys, command, sched, "--horizon", str(horizon), *extra)
        assert code == 0
        assert out == canonical_dumps(result.as_dict()) + "\n"


def test_validate_and_classify_answer_at_a_horizon_of_10_to_the_12(tmp_path, capsys) -> None:
    # Constant and affine specs are read from their closed forms past their tables,
    # so neither command builds anything the size of the horizon.
    thm21 = write_schedule(tmp_path / "thm21.json", r=1, s=3, b=2)
    prop11 = str(tmp_path / "prop11.json")
    with open(prop11, "w", encoding="utf-8") as fh:
        json.dump({"r": json.loads(_constant("1")), "s": json.loads(_constant("3")),
                   "b": {"kind": "table", "values": [0] * 5, "tail": {"kind": "affine", "a": 1, "c": -5}}}, fh)
    far = str(10**12)
    code, out = run(capsys, "validate", thm21, "--horizon", far)
    assert code == 0 and json.loads(out)["restriction1_ok"] is True
    for path, rule in ((thm21, "Thm2.1"), (prop11, "Prop1.1")):
        code, out = run(capsys, "classify", path, "--horizon", far)
        assert code == 0 and json.loads(out)["rule"] == rule


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_a_long_simulate_holds_no_per_night_schedule_state(tmp_path) -> None:
    # The instance stores only its table prefix, so the peak RSS of a 200 000-night
    # simulate --out stays near that of a 2 000-night one; storing the schedule per
    # index took the peak to 53 MB. VmHWM is the child's own peak (ru_maxrss would
    # count the pytest process it was forked from).
    sched = write_schedule(tmp_path / "sched.json", r=1, s=3, b=2)
    script = (
        "import sys\n"
        "from robinhood.cli import dispatch\n"
        "for nights in ('2000', '200000'):\n"
        "    assert dispatch(['simulate', sys.argv[1], '--nights', nights, '--out', sys.argv[2]]) == 0\n"
        "    assert 'numpy' not in sys.modules\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, sched, str(tmp_path / "trace.jsonl")],
                          capture_output=True, text=True, env=env, check=True)
    short_kb, long_kb = map(int, proc.stderr.split())
    assert long_kb - short_kb < 4 * 1024
    assert long_kb < 53 * 1024


def _constant(value: str) -> str:
    return '{"kind": "constant", "value": ' + value + "}"


@pytest.mark.parametrize(
    "command, content",
    [
        # json raises a plain ValueError for an integer literal past the
        # interpreter's digit cap (4300 digits) and for undecodable UTF-8.
        ("validate", '{"r": ' + _constant("1") + ', "s": ' + _constant("9" * 5000) + "}"),
        ("validate", b'{"r": \xff}'),
        ("construct", _constant("9" * 5000)),
        ("construct", b"\xff"),
    ],
    ids=["validate-long-literal", "validate-bad-utf8", "construct-long-literal", "construct-bad-utf8"],
)
def test_unreadable_json_files_are_spec_errors(tmp_path, capsys, command, content) -> None:
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    argv = ["validate", str(path)]
    if command == "construct":
        argv = ["construct", "--memory-b", str(path), "--steps", "3", "-o", str(tmp_path / "sep")]
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    error = json.loads(err)
    assert out == "" and err == canonical_dumps(error) + "\n"
    assert error["error"] == "SpecInvalid"
    assert error["message"].startswith(f"{path}: unreadable JSON: ")
    assert not list(tmp_path.glob("sep*"))


def test_classify_writes_an_intercept_past_the_digit_cap(tmp_path, capsys) -> None:
    # Twenty 4300-digit arrivals (each at the cap json reads) add up to an
    # intercept of 4301 digits, past the cap str() writes.
    values = [10**4299 + k for k in range(20)]
    text = ",".join(map(decimal_str, values))
    path = tmp_path / "big.json"
    path.write_text(
        '{"r": ' + _constant("1") + ', "s": {"kind": "table", "values": [' + text + '], "tail": '
        + _constant("3") + '}, "b": ' + _constant("2") + "}",
        encoding="utf-8",
    )
    code, out = run(capsys, "classify", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["rule"] == "Thm2.1"
    # Ltilde(22) = S(20) - R(21) and the very-old level grows by s - r = 2.
    intercept = sum(values) - 21 - 2 * 22
    assert len(decimal_str(intercept)) == 4301
    assert verdict["certificate"]["very_old_intercept"] == decimal_str(intercept)
    assert verdict["certificate"]["witness"] == (
        f"for i >= 22: term(i) = 1/(2*i + {decimal_str(intercept)}), a divergent harmonic comparison"
    )


def test_a_term_past_the_float_range_is_a_limit_error(tmp_path, capsys) -> None:
    # Night 2 removes 10^400 bags from a very-old pool of S(1) - R(1) = 1:
    # r(2)/Ltilde(2) = 10^400 has no float.
    big = 10**400
    path = tmp_path / "huge_term.json"
    path.write_text(json.dumps({
        "r": {"kind": "generated", "values": ["1", str(big), "1"]},
        "s": {"kind": "generated", "values": ["2", str(big + 5), "3"]},
        "b": {"kind": "table", "values": [0, 1, 2], "tail": {"kind": "constant", "value": 0}},
    }))
    for argv in (["classify", str(path), "--horizon", "3"], ["validate", str(path), "--horizon", "3", "--csv"]):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        error = json.loads(err)
        assert err == canonical_dumps(error) + "\n"
        assert error["error"] == "LimitExceeded" and "night 2" in error["message"], argv


def test_each_command_materializes_the_nights_it_reads(sched, capsys, monkeypatch) -> None:
    # validate and survival read nights 1..horizon only; classify refuses an
    # invalid day anywhere it materializes, so it keeps the 10 000 floor.
    caps: list[int] = []

    def recorded(*args, **kwargs) -> GameInstance:
        inst = GameInstance(*args, **kwargs)
        caps.append(inst.horizon_cap)
        return inst

    wide = GameInstance(load_schedule(sched), horizon_cap=10_000)
    monkeypatch.setattr(cli, "GameInstance", recorded)
    for argv, cap, expected in [
        (["validate", sched], 1000, wide.check_restrictions(1000)),
        (["validate", sched, "--horizon", "50"], 50, wide.check_restrictions(50)),
        (["survival", sched, "--day", "3", "--horizon", "99"], 99, survival_probability(wide, 3, 99)),
        (["classify", sched, "--horizon", "50"], 10_000, classify(wide, 50)),
    ]:
        caps.clear()
        assert run(capsys, *argv) == (0, canonical_dumps(expected.as_dict()) + "\n")
        assert caps == [cap], argv
    for command in ("validate", "classify"):
        for horizon in ("0", "-5"):
            assert dispatch([command, sched, "--horizon", horizon]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "IndexBeyondHorizon"


def test_a_night_past_a_short_schedule_is_beyond_the_horizon_in_every_command(tmp_path, capsys) -> None:
    # Three generated values end the instance at night 3: the instance alone refuses night 5.
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "r": {"kind": "generated", "values": ["1", "1", "1"]},
        "s": {"kind": "generated", "values": ["3", "3", "3"]},
        "b": {"kind": "constant", "value": 0},
    }))
    for argv in (
        ["simulate", str(path), "--nights", "5"],
        ["simulate", str(path), "--nights", "5", "--trials", "3", "--tag-day", "1"],
        ["compare", str(path), "--day", "1", "--nights", "5", "--trials", "3"],
        ["survival", str(path), "--day", "1", "--horizon", "5"],
    ):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert json.loads(captured.err) == {
            "error": "IndexBeyondHorizon",
            "message": "night 5 outside [1, 3] for this instance",
        }, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--nights", "-1"], "nights must be >= 0, got -1"),
        (["simulate", "--nights", "-1", "--trials", "3", "--tag-day", "1"],
         "nights must be >= day - 1, got nights=-1 day=1"),
        (["compare", "--day", "1", "--nights", "-1", "--trials", "3"],
         "horizon must be >= day - 1, got horizon=-1 day=1"),
    ],
)
def test_a_negative_nights_is_refused_as_nights(sched, capsys, argv, message) -> None:
    # The instance is loaded through night 0, so the command's own check names --nights.
    code = dispatch([argv[0], sched, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {"error": "SpecInvalid", "message": message}


def _stock_parser() -> argparse.ArgumentParser:
    """The CLI's parser with ``--tag-day`` as argparse's own append of ``type=int`` values."""
    parser = cli.build_parser.__wrapped__()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = commands.choices["simulate"]._option_string_actions["--tag-day"]
    action.__class__, action.type = argparse._AppendAction, int
    return parser


def _parsed(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """The namespace a parse gives, or its usage error, or its exit code and printed help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return ("ok", vars(parser.parse_args(argv)))
    except SpecInvalid as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue())


_ARGV_CORPUS = [
    ["simulate", "s.json", "--nights", "5"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "3", "--tag-day", "1", "--tag-day", "3"],
    ["simulate", "s.json", "--tag-day=7", "--nights", "5"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "-5", "--tag-day", "2"],
    ["simulate", "s.json", "--nights", "5", "--tag", "3", "--tag-day", "4"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "2", "--tag-day", "x", "--tag-day", "y"],
    ["simulate", "s.json", "--nights", "5", "--out", "--tag-day", "3", "x.json"],
    ["simulate", "s.json", "--nights", "5", "--", "--tag-day", "3"],
    ["simulate", "--nights", "5", "--", "--tag-day", "3"],
    ["simulate", "s.json", "--nights", "5", "--", "--tag-day", "3", "--tag-day", "4"],
    ["simulate", "--nights", "5", "--", "--tag-day", "3", "--tag-day", "4"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "3", "--tag-day", "--bogus"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "3", "--tag-day", "-h"],
    ["simulate", "--tag-day", "1", "--tag-day", "2", "s.json", "--nights", "5", "--tag-day", "3"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "1", "--tag-day", "2", "extra", "--tag-day", "3"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", " 7", "--tag-day", "7_0", "--tag-day", "+8"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "", "--tag-day", "1"],
    ["simulate", "s.json", "--nights", "5", "--tag-day"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "1", "--s", "2"],
    ["simulate", "s.json", "--nights", "5", "--tag-day", "1", "--tag-day", "2", "-h"],
    ["simulate", "s.json", "--nights", "x", "--tag-day", "1", "--tag-day", "y"],
    ["simulate", "s.json", "--tag-day", "1", "--tag-day", "2"],
    ["simulate", "s.json", "--nights", "5", "--trials", "9", "--tag-day", "4"],
    ["classify", "s.json", "--tag-day", "3", "--tag-day", "4"],
    ["--tag-day", "3", "simulate", "s.json", "--nights", "5"],
]

_ARGV_TOKENS = ["simulate", "s.json", "--nights", "5", "--tag-day", "--tag-day", "--tag-day", "--tag", "--tag-day=7",
                "--tag-day=", "3", "3", "-5", "x", " 7", "--", "--out", "o.json", "--seed", "--s", "-", "", "--bogus",
                "--trials", "-x", "-h"]


@pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=" ".join)
def test_folded_tag_runs_parse_as_stock_argparse(argv) -> None:
    assert _parsed(cli.build_parser(), cli._fold_tag_runs(argv)) == _parsed(_stock_parser(), argv)


@settings(max_examples=400, deadline=None)
@given(tokens=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=14), command=st.booleans())
def test_any_argv_parses_as_stock_argparse(tokens, command) -> None:
    argv = ["simulate", *tokens] if command else tokens
    assert _parsed(cli.build_parser(), cli._fold_tag_runs(argv)) == _parsed(_stock_parser(), argv)


def test_thousands_of_tag_days_fold_into_one_pair() -> None:
    days = [str(d) for d in range(1, 4001)]
    argv = ["simulate", "s.json", "--nights", "4000", *(t for d in days for t in ("--tag-day", d))]
    folded = cli._fold_tag_runs(argv)
    assert folded[:4] == argv[:4] and folded[4] == "--tag-day" and folded[5].texts == days and len(folded) == 6
    assert cli.build_parser().parse_args(folded).tag_day == list(range(1, 4001))
