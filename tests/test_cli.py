"""Command-line interface: outputs, exit codes, environment overrides."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinhood import FunctionSpec, GameInstance, SpecInvalid, classify, load_schedule, survival_probability
from robinhood import cli
from robinhood.cli import DEFAULT_SEED, dispatch
from robinhood.schedule import canonical_dumps, decimal_str


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
    assert code == 1


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
    # int() refused 5000 digits as "not an integer"; b clamps to i, as b = 10 does.
    digits = "9" * 5000
    assert cli._parse_memory_spec("constant:" + digits) == FunctionSpec.constant(10**5000 - 1)
    outcomes = []
    for b in (digits, "10"):
        code = dispatch(["construct", "--memory-b", "constant:" + b, "--steps", "3", "-o", str(tmp_path / "x")])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 1
    assert json.loads(outcomes[0][1].err)["error"] == "RestrictionViolated"
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
