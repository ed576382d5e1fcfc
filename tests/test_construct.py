"""Separating-instance generation and independent verification."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import tempfile
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from robinhood import (
    FunctionSpec,
    GameInstance,
    LimitExceeded,
    RestrictionViolated,
    SeparationInstance,
    SpecInvalid,
    ValidityViolated,
    VerificationFailed,
    classify,
    load_schedule,
    separating_instance,
    verify_separation,
    write_instance_files,
)
from robinhood.cli import dispatch
from robinhood.schedule import canonical_dumps, decimal_str


def test_three_step_memoryless_hand_values() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 3)
    assert gen.r_table == (2, 6, 216)
    assert gen.s_table == (8, 216, 10077696)
    objs = [cert.as_obj() for cert in gen.certificates]
    assert objs[0] == {"i": 1, "r": "2", "Ltilde_c": "0", "Ltilde_b": "8", "term_b": "2/8"}
    assert objs[1] == {"i": 2, "r": "6", "Ltilde_c": "6", "Ltilde_b": "222", "term_b": "6/222"}
    assert objs[2] == {
        "i": 3,
        "r": "216",
        "Ltilde_c": "216",
        "Ltilde_b": "10077912",
        "term_b": "216/10077912",
    }


def test_removals_track_the_small_memory_pool() -> None:
    # r(i) = max(i + 1, Ltilde_c(i)) by construction; once the pool takes
    # over (from i = 2 here) the two are equal, so the c-side is swept clean
    # every night.
    gen = separating_instance(FunctionSpec.constant(0), 6)
    for cert in gen.certificates:
        assert cert.r == max(cert.i + 1, cert.ltilde_c)


def test_verify_passes_for_small_memory_families() -> None:
    for b_value, steps in ((0, 8), (1, 10), (2, 9)):
        gen = separating_instance(FunctionSpec.constant(b_value), steps)
        report = verify_separation(gen)
        assert report["ok"] is True
        assert report["steps"] == steps
        # restriction-2 violations under b form a finite (possibly empty)
        # proper prefix of the indices.
        prefix = report["restriction2_violation_prefix_under_b"]
        assert prefix == list(range(1, len(prefix) + 1))
        assert len(prefix) < steps


def test_verify_reports_verdicts_for_both_roles() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 6)
    report = verify_separation(gen)
    assert report["verdict_c"]["kind"] == "RobinSurely"
    assert report["verdict_c"]["rule"] == "Prop1.2"
    assert report["verdict_b"]["kind"] == "SheriffAlmostSurely"
    assert report["verdict_b"]["rule"] == "Thm2.2"


def test_certificate_terms_obey_the_square_majorant() -> None:
    gen = separating_instance(FunctionSpec.constant(1), 10)
    assert any(cert.i >= 2 and cert.term_b is not None for cert in gen.certificates)
    for cert in gen.certificates:
        if cert.i >= 2 and cert.term_b is not None:
            num, den = cert.term_b
            assert Fraction(num, den) <= Fraction(1, cert.i**2)


def test_growing_memory_without_gap_is_rejected() -> None:
    with pytest.raises(RestrictionViolated):
        separating_instance(FunctionSpec.affine(1, 0), 6)


def test_memory_jump_is_rejected() -> None:
    b_spec = FunctionSpec.table([0, 2], FunctionSpec.constant(2))
    with pytest.raises(RestrictionViolated):
        separating_instance(b_spec, 6)


def test_a_bounded_memory_gap_is_refused_up_front() -> None:
    # b = 0 on days 1-5, then i - 5: the gap i - b(i) stops at 5, so Prop1.1
    # makes Robin surely win with memory b and no separation exists.
    b_spec = FunctionSpec.table([0] * 5, FunctionSpec.affine(1, -5))
    with pytest.raises(RestrictionViolated) as caught:
        separating_instance(b_spec, 8)
    assert str(caught.value) == (
        "memory gap i - b(i) is at most 5 (Prop1.1): Robin surely wins with memory b,"
        " so no instance separates b from b + 1"
    )
    # The negative-value check comes first.
    with pytest.raises(SpecInvalid):
        separating_instance(FunctionSpec.affine(1, -5), 8)


def test_negative_memory_is_rejected() -> None:
    with pytest.raises(SpecInvalid):
        separating_instance(FunctionSpec.affine(1, -5), 6)


def test_digit_budget_stops_the_doubling_cascade() -> None:
    with pytest.raises(LimitExceeded):
        separating_instance(FunctionSpec.constant(0), 40)


def test_verify_catches_validity_corruption() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 4)
    s_corrupt = list(gen.s_table)
    s_corrupt[1] = gen.r_table[1]  # r(2) >= s(2)
    with pytest.raises(ValidityViolated):
        verify_separation(replace(gen, s_table=tuple(s_corrupt)))


def test_verify_catches_silent_table_tampering() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 4)
    s_corrupt = list(gen.s_table)
    s_corrupt[1] += 6  # still valid (r < s) but contradicts the certificates
    with pytest.raises(VerificationFailed):
        verify_separation(replace(gen, s_table=tuple(s_corrupt)))


def test_verify_catches_certificate_tampering() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 4)
    certs = list(gen.certificates)
    certs[2] = replace(certs[2], ltilde_b=certs[2].ltilde_b + 1)
    with pytest.raises(VerificationFailed):
        verify_separation(replace(gen, certificates=tuple(certs)))


def test_verify_catches_truncated_certificates() -> None:
    gen = separating_instance(FunctionSpec.constant(0), 4)
    with pytest.raises(VerificationFailed):
        verify_separation(replace(gen, certificates=gen.certificates[:-1]))


def _tamper_last_certificate(gen, **changes):
    certs = list(gen.certificates)
    certs[-1] = replace(certs[-1], **changes)
    return replace(gen, certificates=tuple(certs))


@pytest.mark.parametrize("field", ["s_table", "r", "ltilde_c", "ltilde_b", "term_b"])
def test_verify_failures_write_values_past_the_digit_cap(field) -> None:
    # At 11 steps r(11) has about 15 000 digits and Ltilde_b(11) 46 000.
    gen = separating_instance(FunctionSpec.constant(0), 11)
    cert = gen.certificates[-1]
    assert cert.i == len(gen.s_table) == 11 and cert.r > 10**4300
    error, expected = VerificationFailed, "{} fails at index 11: {} != {}"
    if field == "s_table":
        gen = replace(gen, s_table=gen.s_table[:-1] + (cert.r,))
        error, expected = ValidityViolated, f"r(11) = {decimal_str(cert.r)} >= s(11) = {decimal_str(cert.r)}"
    elif field == "term_b":
        num, den = cert.term_b
        gen = _tamper_last_certificate(gen, term_b=(num + 1, den))
        expected = expected.format(
            "stored term",
            f"({decimal_str(num + 1)}, {decimal_str(den)})",
            f"recomputed ({decimal_str(num)}, {decimal_str(den)})",
        )
    else:
        value = getattr(cert, field)
        gen = _tamper_last_certificate(gen, **{field: value + 1})
        name = {"r": "stored removal value", "ltilde_c": "stored Ltilde_c", "ltilde_b": "stored Ltilde_b"}[field]
        recomputed = "" if field == "r" else "recomputed "
        expected = expected.format(name, decimal_str(value + 1), recomputed + decimal_str(value))
    with pytest.raises(error) as caught:
        verify_separation(gen)
    assert str(caught.value) == expected


def test_negative_memory_past_the_digit_cap_is_rejected() -> None:
    b_spec = FunctionSpec.table([-(10**5000)], FunctionSpec.constant(0))
    with pytest.raises(SpecInvalid) as caught:
        separating_instance(b_spec, 3)
    assert str(caught.value) == f"memory bound b(1) = {decimal_str(-(10**5000))} is negative"


def test_written_files_roundtrip_through_the_parser(tmp_path) -> None:
    gen = separating_instance(FunctionSpec.constant(1), 5)
    paths = write_instance_files(gen, str(tmp_path / "sep.json"))
    spec_b = load_schedule(paths["b"])
    spec_c = load_schedule(paths["c"])
    assert spec_b.provenance["role"] == "b"
    assert spec_c.provenance["role"] == "c"
    inst_b = GameInstance(spec_b)
    for i in range(1, inst_b.horizon_cap + 1):
        assert inst_b.r_at(i) == gen.r_table[i - 1]
        assert inst_b.s_at(i) == gen.s_table[i - 1]

    with open(paths["certificate"], "r", encoding="utf-8") as fh:
        raw = fh.read()
    assert raw.endswith("\n")
    cert = json.loads(raw)
    assert cert["deviation"] == "r=max(i+1,Ltilde_c)"
    assert len(cert["per_index"]) == 5
    assert cert["memory_b"] == {"kind": "constant", "value": 1}
    assert cert["memory_c"] == {"kind": "constant", "value": 2}


@pytest.mark.parametrize("memory", [0, 2])
def test_written_files_equal_one_conversion_per_object(tmp_path, memory) -> None:
    # Nine steps put the largest values past the long conversion paths.
    gen = separating_instance(FunctionSpec.constant(memory), 9)
    assert gen.s_table[-1].bit_length() > 4096
    paths = write_instance_files(gen, str(tmp_path / "sep.json"))
    expected = {
        "b": gen.schedule_b().to_obj(),
        "c": gen.schedule_c().to_obj(),
        "certificate": gen.certificate_obj(),
    }
    for key, path in paths.items():
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == canonical_dumps(expected[key]) + "\n"


def test_playable_horizon_shrinks_with_larger_memory() -> None:
    # Memory 2 delays position coverage: the arrival table ends at
    # steps + 1 - c(steps + 1) entries, so the playable horizon is shorter
    # than the number of construction steps.
    steps = 9
    gen = separating_instance(FunctionSpec.constant(2), steps)
    assert len(gen.s_table) == steps + 1 - 3
    report = verify_separation(gen)
    assert report["playable_horizon"] == len(gen.s_table)


def test_steps_must_be_positive() -> None:
    with pytest.raises(SpecInvalid):
        separating_instance(FunctionSpec.constant(0), 0)


def _construct(k: int, steps: int, folder: str) -> tuple[int, dict]:
    """Exit code and printed JSON (stdout, else the error on stderr) of ``construct constant:k``."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["construct", "--memory-b", f"constant:{k}", "--steps", str(steps), "-o", os.path.join(folder, "sep")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, json.loads(out.getvalue() or err.getvalue())


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 4), steps=st.integers(1, 10))
@example(k=3, steps=6)  # the README's example: the least steps that works is 7
def test_construct_refuses_too_few_steps_or_writes_what_it_reports(k, steps) -> None:
    with tempfile.TemporaryDirectory() as folder:
        code, obj = _construct(k, steps, folder)
        if code == 0:
            report = obj["verification"]
            for role in ("b", "c"):
                inst = GameInstance(load_schedule(obj["files"][role]))
                assert inst.horizon_cap == report["playable_horizon"] >= 2
                assert classify(inst, inst.horizon_cap).as_dict() == report[f"verdict_{role}"]
            return
        assert os.listdir(folder) == []
        # The b file holds nights 1..steps - k (none while c = k + 1 covers every day through
        # step k + 1), and its restriction-2 prefix is 1..k.
        least = max(2, 2 * k + 1)
        assert (code, obj) == (1, {"error": "SpecInvalid", "message": (
            f"steps={steps} is too few: the b file holds nights 1..{max(0, steps - k)}, and classify needs night"
            f" {max(2, k + 1)}, past its restriction-2 prefix 1..{k} and at least 2;"
            f" the least steps that works is {least}")})
        assert steps < least
        assert _construct(k, least, folder)[0] == 0


def test_steps_before_the_window_opens_name_the_least_steps_that_works() -> None:
    # With constant memory k, c = k + 1 covers every day through step k + 1, so steps <= k
    # build an empty b file; they are refused like k < steps <= 2k, naming 2k + 1.
    for k in range(1, 5):
        for steps in range(1, 2 * k + 1):
            with pytest.raises(SpecInvalid) as caught:
                separating_instance(FunctionSpec.constant(k), steps)
            assert str(caught.value) == (
                f"steps={steps} is too few: the b file holds nights 1..{max(0, steps - k)}, and classify"
                f" needs night {k + 1}, past its restriction-2 prefix 1..{k} and at least 2;"
                f" the least steps that works is {2 * k + 1}"
            )
        assert verify_separation(separating_instance(FunctionSpec.constant(k), 2 * k + 1))["ok"]


def test_a_b_file_whose_certificates_all_fail_their_quota_is_refused() -> None:
    # b = 1, 2, 3, then 2: b first forgets a day at night 4, so the restriction-2 prefix is
    # 1..3. At 3 steps the b file holds night 1 and no certificate clears its quota; that
    # run used to be built and then fail verify_separation (exit 2).
    b = FunctionSpec.table([1, 2, 3], FunctionSpec.constant(2))
    for steps in range(1, 6):
        with pytest.raises(SpecInvalid, match=f"^steps={steps} is too few: .* the least steps that works is 6$"):
            separating_instance(b, steps)
    assert verify_separation(separating_instance(b, 6))["ok"]


def test_a_memory_breaking_restriction1_past_the_steps_is_refused_at_every_steps() -> None:
    # b = 1, 0, 2, then 0 grows by 2 at night 2. construct used to name 3 as the least
    # steps at --steps 1, and --steps 3 then broke the restriction.
    b = FunctionSpec.table([1, 0, 2], FunctionSpec.constant(0))
    for steps in range(1, 7):
        with pytest.raises(RestrictionViolated) as caught:
            separating_instance(b, steps)
        assert str(caught.value) == "memory bound grows too fast at night 2: b(3) > b(2) + 1"


@st.composite
def _tabled_memories(draw) -> FunctionSpec:
    """A table of up to 4 values in 0..4, then a nonnegative affine tail of slope 0..3."""
    values = draw(st.lists(st.integers(0, 4), max_size=4))
    a = draw(st.integers(0, 3))
    return FunctionSpec.table(values, FunctionSpec.affine(a, draw(st.integers(-a * (len(values) + 1), 3))))


@settings(max_examples=150, deadline=None)
@given(b=_tabled_memories(), steps=st.integers(1, 8))
def test_restriction1_is_decided_by_the_night_after_the_table(b, steps) -> None:
    # The first night on which the clamped memory grows by more than 1, found by brute force
    # over 60 nights, is refused at every steps, before or after it.
    clamped = [min(b.value_at(i), i) for i in range(1, 62)]
    first = next((i for i in range(1, 61) if clamped[i] > clamped[i - 1] + 1), None)
    assert first is None or first <= len(b.flat[0]) + 1
    try:
        separating_instance(b, steps)
    except RestrictionViolated as exc:
        if first is not None:
            assert str(exc) == f"memory bound grows too fast at night {first}: b({first + 1}) > b({first}) + 1"
        return
    except (SpecInvalid, ValidityViolated):
        pass
    assert first is None


@st.composite
def _restriction1_memories(draw) -> FunctionSpec:
    """A table of up to 5 values, then a constant, that grows by at most 1 a night."""
    values = [draw(st.integers(0, 1))]
    for _ in range(draw(st.integers(0, 4))):
        values.append(draw(st.integers(0, values[-1] + 1)))
    return FunctionSpec.table(values, FunctionSpec.constant(draw(st.integers(0, values[-1] + 1))))


@settings(max_examples=80, deadline=None)
@given(b=_restriction1_memories(), steps=st.integers(1, 10))
def test_the_restriction2_prefix_is_the_days_b_never_forgets(b, steps) -> None:
    # separating_instance names the prefix 1..g - 1, g the first day with b(g) < g, without
    # reading certificates; where they show it, the first to clear its quota is g's.
    g = next(i for i in itertools.count(1) if b.value_at(i) < i)
    try:
        gen = separating_instance(b, steps)
    except SpecInvalid as exc:
        assert f", past its restriction-2 prefix 1..{g - 1} and at least 2;" in str(exc)
        least = int(str(exc).rsplit(" ", 1)[1])
        gen = _built_or_rejected(b, least)
        with pytest.raises(SpecInvalid):
            separating_instance(b, least - 1)
    except ValidityViolated:
        reject()
    cleared = [c.i for c in gen.certificates if c.ltilde_b is not None and c.ltilde_b > c.r]
    assert cleared[0] == g


def _built_or_rejected(b: FunctionSpec, steps: int) -> SeparationInstance:
    """``separating_instance(b, steps)``; the example is rejected where the cube recurrence breaks
    r(i) < s(i), a limit of the construction (a memory whose gap stalls), not of the steps check."""
    try:
        return separating_instance(b, steps)
    except ValidityViolated:
        reject()
