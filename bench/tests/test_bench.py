"""Tests of the benchmark itself: checks, metric names, seeding, comparison."""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

import pytest

import compare
import oracle
import run
import tracing
import workloads
from robinhood import FunctionSpec, GameInstance, ScheduleSpec, survival_probability

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _files(workdir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _query(batch: list, prefix: str):
    return next(q for q in batch if q.label.startswith(prefix))


def test_metric_names_are_well_formed_and_match_the_code() -> None:
    bench = _benchmark()
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.BATCHES)
    assert list(run.metric_units("end_to_end")) == end_to_end
    # Every per-layer metric the tracer computes is listed, and nothing else.
    computed = set(tracing.Tracer().layer_metrics(1)) | {n for n in per_layer if n.startswith("trace.")}
    assert computed == set(per_layer)


@pytest.mark.parametrize("workload", list(workloads.BATCHES))
def test_same_seed_same_inputs_other_seed_other_inputs(workload: str, tmp_path) -> None:
    built = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / name
        workdir.mkdir()
        batch = workloads.BATCHES[workload](seed, str(workdir))
        labels = [q.label for q in batch]
        files = _files(str(workdir))
        # Paths inside the files name the work directory; mask it.
        built[name] = (labels, {k: v.replace(str(workdir).encode(), b"<tmp>") for k, v in files.items()})
    assert built["a"] == built["b"]
    assert built["a"] != built["c"]
    # Enough queries that the tail latency is read at p90 or above.
    assert run._tail([0.0] * len(built["a"][0]))[1] >= 90.0


def test_same_seed_reproduces_output_digests(tmp_path) -> None:
    digests = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        batch = workloads.build_montecarlo(3, str(workdir))
        cheap = [q for q in batch if "trials=" in q.label][:4]
        m = run.Measurement(cheap)
        m.run_pass()
        assert not m.wrong, m.wrong
        digests.append(m.output_digest())
    assert digests[0] == digests[1]


def test_corrupted_trace_file_is_counted_as_failed(tmp_path) -> None:
    batch = workloads.build_simulate(1, str(tmp_path))
    query = _query(batch, "simulate oldest-det tags=1 ")
    result = query.run()
    query.check(result)  # the genuine output passes
    out_path = json.loads(result.out)["out"]
    with open(out_path, "r+b") as fh:
        data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x01
        fh.seek(0)
        fh.write(data)
    with pytest.raises(workloads.CheckFailed):
        query.check(result)


def test_large_batch_queries_tag_distinct_bags(tmp_path) -> None:
    batch = workloads.build_simulate(1, str(tmp_path))
    query = _query(batch, "run_trace oldest-det tags=")
    trace = query.run()
    query.check(trace)
    tags = [tuple(t) for t in trace.header["tags"]]
    assert len(tags) >= 100 and len(set(tags)) == len(tags)
    assert len({day for day, _ in tags}) == 1


def test_corrupted_output_is_counted_in_failed_and_marks_the_run_wrong(tmp_path) -> None:
    batch = workloads.build_simulate(1, str(tmp_path))
    good = _query(batch, "run_trace criterion 8")

    def corrupted():
        trace = good.run()
        trace.digest = "0" * 64
        return trace

    bad = workloads.Query("corrupted", corrupted, good.check, good.digest)
    m = run.Measurement([good, bad])
    m.run_pass()
    m.run_pass()
    # Counted once per query, however many passes the run made.
    assert (m.attempted, m.failed, m.executions) == (2, 1, 4)
    assert len(m.wrong) == 1 and not m.known


def test_output_that_changes_between_passes_is_wrong() -> None:
    outputs = iter(["x", "y"])
    q = workloads.Query("flaky", lambda: next(outputs), lambda out: None, lambda out: out)
    m = run.Measurement([q])
    m.run_pass()
    m.run_pass()
    assert m.failed == 1 and "differs from the first pass" in m.wrong[0]


def test_known_defect_counts_as_failed_but_not_wrong() -> None:
    def check(out):
        raise workloads.KnownDefect("documented gate defect")

    q = workloads.Query("gate", lambda: 1, check, lambda out: "1")
    m = run.Measurement([q])
    m.run_pass()
    m.run_pass()
    assert (m.attempted, m.failed) == (1, 1)
    assert not m.wrong and len(m.known) == 1


def test_rescale_uses_the_calibrations_near_each_query() -> None:
    nominal, e = run.CAL_NOMINAL_S, run.CAL_ELASTICITY
    # A machine twice as slow for the calibration is taken as 2 ** e as slow for the queries.
    assert run.rescale([0.2, 0.4], [2 * nominal, 2 * nominal]) == pytest.approx([0.2 / 2**e, 0.4 / 2**e])
    far = run.CAL_NEIGHBOURS + 1
    scaled = run.rescale([1.0] * (2 * far), [nominal] * far + [4 * nominal] * far)
    assert scaled[0] == pytest.approx(1.0) and scaled[-1] == pytest.approx(1 / 4**e)
    # One calibration slowed tenfold by an interrupt is left out.
    assert run.rescale([1.0] * 3, [nominal, 10 * nominal, nominal]) == pytest.approx([1.0] * 3)
    assert run.calibrate() > 0.0


def test_ledger_oracle_matches_the_library_where_the_library_applies() -> None:
    sched = {"r": {"kind": "constant", "value": 2},
             "s": {"kind": "affine", "a": 1, "c": 3},
             "b": {"kind": "constant", "value": 0}}
    spec = ScheduleSpec(FunctionSpec.constant(2), FunctionSpec.affine(1, 3), FunctionSpec.constant(0))
    inst = GameInstance(spec, horizon_cap=300)
    for d in (1, 7, 40):
        lib = survival_probability(inst, d, 300, mode="exact_strategy").value
        assert oracle.survival_exact(sched, d, 300) == lib
    tele = {"r": {"kind": "constant", "value": 1}, "s": {"kind": "constant", "value": 2},
            "b": {"kind": "constant", "value": 0}}
    assert oracle.survival_exact(tele, 5, 99) == Fraction(5, 100)


def test_mc_check_accepts_zero_survivors_and_rejects_gross_errors() -> None:
    # n p0 = 0.25: zero survivors is the likeliest outcome and must pass.
    assert oracle.mc_agrees(0.0, 1 / 4001, 1000, 1e-6)
    assert oracle.mc_agrees(0.5, 0.5, 1000, 1e-6)
    assert not oracle.mc_agrees(0.6, 0.5, 1000, 1e-6)
    assert not oracle.mc_agrees(0.0, 0.01, 10000, 1e-6)
    assert oracle.mc_agrees(1.0, 1.0, 50, 1e-6) and not oracle.mc_agrees(0.98, 1.0, 50, 1e-6)


def test_compare_verdicts() -> None:
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [x * 0.8 for x in parent]
    assert compare.verdict(parent, faster, 0.1, True)[0] == "improved"
    assert compare.verdict(parent, parent[::-1], 0.1, True)[0] == "no worse"
    assert compare.verdict(parent, [x * 1.3 for x in parent], 0.1, True)[0] == "worse"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert compare.verdict(noisy, noisy[::-1], 0.1, True)[0] == "unresolved"
    # A noisy parent does not hide a regression beyond the bound.
    assert compare.verdict(noisy, [x * 1.5 for x in noisy], 0.1, True)[0] == "worse"


def test_tracing_restores_every_patched_name(tmp_path) -> None:
    from robinhood import cli, engine, rng, schedule

    before = (cli.dispatch, engine.select_removals, rng.CounterRNG.below, schedule.GameInstance)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        batch = workloads.build_simulate(2, str(tmp_path))
        q = _query(batch, "simulate oldest-rnd tags=1 ")
        q.check(q.run())
    finally:
        tracing.uninstall(patches)
    assert (cli.dispatch, engine.select_removals, rng.CounterRNG.below, schedule.GameInstance) == before
    metrics = tracer.layer_metrics(1)
    assert metrics["engine.nights"] > 0 and metrics["cli.dispatch_s"] >= metrics["engine.run_trace_s"]
    assert metrics["analysis.classify_s"] == 0.0
