"""Seeded inputs, query batches and output checks for the four workloads.

A workload turns ``--seed`` into a fixed batch of queries. Sizes come from
fixed strata with a few percent of seeded jitter, and the seed draws the
rest (schedule constants, days, tag positions, program seeds, file names,
query order), so every seed gives different inputs at nearly the same cost.
A query is one library call or one ``cli.dispatch`` call; the program sees
only the generated specs, files and argument values.

Each query has a ``check`` that raises ``CheckFailed`` on a wrong output,
or ``KnownDefect`` when the output is right but the program still reported
a failure for a reason documented in README.md, and a ``digest`` that
renders the deterministic part of the output (file contents, stdout with
temporary paths replaced) for the run's output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from robinhood import analysis, cli, engine, schedule

import oracle

#: False-failure rate of each Monte Carlo check (see oracle.mc_agrees).
MC_ALPHA = 1e-6

#: Criterion 8 of the package's acceptance tests pins this trace digest.
CRITERION8_DIGEST = "8551b137074d9ae0da2b1f20a921bb443e73839597c936d02ab4b5bf71d141e8"


class CheckFailed(Exception):
    """An output is wrong."""


class KnownDefect(Exception):
    """A failure traced to a defect named in README.md; the output itself is right."""


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def dispatch(argv: list[str]) -> CliResult:
    """One CLI call in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@contextlib.contextmanager
def _no_digit_cap():
    """Lift the int/str digit cap for the checks' own conversions only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _fraction_text(value: Fraction) -> str:
    with _no_digit_cap():
        return f"{value.numerator}/{value.denominator}"


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _jitter(rnd: random.Random, size: int, spread: float = 0.03) -> int:
    return max(1, round(size * rnd.uniform(1.0 - spread, 1.0 + spread)))


def _write_json(path: str, obj: Any) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _const(v: int) -> dict[str, Any]:
    return {"kind": "constant", "value": v}


def _cli_json(res: CliResult) -> Any:
    if res.code != 0:
        raise CheckFailed(f"exit code {res.code}: {res.err.strip()[:200]}")
    try:
        return json.loads(res.out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None


def _cli_digest(res: CliResult, workdir: str) -> str:
    return f"{res.code}|{res.out.replace(workdir, '<tmp>')}"


def _sha_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------- analyze

# Horizon slots per family, and the survival horizons used on them. Log-space
# survival costs O(N^2) at this commit, so its horizons stay at or below 1e4;
# the 1e5 slots time materialization and the linear scans.
_ANALYZE_HORIZONS = {
    "telescoping": (1_000, 10_000, 100_000, 3_000),
    "thm21": (1_000, 5_000, 20_000, 2_000),
    "prop11": (1_000, 10_000, 100_000, 3_000),
    "undetermined": (1_000, 5_000, 30_000, 2_000),
}
_SURVIVAL_N = 2_500
_TELESCOPING_RATIONAL_N = (1_000, 5_000, 10_000, 3_000)
_TELESCOPING_LOG_N = (1_000, 2_000, 3_000, 1_500)

_EXPECTED_VERDICT = {
    "telescoping": (analysis.KIND_ROBIN_AS, "Thm2.1"),
    "thm21": (analysis.KIND_ROBIN_AS, "Thm2.1"),
    "prop11": (analysis.KIND_ROBIN_SURELY, "Prop1.1"),
    "undetermined": (analysis.KIND_UNDETERMINED, "none"),
}


# (r0, s0) tail constants per horizon slot: the size of the rationals in a
# survival product, and so its cost and memory, depends on them.
_ANALYZE_CONSTANTS = ((1, 3), (2, 3), (2, 5), (3, 4))


def _analyze_schedule(rnd: random.Random, family: str, slot: int) -> dict[str, Any]:
    if family == "telescoping":
        return {"r": _const(1), "s": _const(2), "b": _const(0)}
    r0, s0 = _ANALYZE_CONSTANTS[slot]
    if family == "thm21":
        m = rnd.randint(5, 50)
        s_vals = [rnd.randint(2, 9) for _ in range(m)]
        r_vals = [rnd.randint(1, s - 1) for s in s_vals]
        zeros = [0] * rnd.randint(1, 10)
        return {
            "r": {"kind": "table", "values": r_vals, "tail": _const(r0)},
            "s": {"kind": "table", "values": s_vals, "tail": _const(s0)},
            "b": {"kind": "table", "values": zeros, "tail": _const(0)},
        }
    if family == "prop11":
        k = rnd.randint(1, 20)
        b = {"kind": "table", "values": [0] * k, "tail": {"kind": "affine", "a": 1, "c": -k}}
        return {"r": _const(r0), "s": _const(s0), "b": b}
    s = {"kind": "affine", "a": slot + 1, "c": r0 + rnd.randint(0, 3)}
    # The middle slot keeps some memory, so early pools are empty and
    # survival is outside every mode's contract there.
    b0 = rnd.randint(1, 3) if slot == 1 else 0
    return {"r": _const(r0), "s": s, "b": _const(b0)}


def _survival_eligible(sched: dict[str, Any], family: str) -> bool:
    # With memory 0 the very-old pool holds the whole cave plus the new
    # batch, so it strictly covers r(i) < s(i) from night 1 and both modes'
    # preconditions hold. Memory >= 1 leaves night 1's pool empty.
    return family in ("telescoping", "thm21") or (family == "undetermined" and sched["b"] == _const(0))


def build_analyze(seed: int, workdir: str) -> list[Query]:
    rnd = random.Random(f"analyze:{seed}")
    queries: list[Query] = []
    slots = [(f, k) for f in _EXPECTED_VERDICT for k in range(len(_ANALYZE_CONSTANTS))]
    rnd.shuffle(slots)
    for family, slot in slots:
        sched = _analyze_schedule(rnd, family, slot)
        horizon = _jitter(rnd, _ANALYZE_HORIZONS[family][slot], 0.01)
        queries.extend(_analyze_queries(rnd, workdir, family, slot, sched, horizon))
    return queries


def _analyze_queries(
    rnd: random.Random, workdir: str, family: str, slot: int, sched: dict[str, Any], horizon: int
) -> list[Query]:
    spec = schedule.parse_schedule(sched)
    held: dict[str, Any] = {}
    eligible = _survival_eligible(sched, family)
    telescoping = family == "telescoping"
    tag = f"{family}[{horizon}]"

    def materialize():
        held["inst"] = schedule.GameInstance(spec, horizon_cap=horizon)
        return held["inst"]

    def check_materialize(inst):
        _require(inst.horizon_cap == horizon, f"{tag}: horizon_cap {inst.horizon_cap}")
        _require(inst.first_invalid_index is None, f"{tag}: schedule reported invalid")

    out = [
        Query(f"GameInstance {tag}", materialize, check_materialize,
              lambda inst: f"{inst.horizon_cap}|{inst.cave_level(inst.horizon_cap)}"),
    ]

    def check_restrictions(rep):
        _require(rep.horizon == horizon and rep.validity_ok and rep.restriction1_ok,
                 f"{tag}: restriction report {rep.as_dict()}")
        if eligible:
            _require(rep.restriction2_last_violation is None,
                     f"{tag}: pool fails to cover the quota at {rep.restriction2_last_violation}")

    out.append(Query(f"check_restrictions {tag}",
                     lambda: held["inst"].check_restrictions(horizon), check_restrictions,
                     lambda rep: json.dumps(rep.as_dict(), sort_keys=True)))

    def check_classify(verdict):
        _require((verdict.kind, verdict.rule) == _EXPECTED_VERDICT[family],
                 f"{tag}: verdict ({verdict.kind}, {verdict.rule})")
        _require((verdict.diagnostics is not None) == (family == "undetermined"),
                 f"{tag}: diagnostics presence")

    out.append(Query(f"classify {tag}", lambda: analysis.classify(held["inst"], horizon),
                     check_classify, lambda v: json.dumps(v.as_dict(), sort_keys=True)))

    def check_diagnostics(diag):
        _require(diag.horizon == horizon, f"{tag}: diagnostics horizon {diag.horizon}")
        if eligible:
            _require(diag.first_undefined_index is None, f"{tag}: undefined term")
        if telescoping:
            expected = math.fsum(1.0 / (i + 1) for i in range(1, horizon + 1))
            _require(_rel_close(diag.partial_sum, expected, 1e-12),
                     f"{tag}: partial sum {diag.partial_sum} != {expected}")

    out.append(Query(f"series_diagnostics {tag}",
                     lambda: analysis.series_diagnostics(held["inst"], horizon),
                     check_diagnostics, lambda d: json.dumps(d.as_dict(), sort_keys=True)))

    if not eligible:
        return out

    if telescoping:
        n_of = {"rational": min(horizon, _TELESCOPING_RATIONAL_N[slot]),
                "log": min(horizon, _TELESCOPING_LOG_N[slot])}
    else:
        n = min(horizon, _jitter(rnd, _SURVIVAL_N, 0.01))
        n_of = {"rational": n, "log": n}
    # Early days keep the number of factors, and so the cost, near N: the
    # tail latency is read among survival and diagnostics queries of
    # neighbouring sizes, so their sizes vary little from seed to seed.
    d = rnd.randint(1, max(1, n_of["log"] // 100))
    for space in ("rational", "log"):
        for mode in (analysis.MODE_PAPER, analysis.MODE_EXACT):
            out.append(_survival_query(sched, held, tag, d, n_of[space], mode, space, telescoping))

    if slot == 0:
        out.extend(_analyze_cli_queries(rnd, workdir, family, sched, tag, d, eligible))
    return out


def _survival_query(sched, held, tag, d, n, mode, space, telescoping) -> Query:
    def run():
        return analysis.survival_curve(held["inst"], d, n, mode=mode, space=space)

    def check(curve):
        _require(len(curve) == n - d + 2 and curve[-1].horizon == n,
                 f"{tag}: survival curve has {len(curve)} points")
        last = curve[-1]
        if telescoping:
            expected = Fraction(d, n + 1)
        else:
            # Memory 0: paper and exact modes are the same product.
            key = ("oracle", d, n)
            if key not in held:
                held[key] = oracle.survival_exact(sched, d, n)
            expected = held[key]
        if space == "rational":
            _require(last.value == expected,
                     f"{tag}: {mode} rational survival d={d} N={n} differs from the reference")
        else:
            _require(_rel_close(last.value, float(expected), 1e-9),
                     f"{tag}: {mode} log survival {last.value} vs {float(expected)}")

    def digest(curve):
        last = curve[-1]
        value = _fraction_text(last.value) if space == "rational" else repr(last.value)
        return f"{mode}|{space}|{d}|{n}|{len(curve)}|{value}|{last.log_value!r}"

    return Query(f"survival_curve {mode}/{space} {tag} d={d} N={n}", run, check, digest)


def _analyze_cli_queries(rnd, workdir, family, sched, tag, d, eligible) -> list[Query]:
    path = _write_json(os.path.join(workdir, f"analyze-{family}-{rnd.getrandbits(32):08x}.json"), sched)
    out: list[Query] = []

    def check_csv(res: CliResult):
        _require(res.code == 0, f"{tag}: validate --csv exit {res.code}")
        rows = [line.split(",") for line in res.out.splitlines()]
        _require(rows[0] == ["i", "r", "s", "b", "L", "Ltilde", "term", "partial_sum"],
                 f"{tag}: csv header {rows[0]}")
        _require(len(rows) == 1001, f"{tag}: csv has {len(rows) - 1} rows at the default horizon")
        sums = [float(row[7]) for row in rows[1:]]
        _require(all(a <= b for a, b in zip(sums, sums[1:])), f"{tag}: partial sums decrease")
        if family == "telescoping":
            expected = math.fsum(1.0 / (i + 1) for i in range(1, 1001))
            _require(_rel_close(sums[-1], expected, 1e-12), f"{tag}: csv partial sum {sums[-1]}")

    out.append(Query(f"cli validate --csv {tag}", lambda: dispatch(["validate", "--csv", path]),
                     check_csv, lambda res: _cli_digest(res, workdir)))

    def check_classify(res: CliResult):
        obj = _cli_json(res)
        _require((obj["kind"], obj["rule"]) == _EXPECTED_VERDICT[family],
                 f"{tag}: cli classify ({obj['kind']}, {obj['rule']})")

    out.append(Query(f"cli classify {tag}", lambda: dispatch(["classify", path]),
                     check_classify, lambda res: _cli_digest(res, workdir)))

    if eligible:
        argv = ["survival", path, "--day", str(d), "--horizon", "1000", "--mode", "exact"]

        def check_survival(res: CliResult):
            obj = _cli_json(res)
            expected = oracle.survival_exact(sched, d, 1000)
            _require(obj["value"] == _fraction_text(expected),
                     f"{tag}: cli survival d={d} differs from the reference")

        out.append(Query(f"cli survival {tag} d={d}", lambda: dispatch(argv),
                         check_survival, lambda res: _cli_digest(res, workdir)))
    return out


# ---------------------------------------------------------------- simulate

# (strategy, tag counts, nights) grids for simulate --out. The randomized
# strategy's cost grows with the square of the tags in the very-old pool,
# so its tag counts stay lower. Many small queries and a few large ones keep
# a pass at a few seconds with more than 100 queries, so the tail latency is
# read at p90 or above.
_SIM_GRID = (
    ("oldest-rnd", (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 19, 24, 30, 38, 48, 60, 76, 96, 120, 150), (200, 400, 800)),
    ("oldest-det", (1, 2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 135, 200, 300, 450, 675, 1000), (200, 400, 800)),
)
# Long runs with few tags: (strategy, tags, nights).
_SIM_LONG = (("oldest-rnd", 2, 4000), ("oldest-det", 20, 3000))
# (strategy, distinct tags on the one large day, nights): 100-200 tags in a
# ~2000-bag batch. The CLI's --tag-day tags only the first bag of a day, so
# these are engine.run_trace library calls with distinct (day, position) tags.
_SIM_BIG_BATCH = (("oldest-rnd", 110, 400), ("oldest-rnd", 160, 400),
                  ("oldest-det", 120, 1500), ("oldest-det", 200, 1500))
# (r, s, b) constants, assigned to the rows above in turn: how long tags
# stay in the pool, and so the cost, depends on them.
_SIM_CONSTANTS = ((1, 2, 0), (1, 3, 1), (2, 3, 0), (2, 4, 2), (3, 5, 1), (1, 4, 2), (2, 5, 0))


def _sim_schedule(constants: tuple[int, int, int], big_day: int | None = None, big: int = 0) -> dict[str, Any]:
    r0, s0, b0 = constants
    s: dict[str, Any] = _const(s0)
    if big_day is not None:
        s = {"kind": "table", "values": [s0] * (big_day - 1) + [big], "tail": _const(s0)}
    return {"r": _const(r0), "s": s, "b": _const(b0)}


def _check_trace_text(data: bytes, digest: str, sched: dict[str, Any], nights: int,
                      strategy: str, seed: int, tags: list[list[Any]], tag: str) -> None:
    """The JSONL trace re-hashes to ``digest`` and replays the schedule's cave counts."""
    body, sep, last = data.rstrip(b"\n").rpartition(b"\n")
    _require(bool(sep), f"{tag}: trace file has one line")
    _require(json.loads(last) == {"digest": digest}, f"{tag}: last line is not the digest")
    _require(hashlib.sha256(body + b"\n").hexdigest() == digest, f"{tag}: file does not re-hash to its digest")
    lines = body.split(b"\n")
    header = json.loads(lines[0])
    _require((header["format"], header["seed"], header["strategy"], header["nights"], header["tags"])
             == ("rh-trace-v1", seed, strategy, nights, sorted(tags)), f"{tag}: header {header}")
    _require(len(lines) == nights + 1, f"{tag}: {len(lines) - 1} records for {nights} nights")
    tagged = {(day, pos) for day, pos in tags}
    cave = 0
    removed_ids: set[int] = set()
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        before = cave + oracle.value_at(sched["s"], i)
        taken = sum(int(count) for _, count in rec["removed_cells"])
        cave = before - oracle.value_at(sched["r"], i)
        _require(rec["i"] == i and int(rec["cave_before"]) == before and int(rec["cave_after"]) == cave
                 and taken == before - cave, f"{tag}: cave counts wrong at night {i}")
        for event in rec["tagged_events"]:
            _require(event["id"] not in removed_ids and event["night"] == i and event["day"] <= i
                     and (event["day"], event["pos"]) in tagged,
                     f"{tag}: tagged bag {event['id']} event at night {i}")
            removed_ids.add(event["id"])


def _simulate_query(workdir: str, idx: int, sched: dict[str, Any], strategy: str, nights: int,
                    tag_days: list[int], seed: int) -> Query:
    spec_path = _write_json(os.path.join(workdir, f"sim-{idx:03d}.json"), sched)
    out_path = os.path.join(workdir, f"sim-{idx:03d}.jsonl")
    argv = ["simulate", spec_path, "--nights", str(nights), "--strategy", strategy,
            "--seed", str(seed), "--out", out_path]
    for day in tag_days:
        argv += ["--tag-day", str(day)]
    tag = f"simulate {strategy} tags={len(tag_days)} nights={nights}"
    # --tag-day tags the first bag of the day.
    tags = [[day, "1"] for day in tag_days]

    def check(res: CliResult):
        obj = _cli_json(res)
        _require(obj["out"] == out_path and obj["nights"] == nights and obj["seed"] == seed,
                 f"{tag}: stdout {obj}")
        with open(out_path, "rb") as fh:
            _check_trace_text(fh.read(), obj["digest"], sched, nights, strategy, seed, tags, tag)

    def digest(res: CliResult):
        return f"{_cli_digest(res, workdir)}|{_sha_file(out_path)}"

    return Query(tag, lambda: dispatch(argv), check, digest)


def _big_batch_query(sched: dict[str, Any], strategy: str, nights: int, day: int, positions: list[int],
                     seed: int) -> Query:
    inst = schedule.GameInstance(schedule.parse_schedule(sched), horizon_cap=nights)
    tagged = [(day, pos) for pos in positions]
    tags = [[day, str(pos)] for pos in positions]
    tag = f"run_trace {strategy} tags={len(positions)} on day {day} nights={nights}"

    def run():
        return engine.run_trace(inst, strategy, nights, seed, tagged_days=tagged)

    def check(trace):
        _check_trace_text(trace.to_jsonl().encode("ascii"), trace.digest, sched, nights, strategy, seed,
                          tags, tag)

    return Query(tag, run, check, lambda trace: trace.digest)


def build_simulate(seed: int, workdir: str) -> list[Query]:
    rnd = random.Random(f"simulate:{seed}")
    rows = [(strategy, tags, nights) for strategy, grid_tags, grid_nights in _SIM_GRID
            for tags in grid_tags for nights in grid_nights] + list(_SIM_LONG)
    queries = []
    for k, (strategy, tags, nights) in enumerate(rows):
        nights = _jitter(rnd, nights)
        count = min(_jitter(rnd, tags, 0.05), nights)
        sched = _sim_schedule(_SIM_CONSTANTS[k % len(_SIM_CONSTANTS)])
        days = sorted(rnd.sample(range(1, nights + 1), count))
        queries.append(_simulate_query(workdir, k, sched, strategy, nights, days, rnd.randrange(2**32)))
    for k, (strategy, tags, nights) in enumerate(_SIM_BIG_BATCH):
        nights = _jitter(rnd, nights)
        day = rnd.randint(10, nights // 4)
        big = _jitter(rnd, 2000, 0.1)
        sched = _sim_schedule(_SIM_CONSTANTS[k], big_day=day, big=big)
        positions = sorted(rnd.sample(range(1, big + 1), _jitter(rnd, tags, 0.05)))
        queries.append(_big_batch_query(sched, strategy, nights, day, positions, rnd.randrange(2**32)))
    queries.append(_criterion8_query())
    rnd.shuffle(queries)
    return queries


def _criterion8_query() -> Query:
    spec = schedule.parse_schedule({"r": _const(1), "s": _const(2), "b": _const(0)})
    inst = schedule.GameInstance(spec, horizon_cap=200)

    def run():
        return engine.run_trace(inst, "oldest-rnd", nights=25, seed=2024, tagged_days=[(1, 1), (3, 2)])

    def check(trace):
        _require(trace.digest == CRITERION8_DIGEST, f"criterion 8 digest {trace.digest}")

    return Query("run_trace criterion 8", run, check, lambda trace: trace.digest)


# ---------------------------------------------------------------- montecarlo

# (nights, trials) for compare: many short runs, each on two schedule
# families (below), because the vectorized loop stops drawing once no trial
# is left alive, so the cost depends on the family; then a few long runs,
# past its 2000-night switch to log space, and one of 20000 trials.
_COMPARE_GRID = [(n, t) for n in (120, 250, 500, 800, 1200) for t in (1000, 2500, 6000)]
_COMPARE_LARGE = ((2100, 1000), (2600, 2000), (3200, 1000), (4000, 1000), (800, 20000))
# Memory-0 schedules, so the very-old pool covers the quota from night 1.
_POOL_COVERED = (
    {"r": _const(1), "s": _const(2), "b": _const(0)},
    {"r": _const(1), "s": _const(3), "b": _const(0)},
    {"r": _const(1), "s": {"kind": "affine", "a": 1, "c": 1}, "b": _const(0)},
    {"r": _const(2), "s": _const(5), "b": _const(0)},
    {"r": _const(2), "s": {"kind": "affine", "a": 2, "c": 2}, "b": _const(0)},
)
# (trials, nights) for simulate --trials on window-dip schedules (memory
# >= 1, below), which take the per-trial full-engine fallback.
_TRIALS_GRID = [(t, n) for t in (3, 6, 12, 18) for n in (30, 60, 100, 140)]
_WINDOW_DIP = ((1, 2, 1), (1, 3, 2), (2, 3, 1), (2, 4, 2), (3, 5, 1))


def _compare_query(workdir: str, idx: int, sched: dict[str, Any], d: int, nights: int,
                   trials: int, seed: int) -> Query:
    path = _write_json(os.path.join(workdir, f"mc-{idx:03d}.json"), sched)
    argv = ["compare", path, "--day", str(d), "--nights", str(nights), "--trials", str(trials),
            "--seed", str(seed)]
    tag = f"compare d={d} nights={nights} trials={trials}"

    def check(res: CliResult):
        _require(res.code in (0, 1), f"{tag}: exit code {res.code}: {res.err.strip()[:200]}")
        obj = json.loads(res.out)
        _require((obj["day"], obj["nights"], obj["trials"], obj["seed"]) == (d, nights, trials, seed),
                 f"{tag}: echoed arguments {obj}")
        if nights <= 2000:
            exact = oracle.survival_exact(sched, d, nights)
            _require(obj["analytic_exact"] == _fraction_text(exact), f"{tag}: exact analytic value")
            p0 = float(exact)
        else:
            p0 = oracle.survival_float(sched, d, nights)
            _require(obj["analytic_exact"] is None, f"{tag}: log space reported an exact value")
        _require(_rel_close(obj["analytic"], p0, 1e-9), f"{tag}: analytic {obj['analytic']} vs {p0}")
        _require(oracle.mc_agrees(obj["empirical"], p0, trials, MC_ALPHA),
                 f"{tag}: estimate {obj['empirical']} vs exact {p0}")
        if res.code == 1:
            raise KnownDefect(f"{tag}: compare gate rejected a consistent estimate "
                              f"({obj['empirical']} vs {p0}, z={obj['z']})")

    return Query(tag, lambda: dispatch(argv), check, lambda res: _cli_digest(res, workdir))


def _trials_query(workdir: str, idx: int, sched: dict[str, Any], d: int, nights: int,
                  trials: int, seed: int) -> Query:
    path = _write_json(os.path.join(workdir, f"mct-{idx:03d}.json"), sched)
    argv = ["simulate", path, "--nights", str(nights), "--trials", str(trials), "--tag-day", str(d),
            "--seed", str(seed)]
    tag = f"simulate --trials d={d} nights={nights} trials={trials}"

    def check(res: CliResult):
        obj = _cli_json(res)
        _require((obj["day"], obj["nights"], obj["trials"], obj["seed"]) == (d, nights, trials, seed),
                 f"{tag}: echoed arguments {obj}")
        est = obj["estimate"]
        _require(abs(est * trials - round(est * trials)) < 1e-6, f"{tag}: estimate {est} is not k/n")
        _require(_rel_close(obj["stderr"], math.sqrt(est * (1 - est) / trials), 1e-12),
                 f"{tag}: stderr {obj['stderr']}")
        p0 = float(oracle.survival_exact(sched, d, nights))
        _require(oracle.mc_agrees(est, p0, trials, MC_ALPHA), f"{tag}: estimate {est} vs exact {p0}")

    return Query(tag, lambda: dispatch(argv), check, lambda res: _cli_digest(res, workdir))


def build_montecarlo(seed: int, workdir: str) -> list[Query]:
    rnd = random.Random(f"montecarlo:{seed}")
    rows = [(n, t, (k + shift) % len(_POOL_COVERED)) for shift in (0, 2) for k, (n, t) in enumerate(_COMPARE_GRID)]
    rows += [(n, t, k) for k, (n, t) in enumerate(_COMPARE_LARGE)]
    queries = []
    for idx, (nights, trials, family) in enumerate(rows):
        nights, trials = _jitter(rnd, nights), _jitter(rnd, trials)
        # Early days keep the vectorized loop over nights d..N near N long.
        d = rnd.randint(1, nights // 10)
        queries.append(_compare_query(workdir, idx, _POOL_COVERED[family], d, nights, trials,
                                      rnd.randrange(2**32)))
    for idx, (trials, nights) in enumerate(_TRIALS_GRID * 5):
        nights, trials = _jitter(rnd, nights), _jitter(rnd, trials)
        r0, s0, b0 = _WINDOW_DIP[idx % len(_WINDOW_DIP)]
        sched = {"r": _const(r0), "s": _const(s0), "b": _const(b0)}
        # The fallback's nights cost more while the tagged bag is still in
        # the cave, so early days keep that share, and the cost, steady.
        queries.append(_trials_query(workdir, idx, sched, rnd.randint(1, nights // 10), nights, trials,
                                     rnd.randrange(2**32)))
    rnd.shuffle(queries)
    return queries


# ---------------------------------------------------------------- separate

_SEPARATE_MEMORY = (0, 1, 2, 3)
_SEPARATE_STEPS = (8, 9, 10, 11, 12)


def _memory_arg(rnd: random.Random, workdir: str, k: int, name: str) -> str:
    """``constant:k``, or the same memory bound written as a spec file."""
    form = rnd.randrange(3)
    if form == 0:
        return f"constant:{k}"
    obj = _const(k) if form == 1 else {"kind": "table", "values": [k] * rnd.randint(1, 12), "tail": _const(k)}
    return _write_json(os.path.join(workdir, f"{name}.memory.json"), obj)


def _separate_queries(rnd: random.Random, workdir: str, k: int, steps: int) -> list[Query]:
    name = f"sep-{k}-{steps}-{rnd.getrandbits(32):08x}"
    memory = _memory_arg(rnd, workdir, k, name)
    stem = os.path.join(workdir, f"{name}.json")
    files = {role: os.path.join(workdir, f"{name}.{role}.json") for role in ("b", "c", "cert")}
    held: dict[str, Any] = {}
    tag = f"construct constant:{k} steps={steps}"

    def check_construct(res: CliResult):
        obj = _cli_json(res)
        _require(obj["steps"] == steps and obj["verification"]["ok"] is True, f"{tag}: {res.out[:200]}")
        _require(obj["files"] == {"b": files["b"], "c": files["c"], "certificate": files["cert"]},
                 f"{tag}: files {obj['files']}")
        held["verification"] = obj["verification"]

    def construct_digest(res: CliResult):
        return "|".join([_cli_digest(res, workdir)] + [_sha_file(files[r]) for r in ("b", "c", "cert")])

    out = [Query(tag, lambda: dispatch(["construct", "--memory-b", memory, "--steps", str(steps), "-o", stem]),
                 check_construct, construct_digest)]
    expected = {"b": (analysis.KIND_SHERIFF_AS, "Thm2.2"), "c": (analysis.KIND_ROBIN_SURELY, "Prop1.2")}
    for role in ("b", "c"):
        out.append(_separate_classify(workdir, files[role], expected[role], f"classify {role} of {tag}"))
        out.append(_separate_validate(workdir, files[role], role, held, f"validate {role} of {tag}"))

    def check_csv(res: CliResult):
        _require(res.code == 0, f"csv of {tag}: exit {res.code}")
        rows = [line.split(",", 1) for line in res.out.splitlines()]
        horizon = held["verification"]["playable_horizon"]
        _require(len(rows) == horizon + 1 and rows[0][0] == "i", f"csv of {tag}: {len(rows)} rows")

    if steps < max(_SEPARATE_STEPS):
        out.append(Query(f"validate --csv c of {tag}", lambda: dispatch(["validate", "--csv", files["c"]]),
                         check_csv, lambda res: _cli_digest(res, workdir)))
    return out


def _separate_classify(workdir: str, path: str, expected: tuple[str, str], tag: str) -> Query:
    def check(res: CliResult):
        obj = _cli_json(res)
        _require((obj["kind"], obj["rule"]) == expected, f"{tag}: ({obj['kind']}, {obj['rule']})")

    return Query(tag, lambda: dispatch(["classify", path]), check, lambda res: _cli_digest(res, workdir))


def _separate_validate(workdir: str, path: str, role: str, held: dict[str, Any], tag: str) -> Query:
    def check(res: CliResult):
        obj = _cli_json(res)
        ver = held["verification"]
        horizon = ver["playable_horizon"]
        _require(obj["validity_ok"] and obj["restriction1_ok"] and obj["horizon"] == horizon,
                 f"{tag}: {obj}")
        if role == "c":
            # The pool never exceeds the quota under c.
            expected_last = horizon
        else:
            prefix = [i for i in ver["restriction2_violation_prefix_under_b"] if i <= horizon]
            expected_last = prefix[-1] if prefix else None
        _require(obj["restriction2_last_violation"] == expected_last,
                 f"{tag}: restriction 2 last violation {obj['restriction2_last_violation']}")

    return Query(tag, lambda: dispatch(["validate", path]), check, lambda res: _cli_digest(res, workdir))


def build_separate(seed: int, workdir: str) -> list[Query]:
    rnd = random.Random(f"separate:{seed}")
    grid = [(k, steps) for k in _SEPARATE_MEMORY for steps in _SEPARATE_STEPS]
    rnd.shuffle(grid)
    queries: list[Query] = []
    for k, steps in grid:
        queries.extend(_separate_queries(rnd, workdir, k, steps))
    return queries


BATCHES: dict[str, Callable[[int, str], list[Query]]] = {
    "analyze": build_analyze,
    "simulate": build_simulate,
    "montecarlo": build_montecarlo,
    "separate": build_separate,
}
