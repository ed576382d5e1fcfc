"""Command-line front end.

Subcommands: ``validate``, ``classify``, ``survival``, ``simulate``,
``construct``, ``compare``. Results are canonical JSON (sorted keys, no
insignificant whitespace) on stdout; ``validate --csv`` swaps in a flat
per-index table for offline plotting. Exit codes: 0 success, 1 validation
error (malformed input, invalid schedule, statistical gate failure), 2
resource or verification failure (digit budget, certificate mismatch).

Environment: ``RH_DIGIT_BUDGET`` overrides the big-integer digit guard and
``RH_SEED`` the default seed; explicit flags beat both. The built-in
default seed is 0xC0FFEE so runs are reproducible without any flags.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from contextlib import closing, nullcontext
from fractions import Fraction
from typing import Any

from .analysis import (
    MODE_EXACT,
    MODE_PAPER,
    SPACE_LOG,
    SPACE_RATIONAL,
    RunningSum,
    classify,
    fraction_str,
    survival_probability,
)
from .construct import separating_instance, verify_separation, write_instance_files
from .engine import StrategyKind, as_strategy, empirical_survival, run_trace
from .errors import (
    DEFAULT_DIGIT_BUDGET,
    LimitExceeded,
    RobinHoodError,
    SpecInvalid,
    ValidityViolated,
    VerificationFailed,
)
from .schedule import (
    DEFAULT_HORIZON_CAP,
    FunctionSpec,
    GameInstance,
    canonical_dumps,
    decimal_str,
    load_schedule,
    parse_decimal,
    parse_function,
    read_json,
)

#: Fixed default seed (overridable via --seed or RH_SEED), not time-based.
DEFAULT_SEED = 0xC0FFEE


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message: str):  # noqa: D102 - argparse contract
        raise SpecInvalid(f"argument error: {message}")


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw, 0)
    except ValueError:
        raise SpecInvalid(f"environment variable {name} is not an integer: {raw!r}") from None


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = _env_int("RH_SEED")
    return env if env is not None else DEFAULT_SEED


def _resolve_budget(args: argparse.Namespace) -> int:
    if getattr(args, "digit_budget", None) is not None:
        return args.digit_budget
    env = _env_int("RH_DIGIT_BUDGET")
    return env if env is not None else DEFAULT_DIGIT_BUDGET


def _emit(obj: Any) -> None:
    sys.stdout.write(canonical_dumps(obj) + "\n")


def _load_instance(args: argparse.Namespace, horizon_cap: int | None = None) -> GameInstance:
    """Load the schedule, materialized at least through ``--horizon`` when given."""
    spec = load_schedule(args.schedule)
    if horizon_cap is None:
        horizon_cap = max(DEFAULT_HORIZON_CAP, getattr(args, "horizon", None) or 0)
    return GameInstance(spec, horizon_cap=horizon_cap, digit_budget=_resolve_budget(args))


def _default_horizon(args: argparse.Namespace, instance: GameInstance) -> int:
    if args.horizon is not None:
        return args.horizon
    if instance.horizon_cap < 1:
        raise SpecInvalid("schedule has no playable index at all")
    return min(1000, instance.horizon_cap)


def _write_index_csv(instance: GameInstance, horizon: int) -> None:
    """Per-index table: i, r, s, b, L, Ltilde, term, partial_sum; ``validate``
    has checked 1 <= horizon <= horizon_cap."""
    end = instance.valid_end(horizon)
    writer = csv.writer(sys.stdout)
    writer.writerow(["i", "r", "s", "b", "L", "Ltilde", "term", "partial_sum"])
    partial_sum = RunningSum()
    for i in range(1, end + 1):
        r, s, b = instance.evaluate(i)
        level = instance.cave_level(i)
        ltilde = instance.very_old_level(i)
        if ltilde > 0:
            term = Fraction(r, ltilde)
            partial_sum.add(float(term))
            term_text = fraction_str(term)
        else:
            term_text = ""
        writer.writerow(
            [
                i,
                decimal_str(r),
                decimal_str(s),
                b,
                decimal_str(level),
                decimal_str(ltilde),
                term_text,
                repr(partial_sum.value),
            ]
        )


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    horizon = _default_horizon(args, instance)
    report = instance.check_restrictions(horizon)
    if args.csv:
        _write_index_csv(instance, horizon)
    else:
        _emit(report.as_dict())
    return 0 if report.validity_ok else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    horizon = _default_horizon(args, instance)
    _emit(classify(instance, horizon).as_dict())
    return 0


def _cmd_survival(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    mode = {"paper": MODE_PAPER, "exact": MODE_EXACT}[args.mode]
    space = {"rational": SPACE_RATIONAL, "log": SPACE_LOG}[args.space]
    result = survival_probability(instance, args.day, args.horizon, mode=mode, space=space)
    _emit(result.as_dict())
    return 0


class _FileOnFirstWrite:
    """A text file that is opened (and truncated) only when first written to."""

    def __init__(self, path: str) -> None:
        self.path, self.fh = path, None

    def write(self, text: str) -> None:
        self.fh = self.fh or open(self.path, "w", encoding="utf-8")
        self.fh.write(text)

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    instance = _load_instance(args, horizon_cap=args.nights)
    strategy = as_strategy(args.strategy)
    tag_days = args.tag_day or []

    if args.trials is not None:
        if len(tag_days) != 1:
            raise SpecInvalid("--trials needs exactly one --tag-day to estimate")
        estimate, stderr, trials = empirical_survival(
            instance, tag_days[0], args.nights, args.trials, seed, strategy=strategy
        )
        _emit(
            {
                "day": tag_days[0],
                "nights": args.nights,
                "trials": trials,
                "seed": seed,
                "strategy": strategy.value,
                "estimate": estimate,
                "stderr": stderr,
            }
        )
        return 0

    # run_trace raises every input error before its first line, so a failed
    # run leaves no file behind.
    with closing(_FileOnFirstWrite(args.out)) if args.out else nullcontext(sys.stdout) as out:
        trace = run_trace(
            instance,
            strategy,
            args.nights,
            seed,
            tagged_days=tag_days,
            sink=out.write,
        )
    if args.out:
        _emit({"out": args.out, "nights": args.nights, "seed": seed, "digest": trace.digest})
    return 0


def _parse_memory_spec(text: str) -> FunctionSpec:
    if text.startswith("constant:"):
        tail = text[len("constant:") :]
        try:
            value = parse_decimal(tail)
        except ValueError:
            raise SpecInvalid(f"--memory-b constant:N needs N in -?[0-9]+, got {tail[:40]!r}") from None
        if value < 0:
            raise SpecInvalid(f"--memory-b constant must be nonnegative, got {tail[:40]!r}")
        return FunctionSpec.constant(value)
    return parse_function(read_json(text, "memory spec"), "memory-b")


def _cmd_construct(args: argparse.Namespace) -> int:
    budget = _resolve_budget(args)
    b_spec = _parse_memory_spec(args.memory_b)
    instance = separating_instance(b_spec, args.steps, digit_budget=budget)
    report = verify_separation(instance, digit_budget=budget)
    text = functools.cache(decimal_str)  # the files already convert the last r
    paths = write_instance_files(instance, args.out, text)
    _emit(
        {
            "files": paths,
            "steps": instance.steps,
            "last_removal_digits": len(text(instance.r_table[-1])),
            "verification": report,
        }
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    instance = _load_instance(args, horizon_cap=args.nights)
    space = SPACE_RATIONAL if args.nights <= 2000 else SPACE_LOG
    analytic = survival_probability(instance, args.day, args.nights, mode=MODE_EXACT, space=space)
    analytic_value = float(analytic.value)
    estimate, stderr, trials = empirical_survival(
        instance, args.day, args.nights, args.trials, seed
    )
    if stderr > 0.0:
        z = (estimate - analytic_value) / stderr
    else:
        z = 0.0 if estimate == analytic_value else math.inf
    _emit(
        {
            "day": args.day,
            "nights": args.nights,
            "trials": trials,
            "seed": seed,
            "analytic": analytic_value,
            "analytic_exact": fraction_str(analytic.value) if space == SPACE_RATIONAL else None,
            "empirical": estimate,
            "stderr": stderr,
            "z": z if math.isfinite(z) else repr(z),
            "max_z": args.max_z,
        }
    )
    return 0 if math.isfinite(z) and abs(z) < args.max_z else 1


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="robinhood", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p: _Parser) -> None:
        p.add_argument("--digit-budget", type=int, default=None, help="big-integer digit guard")

    p = sub.add_parser("validate", help="restriction report for a schedule")
    p.add_argument("schedule")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--csv", action="store_true", help="per-index table instead of JSON")
    add_budget(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="winner classification with certificate")
    p.add_argument("schedule")
    p.add_argument("--horizon", type=int, default=None)
    add_budget(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survival", help="survival probability of a day-d bag")
    p.add_argument("schedule")
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--mode", choices=["paper", "exact"], default="paper")
    p.add_argument("--space", choices=["rational", "log"], default="rational")
    add_budget(p)
    p.set_defaults(func=_cmd_survival)

    p = sub.add_parser("simulate", help="trace one run or estimate survival")
    p.add_argument("schedule")
    p.add_argument("--nights", type=int, required=True)
    p.add_argument("--strategy", choices=[s.value for s in StrategyKind], default=StrategyKind.OLDEST_RND.value)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tag-day", type=int, action="append", help="tag the first bag of this day")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (estimate mode)")
    p.add_argument("--out", default=None, help="write the trace JSONL here")
    add_budget(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("construct", help="generate a separating instance")
    p.add_argument("--memory-b", required=True, metavar="SPEC", help="constant:n or a function-spec JSON file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("-o", "--out", required=True, help="output stem; writes .b.json/.c.json/.cert.json")
    add_budget(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("compare", help="analytic vs empirical survival")
    p.add_argument("schedule")
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--nights", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-z", type=float, default=4.0, help="gate: nonzero exit at |z| >= this")
    add_budget(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run the subcommand, mapping errors to exit codes."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (LimitExceeded, VerificationFailed, ValidityViolated) as exc:
        sys.stderr.write(canonical_dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except RobinHoodError as exc:
        sys.stderr.write(canonical_dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
