"""Spans and counters recorded from outside the package, for the traced run.

Every wrapper is installed on the name its caller actually resolves: ``cli``
imported ``run_trace`` into its own namespace, while ``run_trace`` reaches
``select_removals`` as an ``engine`` module global, so each of those names
is patched separately. ``install`` returns the original objects and
``uninstall`` puts them back, so untraced passes run the package unchanged.

A span records its name, start, end, parent span and query id. Calls made
once per simulated night are rolled up instead: one record per (nearest
full-span ancestor, name) with a call count and summed times, which keeps a
5000-night trace from producing 20000 span records. Self time is a span's
duration minus the durations of its direct children. The hottest scalar
calls (``CounterRNG.next64``, ``bits`` and ``below``) are only counted.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

from robinhood import analysis, cli, construct, engine, rng, schedule

# Metrics summed from counters, per pass.
_COUNT_METRICS = (
    "schedule.materialize_indices",
    "schedule.load_bytes",
    "schedule.dumps_bytes",
    "analysis.survival_factors",
    "engine.nights",
    "engine.hypergeom_calls",
    "engine.hypergeom_tags",
    "engine.trace_bytes",
    "engine.mc_trials",
    "engine.mc_fallback_traces",
    "rng.below_calls",
    "rng.words",
    "rng.vec_words",
    "construct.bytes_written",
    "cli.stdout_bytes",
    "cli.nonzero_exits",
)

# Span name -> metric holding its summed inclusive time.
_SPAN_TIME_METRICS = {
    "schedule.materialize": "schedule.materialize_s",
    "schedule.restrictions": "schedule.restrictions_s",
    "schedule.load": "schedule.load_s",
    "schedule.dumps": "schedule.dumps_s",
    "analysis.survival_log": "analysis.survival_log_s",
    "analysis.survival_rational": "analysis.survival_rational_s",
    "analysis.classify": "analysis.classify_s",
    "analysis.diagnostics": "analysis.diagnostics_s",
    "engine.run_trace": "engine.run_trace_s",
    "engine.step_day": "engine.step_day_s",
    "engine.select": "engine.select_s",
    "engine.apply": "engine.apply_s",
    "engine.hypergeom": "engine.hypergeom_s",
    "engine.to_jsonl": "engine.to_jsonl_s",
    "engine.mc": "engine.mc_s",
    "rng.vec": "rng.vec_s",
    "construct.build": "construct.build_s",
    "construct.verify": "construct.verify_s",
    "construct.write": "construct.write_s",
    "cli.dispatch": "cli.dispatch_s",
}


class Tracer:
    """In-memory spans, rollups and counters for one benchmark process."""

    def __init__(self) -> None:
        self.qid = 0
        self.spans: list[dict[str, Any]] = []
        self.rollups: dict[tuple[int, str], list[float]] = {}
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # Open frames: [span id, name, start, summed child time, anchor id].
        self._stack: list[list[Any]] = []
        self._next_id = 1

    def enter(self, name: str) -> list[Any]:
        anchor = 0
        if self._stack:
            top = self._stack[-1]
            anchor = top[0] if top[0] else top[4]
        frame = [0, name, perf_counter(), 0.0, anchor]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list[Any], rollup: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        _, name, start, child, anchor = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if rollup:
            agg = self.rollups.get((anchor, name))
            if agg is None:
                self.rollups[(anchor, name)] = [1, duration, duration - child, start, end]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
                agg[4] = end
        else:
            self.spans.append(
                {
                    "id": frame[0],
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": duration - child,
                    "parent": anchor,
                    "query": self.qid,
                }
            )

    def open_span(self, name: str) -> list[Any]:
        frame = self.enter(name)
        frame[0] = self._next_id
        self._next_id += 1
        return frame

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def write(self, path: str) -> None:
        """Write every span and rollup as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            for (anchor, name), (count, total, own, first, last) in self.rollups.items():
                rec = {
                    "rollup": name,
                    "parent": anchor,
                    "count": count,
                    "total_s": total,
                    "self_s": own,
                    "first_start": first,
                    "last_end": last,
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of every per-layer metric except the trace.* ones."""
        out: dict[str, float] = {}
        for span_name, metric in _SPAN_TIME_METRICS.items():
            out[metric] = self.total_s[span_name] / passes
        out["cli.self_s"] = self.self_s["cli.dispatch"] / passes
        c = self.counts
        for metric in _COUNT_METRICS:
            out[metric] = c[metric] / passes
        out["schedule.max_int_bits"] = float(c["schedule.max_int_bits"])
        fallback_nights = c["engine.mc_fallback_nights"]
        out["engine.mc_useful_night_frac"] = (
            c["engine.mc_useful_nights"] / fallback_nights if fallback_nights else 0.0
        )
        rounds = c["rng.below_rounds"]
        out["rng.below_accept_frac"] = c["rng.below_accepts"] / rounds if rounds else 0.0
        return out


def _spec_int_bits(spec: schedule.ScheduleSpec) -> int:
    bits = 0
    for fs in (spec.r_spec, spec.s_spec, spec.b_spec):
        while fs is not None:
            if fs.values:
                bits = max(bits, max(abs(v).bit_length() for v in fs.values))
            fs = fs.tail
    return bits


def _wrap(
    tracer: Tracer,
    name: str | Callable[..., str],
    fn: Callable[..., Any],
    after: Callable[[tuple, dict, Any], None] | None = None,
    rollup: bool = False,
) -> Callable[..., Any]:
    """A wrapper that records ``fn`` as a span (or a rollup) named ``name``."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_name = name(*args, **kwargs) if callable(name) else name
        frame = tracer.enter(span_name) if rollup else tracer.open_span(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, rollup)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


Patch = tuple[Any, str, Any]


def install(tracer: Tracer) -> list[Patch]:
    """Install every wrapper; returns what ``uninstall`` needs to undo it."""
    originals: list[Patch] = []
    try:
        _install(tracer, originals)
    except BaseException:
        uninstall(originals)
        raise
    return originals


def _install(tracer: Tracer, originals: list[Patch]) -> None:
    c = tracer.counts

    def patch(owners: tuple[Any, ...], attr: str, make: Callable[[Any], Any]) -> None:
        orig = getattr(owners[0], attr)
        wrapped = make(orig)
        for owner in owners:
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the object the tracer expects")
            originals.append((owner, attr, orig))
            setattr(owner, attr, wrapped)

    # schedule
    def after_materialize(args, kwargs, inst):
        c["schedule.materialize_indices"] += inst.horizon_cap

    # The method first: afterwards the module names no longer hold the class.
    patch((schedule.GameInstance,), "check_restrictions",
          lambda f: _wrap(tracer, "schedule.restrictions", f))
    patch((schedule, cli, construct), "GameInstance",
          lambda f: _wrap(tracer, "schedule.materialize", f, after_materialize))

    def after_load(args, kwargs, spec):
        c["schedule.load_bytes"] += os.path.getsize(args[0])
        c["schedule.max_int_bits"] = max(c["schedule.max_int_bits"], _spec_int_bits(spec))

    patch((cli,), "load_schedule", lambda f: _wrap(tracer, "schedule.load", f, after_load))

    def after_dumps(args, kwargs, text):
        c["schedule.dumps_bytes"] += len(text)

    dumps = _wrap(tracer, "schedule.dumps", schedule.canonical_dumps, after_dumps, rollup=True)
    patch((cli, engine, construct), "canonical_dumps", lambda f: dumps)

    # analysis
    def survival_name(instance, d, horizon, mode=analysis.MODE_PAPER, space=analysis.SPACE_RATIONAL):
        return "analysis.survival_log" if space == analysis.SPACE_LOG else "analysis.survival_rational"

    def after_survival(args, kwargs, curve):
        c["analysis.survival_factors"] += max(0, curve[-1].horizon - curve[0].day + 1)

    patch((analysis,), "survival_curve", lambda f: _wrap(tracer, survival_name, f, after_survival))
    classify = _wrap(tracer, "analysis.classify", analysis.classify)
    patch((analysis, cli, construct), "classify", lambda f: classify)
    patch((analysis,), "series_diagnostics", lambda f: _wrap(tracer, "analysis.diagnostics", f))

    # engine
    def after_run_trace(args, kwargs, trace):
        nights = trace.header["nights"]
        c["engine.nights"] += nights
        if tracer.parent_name() == "engine.mc":
            c["engine.mc_fallback_traces"] += 1
            bag = trace.tagged[0]
            last = nights if bag.removed_night is None else bag.removed_night
            c["engine.mc_useful_nights"] += max(0, last - bag.day + 1)
            c["engine.mc_fallback_nights"] += nights

    run_trace = _wrap(tracer, "engine.run_trace", engine.run_trace, after_run_trace)
    patch((engine, cli), "run_trace", lambda f: run_trace)
    patch((engine,), "step_day", lambda f: _wrap(tracer, "engine.step_day", f, rollup=True))
    patch((engine,), "select_removals", lambda f: _wrap(tracer, "engine.select", f, rollup=True))
    patch((engine,), "apply_removals", lambda f: _wrap(tracer, "engine.apply", f, rollup=True))

    def after_hypergeom(args, kwargs, result):
        c["engine.hypergeom_calls"] += 1
        c["engine.hypergeom_tags"] += args[1]

    patch((engine,), "hypergeom_weights",
          lambda f: _wrap(tracer, "engine.hypergeom", f, after_hypergeom, rollup=True))

    def after_jsonl(args, kwargs, text):
        c["engine.trace_bytes"] += len(text)

    patch((engine.Trace,), "to_jsonl", lambda f: _wrap(tracer, "engine.to_jsonl", f, after_jsonl))

    def after_mc(args, kwargs, result):
        c["engine.mc_trials"] += result[2]

    patch((cli,), "empirical_survival", lambda f: _wrap(tracer, "engine.mc", f, after_mc))

    # rng: vectorized calls are rolled up, scalar calls only counted.
    def after_words(args, kwargs, words):
        c["rng.vec_words"] += int(words.size)

    patch((engine,), "words_vec", lambda f: _wrap(tracer, "rng.vec", f, after_words, rollup=True))
    patch((engine,), "child_keys_vec", lambda f: _wrap(tracer, "rng.vec", f, rollup=True))
    patch((engine,), "child_keys_many", lambda f: _wrap(tracer, "rng.vec", f, rollup=True))

    def counted_next64(f):
        def next64(self):
            c["rng.words"] += 1
            return f(self)
        return next64

    def counted_bits(f):
        def bits(self, nbits):
            c["rng.below_rounds"] += 1
            return f(self, nbits)
        return bits

    def counted_below(f):
        def below(self, n):
            c["rng.below_calls"] += 1
            if n > 1:
                c["rng.below_accepts"] += 1
            return f(self, n)
        return below

    patch((rng.CounterRNG,), "next64", counted_next64)
    patch((rng.CounterRNG,), "bits", counted_bits)
    patch((rng.CounterRNG,), "below", counted_below)

    # construct
    def after_build(args, kwargs, inst):
        bits = max(v.bit_length() for v in inst.r_table + inst.s_table)
        c["schedule.max_int_bits"] = max(c["schedule.max_int_bits"], bits)

    def after_write(args, kwargs, paths):
        c["construct.bytes_written"] += sum(os.path.getsize(p) for p in paths.values())

    patch((cli,), "separating_instance", lambda f: _wrap(tracer, "construct.build", f, after_build))
    patch((cli,), "verify_separation", lambda f: _wrap(tracer, "construct.verify", f))
    patch((cli,), "write_instance_files", lambda f: _wrap(tracer, "construct.write", f, after_write))

    # cli
    def after_dispatch(args, kwargs, code):
        if code != 0:
            c["cli.nonzero_exits"] += 1
        # The benchmark redirects stdout to a fresh StringIO for every call.
        c["cli.stdout_bytes"] += sys.stdout.tell()

    patch((cli,), "dispatch", lambda f: _wrap(tracer, "cli.dispatch", f, after_dispatch))


def uninstall(originals: list[Patch]) -> None:
    for owner, attr, orig in reversed(originals):
        setattr(owner, attr, orig)
