"""Benchmark of the robinhood package: one workload per run, or all four.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with the package
unmodified; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics, the tracing overhead and a span file under
``.bench_out/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
restate every metric with its unit and the sample counts behind it.
``attempted`` counts the distinct queries of the batch and ``failed`` those
that failed in any pass, so both depend on the seed only.

The load is one process with no worker threads, closed loop: each query
starts when the previous one returns. ``setup_s`` is the median time of
several fresh interpreters that each import the package, generate the
workload's inputs and write its files (``--setup-only``), then exit.

The speed of a shared machine drifts by a third and more within a minute,
interpreted code more than C loops. So every end-to-end time is rescaled by the speed of ``calibrate``, a fixed piece of standard-library
Python timed next to each query (and around each set-up): a time reads
``wall * (CAL_NOMINAL_S / calibration) ** CAL_ELASTICITY``, about the wall
time it would take at the speed where ``calibrate`` takes ``CAL_NOMINAL_S``.
The calibration uses no code of the package, so a change to the package
moves these times as it moves wall time; ``--trace 1`` reports raw wall
times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 9
#: The tail latency is read at the highest percentile with this many queries beyond it.
TAIL_BEYOND = 10
#: Seconds ``calibrate`` takes at the reference speed that times are rescaled to.
CAL_NOMINAL_S = 0.0008
#: How much the package's times move with the calibration's: when the
#: machine slows ``calibrate`` by a factor x, the queries of the workloads
#: slow by about x ** 0.8 (measured per query over 31-43 back-to-back passes
#: of each workload: 0.75-0.90), so times are rescaled by that power.
CAL_ELASTICITY = 0.8
#: A query's time is rescaled by the mean calibration of the queries this
#: close to it in the same pass, leaving out the slowest one (a calibration
#: hit by an interrupt can take ten times as long).
CAL_NEIGHBOURS = 5
#: Calibrations before and after each set-up.
CAL_SETUP = 5


def calibrate() -> float:
    """Wall seconds of a fixed piece of standard-library work, with the collector off.

    It is interpreted work, as most of the package's is: a loop over small
    integers and a dict, a Fraction sum with growing big integers, JSON and
    sha256.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, table, total = 0, {}, Fraction(0)
        for i in range(1, 200):
            acc = (acc * 31 + i * i) % 1_000_003
            table[i & 63] = acc
            total += Fraction(1, i)
        hashlib.sha256((json.dumps(table) + str(total)).encode()).digest()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(wall: list[float], cal: list[float]) -> list[float]:
    """Rescale each time to the reference speed by the calibrations around it."""
    out = []
    for k, t in enumerate(wall):
        near = sorted(cal[max(0, k - CAL_NEIGHBOURS):k + CAL_NEIGHBOURS + 1])
        near = near[:-1] or near
        out.append(t * (CAL_NOMINAL_S * len(near) / sum(near)) ** CAL_ELASTICITY)
    return out


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _prepare_environment() -> None:
    """Pin the process to one thread and clear the package's overrides."""
    for name in ("RH_SEED", "RH_DIGIT_BUDGET"):
        os.environ.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "robinhood", "__init__.py")):
        raise SystemExit(f"error: no robinhood package source under {src}")
    sys.path.insert(0, src)


def _require_listed(metrics: dict[str, float], units: dict[str, str]) -> None:
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured metrics {sorted(metrics)} are not those of BENCHMARK.json")


def _parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None, help="append a detailed JSON line to this file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Measurement:
    """Latencies, pass times and failures over the passes of one run."""

    def __init__(self, batch: list) -> None:
        self.batch = batch
        #: Per query, its rescaled latency in each untraced pass.
        self.latencies: list[list[float]] = [[] for _ in batch]
        #: Rescaled sum of the query latencies, per untraced pass.
        self.pass_s: list[float] = []
        #: Wall-clock sums per pass, for the tracing overhead.
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.executions = 0
        #: Per query, the digest text of its output in the first pass.
        self.digests: list[str] = []
        #: Query index -> (status, note) of its first failure.
        self.failures: dict[int, tuple[str, str]] = {}

    @property
    def attempted(self) -> int:
        return len(self.digests)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _notes(self, status: str) -> list[str]:
        return [f"{self.batch[idx].label}: {note}" for idx, (st, note) in sorted(self.failures.items())
                if st == status]

    @property
    def wrong(self) -> list[str]:
        return self._notes("wrong")

    @property
    def known(self) -> list[str]:
        return self._notes("known")

    def run_pass(self, tracer=None) -> None:
        from workloads import KnownDefect

        first = not self.digests
        wall, cal = [], []
        for idx, query in enumerate(self.batch):
            if tracer is not None:
                tracer.qid = idx + 1
            t0 = perf_counter()
            try:
                out, error = query.run(), None
            except Exception as exc:  # a failing query is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall.append(perf_counter() - t0)
            self.executions += 1

            status, note = "ok", ""
            if error is not None:
                status, note, text = "wrong", error, f"error|{error}"
            else:
                try:
                    text = query.digest(out)
                    if first:
                        query.check(out)
                except KnownDefect as exc:
                    status, note = "known", str(exc)
                except Exception as exc:  # CheckFailed, or a check that crashed on the output
                    status, note = "wrong", f"{type(exc).__name__}: {exc}"
                    text = f"check|{note}"
            if first:
                self.digests.append(text)
            elif text != self.digests[idx]:
                status, note = "wrong", "output differs from the first pass"
            if status != "ok" and idx not in self.failures:
                self.failures[idx] = (status, note)
            if tracer is None:
                cal.append(calibrate())
        if tracer is not None:
            self.traced_s.append(sum(wall))
            return
        self.untraced_s.append(sum(wall))
        scaled = rescale(wall, cal)
        self.pass_s.append(sum(scaled))
        for idx, t in enumerate(scaled):
            self.latencies[idx].append(t)

    def output_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def _measure(batch: list, seconds: float, trace: bool) -> tuple[Measurement, object | None]:
    """Repeat passes until ``seconds`` have elapsed; with tracing, alternate passes."""
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    m = Measurement(batch)
    start = perf_counter()
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        patches = tracing.install(tracer) if traced else None
        try:
            m.run_pass(tracer if traced else None)
        finally:
            if patches is not None:
                tracing.uninstall(patches)
        passes += 1
        if perf_counter() - start >= seconds and (not trace or passes >= 2):
            return m, tracer


def _tail(values: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _setup_times(args: argparse.Namespace, tmp_root: str) -> list[float]:
    """Rescaled times of SETUP_REPEATS fresh set-ups, each between two sets of calibrations."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = os.path.join(tmp_root, f"setup-{k}")
        os.makedirs(workdir)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir]
        cal = [calibrate() for _ in range(CAL_SETUP)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        wall = perf_counter() - t0
        cal += [calibrate() for _ in range(CAL_SETUP)]
        times.append(wall * (CAL_NOMINAL_S / statistics.median(cal)) ** CAL_ELASTICITY)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()[-500:]}")
        shutil.rmtree(workdir)
    return times


def _pinned_digest(workload: str, seed: int) -> str | None:
    path = os.path.join(BENCH_DIR, "pinned_digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_one(args: argparse.Namespace) -> int:
    import workloads

    tmp_root = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp_root)
    try:
        setup = _setup_times(args, tmp_root)
        workdir = os.path.join(tmp_root, "run")
        os.makedirs(workdir)
        batch = workloads.BATCHES[args.workload](args.seed, workdir)
        m, tracer = _measure(batch, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = m.output_digest()
    pinned = _pinned_digest(args.workload, args.seed)
    wrong = m.wrong
    if pinned is not None and pinned != digest:
        wrong.append(f"output digest {digest} differs from the pinned {pinned}")

    # Each query's latency is its median over the untraced passes, and
    # batch_s the median pass, both rescaled to the reference speed.
    per_query = [statistics.median(lat) for lat in m.latencies]
    tail, pct = _tail(per_query)
    n_q, n_pass = len(batch), len(m.untraced_s)
    print(f"workload {args.workload} seed {args.seed}: {n_q} queries per pass, "
          f"{n_pass} untraced and {len(m.traced_s)} traced passes, {m.executions} query executions")
    print(f"  output digest {digest}" + (" (pinned)" if pinned else ""))
    for note in wrong[:20]:
        print(f"  WRONG {note}")
    for note in m.known[:20]:
        print(f"  FAILED (known defect) {note}")

    if args.trace:
        metrics = tracer.layer_metrics(len(m.traced_s))
        metrics["trace.batch_s_untraced"] = min(m.untraced_s)
        metrics["trace.batch_s_traced"] = min(m.traced_s)
        metrics["trace.overhead_s"] = metrics["trace.batch_s_traced"] - metrics["trace.batch_s_untraced"]
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        print(f"  spans written to {os.path.relpath(spans, ROOT)}")
        units = metric_units("per_layer")
        _require_listed(metrics, units)
        for name in units:
            print(f"  {name:30s} {metrics[name]:.6g} {units[name]}")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(m.pass_s),
            "query_s.p50": statistics.median(per_query),
            "query_s.tail": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        units = metric_units("end_to_end")
        _require_listed(metrics, units)
        print(f"  setup_s      {metrics['setup_s']:.4f} s  (median of {len(setup)} set-ups)")
        print(f"  batch_s      {metrics['batch_s']:.4f} s  (median of {n_pass} passes)")
        print(f"  query_s.p50  {metrics['query_s.p50']:.6f} s  (p50 of {n_q} queries, each its median of {n_pass} passes)")
        print(f"  query_s.tail {metrics['query_s.tail']:.6f} s  (p{pct:.1f} of {n_q} queries, {min(TAIL_BEYOND, n_q - 1)} beyond it)")
        print(f"  failed_frac  {m.failed / m.attempted:.6f}  ({m.failed} of {m.attempted} distinct queries)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")

    result = {
        "correct": not wrong,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.record:
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "digest": digest, "result": result,
                  "wrong": wrong, "known": m.known}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(detail, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    print("\n" + f"{'metric':30s}" + "".join(f"{w:>14s}" for w in results))
    for name, metric in results[names[0]]["metrics"].items():
        unit = metric["unit"]
        row = "".join(f"{r['metrics'][name]['value']:>14.6g}" for r in results.values())
        print(f"{name + ' (' + unit + ')':30s}{row}")
    print(f"{'failed_frac':30s}" + "".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values()))
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    _prepare_environment()
    import workloads

    names = list(workloads.BATCHES)
    args = _parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    if args.setup_only:
        workloads.BATCHES[args.workload](args.seed, args.workdir)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
