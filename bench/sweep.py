"""Run the benchmark over several seeds on every workload and record each result.

    python3 bench/sweep.py --seeds 1-10 --out-dir .bench_out/set1
    python3 bench/sweep.py --seeds 1-10 --side parent=../parent-checkout --side change=. \\
        --out-dir .bench_out/ab

Each side is a checkout whose own ``bench/run.py`` is run from its root,
on the workloads and at the run length (``run_seconds``) of this
checkout's BENCHMARK.json; results go to ``<out-dir>/<side>.jsonl``. With
two sides the runs form pairs, one pair per (workload, seed), and the side
that runs first alternates from pair to pair so that drift in the machine's
speed does not favour either side. ``bench/compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    p.add_argument("--side", action="append", default=None, metavar="NAME=CHECKOUT",
                   help="one or two checkouts to run (default: this one, named 'run')")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sides = [s.split("=", 1) for s in (args.side or [f"run={ROOT}"])]
    if len(sides) > 2:
        p.error("at most two sides")
    os.makedirs(args.out_dir, exist_ok=True)
    pair = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in args.seeds:
            order = sides if pair % 2 == 0 else sides[::-1]
            pair += 1
            for name, checkout in order:
                record = os.path.abspath(os.path.join(args.out_dir, f"{name}.jsonl"))
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0", "--record", record]
                proc = subprocess.run(cmd, cwd=os.path.abspath(checkout), stdout=subprocess.PIPE, text=True)
                last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
                print(f"{name} {workload} seed {seed}: exit {proc.returncode} {last[:160]}", flush=True)
                if proc.returncode != 0:
                    return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
