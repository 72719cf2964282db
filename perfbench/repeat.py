#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --runs 10 [--workloads a,b] [--trace 0|1]
                                [--first-seed 1] [--out perfbench/results/x.json]

Runs every workload of BENCHMARK.json ``--runs`` times, seed
``first-seed + i`` for run ``i``, each for the ``run_seconds`` the file
fixes.  For every metric it reports the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, which for an end-to-end metric should stay under
its bound.  Prints the summary and, with ``--out``, also writes it there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        machines = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            machines.append(json.loads(lines[-2])["machine"])
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarize(v) for name, v in values.items()}
        report["workloads"][workload] = {"metrics": summary, "machines": machines}
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:14s} {name:28s} median {s['median']:.6g} spread {spread}"
                  + (f" (bound {bound})" if bound is not None and args.trace == 0 else ""),
                  flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
