#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json N times per workload, each time with
another --seed, and prints for each (workload, metric) the median of the
N values and the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound. A spread above a third of its bound is flagged.

    python3 benchmark/spread.py [--runs 10] [--workload NAME ...] [--save DIR]

Run it from the root of the checkout. --save keeps every run's last line
in DIR/<workload>.jsonl so two sets can be compared afterwards.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--save", type=pathlib.Path)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flagged = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        lines = []
        for run in range(args.runs):
            command = spec["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + run),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{workload}: run {run} exited with {done.returncode}")
                return 1
            last = done.stdout.strip().splitlines()[-1]
            lines.append(last)
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                print(f"{workload}: run {run} failed {result['failed']} checks")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            (args.save / f"{workload}.jsonl").write_text("\n".join(lines) + "\n")
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            mark = ""
            if name != "setup_s" and spread > bound / 3:
                mark = "  <-- above a third of the bound"
                flagged += 1
            print(
                f"{workload:<12} {name:<16} median {median:>16.6f}  "
                f"spread {spread * 100:6.2f} %  bound {bound * 100:5.1f} %{mark}"
            )
    print(f"{flagged} spreads above a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
