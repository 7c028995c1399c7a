"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads lossy-reduce,sweep-small --seeds 1-10 \
        --seconds 30 --trace 0 --out summary.json

Runs ``run.py`` once per (workload, seed), one run at a time, prints each
run's report, and writes, per workload and metric, every value with its
median, quartiles and spread (the distance between the quartiles as a share
of the median, the figure the bounds in BENCHMARK.json are checked against).
With one seed it is the one command that reports every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="first-last or a comma list")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="summary JSON path")
    args = parser.parse_args()
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]  # fmt: skip
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            print(done.stdout, end="", flush=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
        names = runs[0]["metrics"]
        summary["workloads"][workload] = {
            "runs": runs,
            "metrics": {
                name: {
                    "unit": runs[0]["metrics"][name]["unit"],
                    **summarise([run["metrics"][name]["value"] for run in runs]),
                }
                for name in names
            },
        }
        for name, stats in summary["workloads"][workload]["metrics"].items():
            print(f"  {workload} {name}: median {stats['median']:.6g} spread {stats['spread']}")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
