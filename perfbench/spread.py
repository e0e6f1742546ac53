"""Run-to-run spread of the benchmark's metrics across seeds.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload pmake-cold --seeds 1-10 --out spread.json

Runs ``run.py --trace 0`` once per seed (one after another) and prints,
for each end-to-end metric, the median, the quartiles from
``statistics.quantiles(n=4)`` and the distance between the quartiles as
a share of the median. This is
how the bounds in ``BENCHMARK.json`` were checked: every spread except
``setup_s``'s must stay under its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines), file=sys.stderr)
        result = json.loads(last)
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs])
        for name in runs[0]["metrics"]
    }
    for name, s in summary.items():
        print(f"{name:24s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
              f"q3 {s['q3']:12.6g}  spread {100 * s['spread']:6.2f}%")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs,
             "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
