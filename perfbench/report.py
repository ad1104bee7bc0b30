"""Run the benchmark over several seeds and workloads and print every metric.

    python3 perfbench/report.py --seeds 1-10 --seconds 15
    python3 perfbench/report.py --workloads groebner --seeds 1-5 --trace 1

Each run is a separate `perfbench/run.py` process, one after another, so
peak memory stays per workload. For every metric the table shows the median
over the seeds and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, which is
what the bounds in BENCHMARK.json are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 1,5,9")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every run's record and result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = sorted(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    seeds = seed_list(args.seeds)

    runs = []
    print(f"{'workload':<13} {'metric':<34} {'unit':<6} {'median':>12} {'spread':>7} {'bound':>6}")
    for workload in names:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, args.trace))
            runs.append({"workload": workload, "seed": seed, **results[-1]})
        metrics = results[0]["result"]["metrics"]
        for metric, first in metrics.items():
            values = [r["result"]["metrics"][metric]["value"] for r in results]
            bound = bounds.get(metric)
            print(f"{workload:<13} {metric:<34} {first['unit']:<6} {statistics.median(values):>12.5g} "
                  f"{spread(values):>7.3f} {'' if bound is None else bound:>6}")
        attempted = sum(r["result"]["attempted"] for r in results)
        failed = sum(r["result"]["failed"] for r in results)
        print(f"{workload:<13} {'failed_frac':<34} {'ratio':<6} {failed / attempted:>12.5g}")
        tails = {r["record"].get("tail_percentile") for r in results}
        items = [r["record"]["items"] for r in results]
        print(f"{workload:<13} tail percentile {tails}, items per run {min(items)}-{max(items)}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
