#!/usr/bin/env python3
"""Run each workload once per seed and report, for every end-to-end metric,
the median, the quartiles and the spread (q3 - q1) / median, next to the
regression bound fixed in BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 --output perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --workloads mc-verify --seeds 11-15

Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--output", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_s=took)
            runs.append(result)
            print(f"{workload} seed {seed}: {took:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs], bounds.get(name))
                   for name in runs[0]["metrics"]}
        summary[workload] = {"runs": runs, "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {workload:<13} {name:<12} median={m['median']:.6g} q1={m['q1']:.6g} "
                  f"q3={m['q3']:.6g} spread={m['spread']:.4f} bound={m['bound']}")
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
