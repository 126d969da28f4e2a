"""One set-up sample, run in a fresh process by run.py: import windwalk, build
the workload's first-cycle kernels and run its warm-up op.  Prints one JSON
line with the set-up and import times in seconds.

    PYTHONPATH=src python3 perfbench/probe.py --workload limits-scale --seed 1
"""

import argparse
import importlib
import json
import os
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    importlib.import_module("windwalk")
    imported = time.perf_counter()
    from workloads import make_workload

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    make_workload(args.workload, args.seed, root).setup()
    done = time.perf_counter()
    print(json.dumps({"setup_s": done - start, "import_s": imported - start}))


if __name__ == "__main__":
    main()
