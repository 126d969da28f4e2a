#!/usr/bin/env python3
"""windwalk benchmark: run one workload from a seed, for a number of cycles
fixed by ``--seconds``, check every op, and print every metric by name.

    python3 perfbench/run.py --workload limits-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # the four workloads in turn
    python3 perfbench/run.py --replay perfbench/results/limits-edge-seed1-trace0.json --op 17

One process, one client, closed loop: the next op starts when the last one
has finished.  The report goes to standard output; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics named in
BENCHMARK.json (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
The full record (environment, generated inputs of every op, checks, spans)
is written under ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

from hostref import CHILD_NOMINAL_S, ChildReference, HostReference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("limits-scale", "limits-edge", "mc-verify", "cli-cold")
SETUP_SAMPLES = 3
FLOOR_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: End-to-end metrics carried in the final JSON line (BENCHMARK.json).
GATED = ("ops_per_kref", "op_p50_ref", "peak_rss_mb", "setup_s")
#: BLAS threads for every process the benchmark starts (at most nproc).
BLAS_THREADS = 1
PRINT_FAILURES = 10


class BenchError(RuntimeError):
    """The benchmark cannot run: no program to measure, or a set-up failed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="RESULT_FILE",
                        help="re-run one op recorded in a result file (with --op)")
    parser.add_argument("--op", type=int, help="op id to replay")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.replay is None):
        parser.error("give exactly one of --workload and --replay")
    if args.replay is not None and args.op is None:
        parser.error("--replay needs --op")
    return args


def configure_environment() -> int:
    """Put the checkout's ``src`` first on the import path of this process and
    of its children, and fix their BLAS thread count."""
    if not (SRC / "windwalk" / "__init__.py").is_file():
        raise BenchError(f"no windwalk package under {SRC}: run from a full checkout")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    extra = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    sys.path.insert(0, str(SRC))
    windwalk = importlib.import_module("windwalk")
    if Path(windwalk.__file__).resolve().parent != SRC / "windwalk":
        raise BenchError(f"imported windwalk from {windwalk.__file__}, not from {SRC}")
    return nproc


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{openblas['name']} {openblas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
                                      GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "windwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def setup_samples(workload: str, seed: int) -> list:
    """Set-up (import, kernels, warm-up op) timed in fresh processes.  Each
    sample also holds ``ref_s``, the mean of the child references taken just
    before and just after it: a set-up is a fresh process too."""
    from workloads import run_child

    samples = []
    reference = ChildReference(str(ROOT))
    reference.sample()
    for _ in range(SETUP_SAMPLES):
        code, output, _ = run_child([sys.executable, str(HERE / "probe.py"),
                                     "--workload", workload, "--seed", str(seed)], cwd=str(ROOT))
        if code != 0:
            raise BenchError(f"set-up probe exited {code}: {output[-2000:]}")
        reference.sample()
        sample = json.loads(output.strip().splitlines()[-1])
        sample["ref_s"] = statistics.mean(dt for _, dt in reference.samples[-2:])
        samples.append(sample)
    return samples


def interpreter_floor_ms() -> list:
    """Wall time of a bare ``python -c pass``, the floor of a cold CLI call."""
    from workloads import run_child

    times = []
    for _ in range(FLOOR_SAMPLES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], cwd=str(ROOT))
        times.append(1e3 * (time.perf_counter() - start))
    return times


def run_loop(workload, seconds: float, tracer=None):
    """``workload.cycle_count(seconds)`` whole cycles, so every run of a seed
    executes the same ops.  With a tracer, cycles alternate untraced and
    traced (an even number of them), so both halves see the same host
    conditions.  Returns the op records, the seconds each cycle took with
    whether it was traced, and the reference samples."""
    from workloads import CliCold, Check, timed_op

    records = []
    op_spans: List[Tuple[float, float]] = []
    host = ChildReference(str(ROOT)) if workload.CHILD_REFERENCE else HostReference()
    cycles = workload.cycles()
    last_reference = float("-inf")
    cycle_s: List[Tuple[bool, float]] = []
    for index in range(workload.cycle_count(seconds, even=tracer is not None)):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        cycle_start = time.perf_counter()
        try:
            for spec in next(cycles):
                if time.perf_counter() - last_reference >= host.every_s:
                    for _ in range(host.burst):
                        host.sample()
                    last_reference = time.perf_counter()
                op_id = len(records)
                if traced:
                    tracer.op = op_id
                    muls_before = tracer.jet_muls
                op_start = time.perf_counter()
                elapsed, outcome, error = timed_op(workload, spec)
                op_spans.append((op_start, time.perf_counter()))
                check = workload.check(spec, outcome) if error is None else Check(False, False, error)
                record = {"id": op_id, "cycle": index, "traced": traced, "spec": spec,
                          "ms": 1e3 * elapsed, "ok": check.ok, "sane": check.sane,
                          "detail": check.detail, "cf_rel_err": check.cf_rel_err,
                          "ref_abs_err": check.ref_abs_err, "path_steps": workload.path_steps(spec),
                          "rss_mb": outcome.peak_rss_mb if outcome is not None else None}
                if traced:
                    if isinstance(workload, CliCold):
                        record["in_process_exit"] = cli_in_process(CliCold.argv(spec))
                    record["jet_muls"] = tracer.jet_muls - muls_before
                records.append(record)
        finally:
            if traced:
                tracer.uninstall()
        cycle_s.append((traced, time.perf_counter() - cycle_start))
    for _ in range(host.burst):  # so the last op has samples after it
        host.sample()
    for record, (op_start, op_end) in zip(records, op_spans):
        record["ref_ms"] = 1e3 * host.around(op_start, op_end)
    return records, cycle_s, [dt for _, dt in host.samples]


def cli_in_process(argv) -> int:
    """The same CLI call through ``windwalk.cli.main`` in this process, so the
    traced run sees the layers under the CLI."""
    cli = importlib.import_module("windwalk.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def end_to_end(records, wall, references, setup, peak_rss_mb) -> dict:
    """Every end-to-end metric: {"value", "unit", "n"} with ``value`` None
    (and a ``note``) where the metric does not apply."""
    times = [r["ms"] for r in records]
    n = len(records)
    p90 = statistics.quantiles(times, n=10)[-1] if n >= 2 else times[0]
    beyond = sum(t > p90 for t in times)
    cf = [r["cf_rel_err"] for r in records if r["cf_rel_err"] is not None]
    ref = [r["ref_abs_err"] for r in records if r["ref_abs_err"] is not None]
    mc = [r for r in records if r["path_steps"]]
    in_ref = [r["ms"] / r["ref_ms"] for r in records]
    setup_wall = statistics.median(s["setup_s"] for s in setup)
    return {
        "setup_s": {"value": CHILD_NOMINAL_S * statistics.median(s["setup_s"] / s["ref_s"]
                                                                 for s in setup),
                    "unit": "s", "n": len(setup),
                    "note": f"scaled to the host speed where a fresh `import numpy` takes "
                            f"{CHILD_NOMINAL_S * 1e3:g} ms"},
        "setup_wall_s": {"value": setup_wall, "unit": "s", "n": len(setup)},
        "ops_per_s": {"value": n / wall, "unit": "1/s", "n": n},
        "op_ms_p50": {"value": statistics.median(times), "unit": "ms", "n": n},
        "ref_ms": {"value": 1e3 * statistics.median(references), "unit": "ms",
                   "n": len(references)},
        "ops_per_kref": {"value": 1e3 * n / sum(in_ref), "unit": "1/kref", "n": n},
        "op_p50_ref": {"value": statistics.median(in_ref), "unit": "ref", "n": n},
        "op_ms_p90": {"value": p90 if beyond >= 10 else None, "unit": "ms", "n": n,
                      "note": None if beyond >= 10 else
                      f"not reported: {beyond} samples beyond p90, fewer than 10"},
        "fail_ratio": {"value": sum(not r["ok"] for r in records) / n, "unit": "ratio", "n": n},
        "cf_rel_err_max": {"value": max(cf) if cf else None, "unit": "rel", "n": len(cf),
                           "note": None if cf else "no closed-form checks on this workload"},
        "ref_abs_err_max": {"value": max(ref) if ref else None, "unit": "abs", "n": len(ref),
                            "note": None if ref else "no reference-table checks on this workload"},
        "mc_steps_per_s": {
            "value": (sum(r["path_steps"] for r in mc) / (1e-3 * sum(r["ms"] for r in mc))
                      if mc else None),
            "unit": "1/s", "n": len(mc),
            "note": None if mc else "no Monte Carlo ops on this workload"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB", "n": 1},
    }


def peak_rss(records) -> float:
    """Peak resident set of whatever ran the ops: the CLI children if there
    were any, else this process."""
    from workloads import rss_mb

    children = [r["rss_mb"] for r in records if r["rss_mb"] is not None]
    if children:
        return max(children)
    return rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
        return f"{value:.4e}"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def print_report(title, e2e, records, result_path, layers=None) -> None:
    print(f"# {title}")
    for name, m in e2e.items():
        note = f"  ({m['note']})" if m.get("note") else ""
        print(f"  {name:<16} {fmt(m['value']):>14} {m['unit']:<6} n={m['n']}{note}")
    misses = [r for r in records if not r["ok"]]
    for r in misses[:PRINT_FAILURES]:
        print(f"  FAIL op {r['id']} {json.dumps(r['spec'])}: {r['detail']}")
    if len(misses) > PRINT_FAILURES:
        print(f"  ... {len(misses) - PRINT_FAILURES} more failed ops in {result_path}")
    if layers is not None:
        print("# per-layer (traced cycles; trace.* compare them with the untraced cycles)")
        for name, value in layers.items():
            print(f"  {name:<52} {fmt(value):>14}")


def run_workload(args) -> int:
    nproc = configure_environment()
    from tracing import Tracer, layer_metrics, layer_units
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, str(ROOT))
    setup = setup_samples(args.workload, args.seed)
    floor = interpreter_floor_ms()
    workload.setup()
    tracer = Tracer() if args.trace else None
    ops, cycle_s, references = run_loop(workload, args.seconds, tracer)
    records = [r for r in ops if not r["traced"]]
    e2e = end_to_end(records, sum(t for traced, t in cycle_s if not traced), references, setup,
                     peak_rss(records))
    result = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(nproc, args.seed),
        "setup_samples": setup, "interpreter_floor_ms": floor,
        "end_to_end": e2e, "cycle_s": cycle_s, "ops": ops,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{stem}.json"
    layers = None
    if tracer is not None:
        traced = [r for r in ops if r["traced"]]
        layers = layer_metrics(tracer, traced)
        layers["cli.interpreter_ms"] = statistics.median(floor)
        layers["cli.import_ms"] = 1e3 * statistics.median(s["import_s"] for s in setup)
        traced_e2e = end_to_end(traced, sum(t for tr, t in cycle_s if tr), references, setup,
                                peak_rss(traced))
        layers["trace.ops_per_kref_overhead_pct"] = (
            100.0 * (e2e["ops_per_kref"]["value"] / traced_e2e["ops_per_kref"]["value"] - 1.0))
        layers["trace.op_p50_ref_overhead_pct"] = (
            100.0 * (traced_e2e["op_p50_ref"]["value"] / e2e["op_p50_ref"]["value"] - 1.0))
        spans_path = RESULTS / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans_json()))
        result.update(traced_end_to_end=traced_e2e, layers=layers, spans_file=spans_path.name)
    result_path.write_text(json.dumps(result, indent=1))
    print_report(f"{workload.name} seed={args.seed} seconds={args.seconds} ({workload.why})",
                 e2e, records, result_path.relative_to(ROOT), layers)
    if tracer is not None:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layer_units().items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]} for name in GATED}
    print(json.dumps({
        "correct": all(r["sane"] for r in ops),
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def replay(args) -> int:
    configure_environment()
    from workloads import Check, make_workload, timed_op

    result = json.loads(Path(args.replay).read_text())
    spec = result["ops"][args.op]["spec"]
    workload = make_workload(result["workload"], result["seed"], str(ROOT))
    elapsed, outcome, error = timed_op(workload, spec)
    check = workload.check(spec, outcome) if error is None else Check(False, False, error)
    print(json.dumps({"workload": workload.name, "op": args.op, "spec": spec,
                      "ms": 1e3 * elapsed, "ok": check.ok, "sane": check.sane,
                      "detail": check.detail, "cf_rel_err": check.cf_rel_err,
                      "ref_abs_err": check.ref_abs_err}))
    return 0 if check.ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.replay is not None:
            return replay(args)
        if args.workload == "all":
            configure_environment()
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
