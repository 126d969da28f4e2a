"""Spans around the public functions of each ``windwalk`` layer, recorded from
outside the package, and the per-layer metrics computed from them.

A wrapper is patched into every ``windwalk`` module that binds the original
function, because each caller looks the name up in its own module:
``compute_limits`` calls ``windwalk.limits.solve_r``, ``solve_r`` calls
``windwalk.solver.system_matrices``, and the benchmark calls
``windwalk.compute_limits``.  ``Jet2.__mul__`` and ``Jet2.__rmul__`` are two
class attributes; both get a counting wrapper (a count, not a span).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span name -> (module, attribute) of the traced public function.
TRACED = {
    "solver.system_matrices": ("windwalk.solver", "system_matrices"),
    "solver.solve_r": ("windwalk.solver", "solve_r"),
    "solver.solve_r_derivatives": ("windwalk.solver", "solve_r_derivatives"),
    "limits.build_b": ("windwalk.limits", "build_b"),
    "limits.det_h": ("windwalk.limits", "det_h"),
    "limits.compute_limits": ("windwalk.limits", "compute_limits"),
    "chain.run_length_paths": ("windwalk.chain", "run_length_paths"),
    "montecarlo.verify_lln": ("windwalk.montecarlo", "verify_lln"),
    "montecarlo.verify_clt": ("windwalk.montecarlo", "verify_clt"),
    "cli.main": ("windwalk.cli", "main"),
}

#: Stages reported by total span time per op, and by self time per op.
TOTAL_MS = ("solver.system_matrices", "solver.solve_r", "solver.solve_r_derivatives",
            "limits.build_b", "limits.det_h", "chain.run_length_paths", "cli.main")
SELF_MS = ("limits.compute_limits", "montecarlo.verify_lln", "montecarlo.verify_clt")
#: Stage metrics repeated per N stratum on limits-scale.
STRATUM_METRICS = ("solver.system_matrices.ms", "solver.solve_r.ms",
                   "solver.solve_r_derivatives.ms", "limits.build_b.ms", "limits.det_h.ms",
                   "limits.compute_limits.self_ms")
STRATA = ("N8", "N14", "N20", "N26", "N32")
PATH_WIDTHS = (200, 2000)


def _system_matrices_attrs(args, kwargs, result):
    return {"bytes": sum(int(getattr(part, "nbytes", 0)) for part in result)}


def _solve_r_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "residual": result.residual}


def _run_length_paths_attrs(bind):
    def attrs(args, kwargs, result):
        call = bind(*args, **kwargs).arguments
        return {"n_paths": call["n_paths"], "path_steps": call["n_steps"] * call["n_paths"]}
    return attrs


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, op, attrs]
    with times in seconds from ``perf_counter`` and ``parent`` the index of
    the enclosing span (None at the top)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.jet_muls = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import windwalk.cli  # noqa: F401  (so cli.main can be traced)
        from windwalk.jets import Jet2

        modules = [m for n, m in sys.modules.items() if n == "windwalk" or n.startswith("windwalk.")]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            attrs = {
                "solver.system_matrices": _system_matrices_attrs,
                "solver.solve_r": _solve_r_attrs,
                "chain.run_length_paths": _run_length_paths_attrs(inspect.signature(original).bind),
            }.get(name)
            wrapper = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for attr in ("__mul__", "__rmul__"):
            self._patch(Jet2, attr, self._counting(Jet2.__dict__[attr]))

    def _counting(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(a, b):
            self.jet_muls += 1
            return fn(a, b)
        return counted

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def spans_json(self) -> List[dict]:
        """Spans with times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "op": op, "attrs": a}
            for n, s, e, p, op, a in self.spans
        ]


def _stage_summary(spans: List[list], op_ids) -> Dict[str, float]:
    """Per-op means of total and self time (ms) over the ops in ``op_ids``
    that entered each stage, plus the system_matrices call and byte counts."""
    child_s: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    entered = defaultdict(set)
    calls = defaultdict(int)
    nbytes = 0
    for idx, (name, start, end, parent, op, attrs) in enumerate(spans):
        if op not in op_ids:
            continue
        total[name] += end - start
        self_s[name] += end - start - child_s[idx]
        entered[name].add(op)
        calls[name] += 1
        if name == "solver.system_matrices" and attrs:
            nbytes += attrs["bytes"]
    out = {}
    for name in TOTAL_MS:
        out[f"{name}.ms"] = 1e3 * total[name] / len(entered[name]) if entered[name] else 0.0
    for name in SELF_MS:
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / len(entered[name]) if entered[name] else 0.0
    sm_ops = len(entered["solver.system_matrices"])
    out["solver.system_matrices.calls_per_op"] = calls["solver.system_matrices"] / sm_ops if sm_ops else 0.0
    out["solver.system_matrices.bytes"] = nbytes / sm_ops if sm_ops else 0.0
    return out


def layer_metrics(tracer: Tracer, records: List[dict]) -> Dict[str, float]:
    """Every per-layer metric of the traced run (0 where a layer is not
    exercised by the workload)."""
    spans = tracer.spans
    out = _stage_summary(spans, {r["id"] for r in records})
    # Solver counts come from the first traced cycle, whose inputs every run
    # of a seed shares, so they repeat exactly however many cycles a run fits.
    first = min(r["cycle"] for r in records)
    first_cycle = {r["id"] for r in records if r["cycle"] == first}
    solves = [s[5] for s in spans if s[0] == "solver.solve_r" and s[5] and s[4] in first_cycle]
    iterations = [a["iterations"] for a in solves]
    out["solver.solve_r.iterations_p50"] = float(statistics.median(iterations)) if iterations else 0.0
    out["solver.solve_r.iterations_max"] = float(max(iterations, default=0))
    out["solver.solve_r.residual_max"] = max((a["residual"] for a in solves), default=0.0)
    muls = [r["jet_muls"] for r in records if r.get("jet_muls")]
    out["jets.Jet2.mul_per_op"] = sum(muls) / len(muls) if muls else 0.0
    for width in PATH_WIDTHS:
        runs = [(s[2] - s[1], s[5]["path_steps"]) for s in spans
                if s[0] == "chain.run_length_paths" and s[5] and s[5]["n_paths"] == width]
        busy = sum(t for t, _ in runs)
        out[f"chain.run_length_paths.steps_per_s.paths{width}"] = (
            sum(n for _, n in runs) / busy if busy else 0.0)
    for stratum in STRATA:
        ids = {r["id"] for r in records if r["spec"].get("stratum") == stratum}
        summary = _stage_summary(spans, ids)
        for metric in STRATUM_METRICS:
            out[f"{metric}.{stratum}"] = summary[metric]
    return out


def layer_units() -> Dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {f"{name}.ms": "ms" for name in TOTAL_MS}
    units.update({f"{name}.self_ms": "ms" for name in SELF_MS})
    units.update({
        "solver.system_matrices.calls_per_op": "count",
        "solver.system_matrices.bytes": "B",
        "solver.solve_r.iterations_p50": "count",
        "solver.solve_r.iterations_max": "count",
        "solver.solve_r.residual_max": "abs",
        "jets.Jet2.mul_per_op": "count",
    })
    units.update({f"chain.run_length_paths.steps_per_s.paths{w}": "1/s" for w in PATH_WIDTHS})
    units.update({f"{metric}.{stratum}": "ms" for stratum in STRATA for metric in STRATUM_METRICS})
    units.update({
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "trace.ops_per_kref_overhead_pct": "%",
        "trace.op_p50_ref_overhead_pct": "%",
    })
    return units
