"""The four benchmark workloads: seeded op generation, op execution through
the public ``windwalk`` API, and the correctness gate applied to every op.

An op spec is a plain JSON-able dict, so every op a run executed can be
written to the result file and replayed by itself.  Ops come in *cycles*:
one cycle holds a fixed mix of op kinds, the seed picks the free inputs of
each op (N within its stratum, q's place in its decade, per-op seeds) and
the order inside the cycle.  A run executes a number of whole cycles fixed
by ``--seconds`` (``Workload.cycle_count``), so every run measures the same
mix whatever its seed, and every run of a seed executes the same ops.

The gate has two levels.  An op *fails* when it raises, exits non-zero or
misses the tolerance the acceptance tests use; failures are counted, never
retried.  An op is *wrong* when it raises, exits non-zero or misses by far
more than that (``GROSS_FACTOR`` times the tolerance, or a Monte Carlo
estimate off by half its reference); any wrong op makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import windwalk
from windwalk.oracle import (
    ASYMMETRIC_REFERENCE,
    closed_form_one_parameter,
    closed_form_symmetric,
)

GROSS_FACTOR = 100.0
CLI_TIMEOUT_S = 120.0
METRICS = ("word", "fenced")


@dataclass
class Outcome:
    """What an op returned: the constants of a ``limits`` op, a Monte Carlo
    report, or a CLI process's exit code and output."""

    gamma: Optional[float] = None
    sigma2: Optional[float] = None
    report: Optional[object] = None
    exit_code: Optional[int] = None
    output: str = ""
    peak_rss_mb: Optional[float] = None


@dataclass
class Check:
    ok: bool                      # passed the acceptance tolerance
    sane: bool                    # not grossly wrong
    detail: str = ""
    cf_rel_err: Optional[float] = None   # against a closed form
    ref_abs_err: Optional[float] = None  # against the printed reference table


def build_kernel(spec: str):
    """Kernel from a CLI-style spec: ``symmetric:N``, ``one_parameter:q`` or
    ``asymmetric``."""
    if spec == "asymmetric":
        return windwalk.asymmetric_kernel()
    family, _, value = spec.partition(":")
    if family == "symmetric":
        return windwalk.symmetric_kernel(int(value))
    if family == "one_parameter":
        return windwalk.one_parameter_kernel(float(value))
    raise ValueError(f"unknown kernel spec {spec!r}")


def build_metric(name: str, n_windows: int):
    if name == "word":
        return windwalk.word_metric(n_windows)
    if name == "fenced":
        return windwalk.fenced_metric(n_windows)
    raise ValueError(f"unknown metric {name!r}")


def reference(kernel_spec: str, metric: str) -> Tuple[float, float, str, float]:
    """(gamma, sigma2, kind, tolerance) for a kernel spec.  ``kind`` is
    ``relative`` for a closed form and ``absolute`` for the six-digit
    asymmetric reference table (the tolerances of acceptance criteria 1-3)."""
    if kernel_spec == "asymmetric":
        ref = ASYMMETRIC_REFERENCE
        return ref[f"gamma_{metric}"], ref[f"sigma2_{metric}"], "absolute", 1e-5
    family, _, value = kernel_spec.partition(":")
    if family == "symmetric":
        cf, tol = closed_form_symmetric(int(value)), 1e-10
    elif family == "one_parameter":
        cf, tol = closed_form_one_parameter(float(value)), 1e-9
    else:
        raise ValueError(f"no reference for {kernel_spec!r}")
    if metric == "word":
        return cf.gamma_word, cf.sigma2_word, "relative", tol
    return cf.gamma_fenced, cf.sigma2_fenced, "relative", tol


def check_constants(kernel_spec: str, metric: str, gamma: float, sigma2: float) -> Check:
    ref_g, ref_s, _, _ = reference(kernel_spec, metric)
    return check_deviation(kernel_spec, metric, gamma - ref_g, sigma2 - ref_s)


def check_deviation(kernel_spec: str, metric: str, d_gamma: float, d_sigma2: float) -> Check:
    """Gate the deviations (result minus reference) of gamma and sigma2."""
    ref_g, ref_s, kind, tol = reference(kernel_spec, metric)
    if not (math.isfinite(d_gamma) and math.isfinite(d_sigma2)):
        return Check(False, False, f"non-finite deviation gamma {d_gamma!r}, sigma2 {d_sigma2!r}")
    if kind == "relative":
        err = max(abs(d_gamma / ref_g), abs(d_sigma2 / ref_s))
        check = Check(err <= tol, err <= GROSS_FACTOR * tol, cf_rel_err=err)
    else:
        err = max(abs(d_gamma), abs(d_sigma2))
        check = Check(err <= tol, err <= GROSS_FACTOR * tol, ref_abs_err=err)
    if not check.ok:
        check.detail = (f"{kind} error {err:.3e} > {tol:g}: gamma off by {d_gamma!r} "
                        f"(ref {ref_g!r}), sigma2 off by {d_sigma2!r} (ref {ref_s!r})")
    return check


class Workload:
    """Base class: a named op mix with its seeded generator."""

    name = ""
    why = ""
    #: Seconds one cycle takes at the seed commit on a 2-vCPU host; sets how
    #: many cycles a run of ``--seconds`` executes.
    CYCLE_S = 1.0
    #: Cycles in one pass over the workload's inputs; a run holds whole passes.
    PASS = 1
    #: Ops start a process, so the run's reference does too.
    CHILD_REFERENCE = False

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self._kernels: Dict[str, object] = {}

    def cycles(self):
        """Endless iterator of cycles (lists of op specs); the same seed
        yields the same sequence."""
        rng = random.Random(self.seed)
        index = 0
        while True:
            ops = self.cycle(rng, index)
            rng.shuffle(ops)
            yield ops
            index += 1

    def cycle(self, rng: random.Random, index: int) -> List[dict]:
        raise NotImplementedError

    def cycle_count(self, seconds: float, even: bool = False) -> int:
        """Cycles in a run of ``seconds``: whole passes, at least one, and an
        even number when ``even``.  It depends on nothing but its arguments,
        so ``attempted`` and ``failed`` repeat exactly from run to run."""
        cycles = self.PASS * max(1, round(seconds / (self.CYCLE_S * self.PASS)))
        return cycles + cycles % 2 if even else cycles

    def warmup_spec(self) -> dict:
        raise NotImplementedError

    def kernel(self, spec: str):
        if spec not in self._kernels:
            self._kernels[spec] = build_kernel(spec)
        return self._kernels[spec]

    def setup(self) -> None:
        """Kernel construction for the first cycle, then one warm-up op."""
        for spec in next(self.cycles()):
            self.prepare(spec)
        warm = self.warmup_spec()
        self.execute(warm, self.prepare(warm))

    def prepare(self, spec: dict):
        """Everything an op needs that is not the timed public call."""
        raise NotImplementedError

    def execute(self, spec: dict, prepared) -> Outcome:
        raise NotImplementedError

    def check(self, spec: dict, outcome: Outcome) -> Check:
        raise NotImplementedError

    @staticmethod
    def path_steps(spec: dict) -> int:
        return 0


class LimitsWorkload(Workload):
    """One ``windwalk.compute_limits`` per op."""

    def prepare(self, spec: dict):
        kernel = self.kernel(spec["kernel"])
        return kernel, build_metric(spec["metric"], kernel.n_windows)

    def execute(self, spec: dict, prepared) -> Outcome:
        kernel, metric = prepared
        constants = windwalk.compute_limits(kernel, metric)
        return Outcome(gamma=constants.gamma, sigma2=constants.sigma2)

    def check(self, spec: dict, outcome: Outcome) -> Check:
        return check_constants(spec["kernel"], spec["metric"], outcome.gamma, outcome.sigma2)


class LimitsScale(LimitsWorkload):
    name = "limits-scale"
    why = ("symmetric N=8..33, word and fenced: dense 2N(N-1) assembly, solves and "
           "jet determinant grow with N")
    #: N strata, named by their lowest N.  The middle stratum holds one N so
    #: that the median op time (which falls in it) reads the same input on
    #: every run.
    STRATA = ((8, 9), (14, 15), (20,), (26, 27), (32, 33))
    CYCLE_S = 5.0
    PASS = 2

    def cycle(self, rng, index):
        # The seed picks each stratum's N for cycle 0; later cycles step through
        # the stratum from there, so a run of whole cycles holds every N evenly.
        if index == 0:
            self._phase = [rng.randrange(len(s)) for s in self.STRATA for _ in METRICS]
        specs = []
        for slot, (stratum, metric) in enumerate((s, m) for s in self.STRATA for m in METRICS):
            n = stratum[(self._phase[slot] + index) % len(stratum)]
            specs.append({"kind": "limits", "kernel": f"symmetric:{n}", "metric": metric,
                          "stratum": f"N{stratum[0]}"})
        return specs

    def warmup_spec(self):
        return {"kind": "limits", "kernel": "symmetric:8", "metric": "word", "stratum": "N8"}


class LimitsEdge(LimitsWorkload):
    name = "limits-edge"
    why = ("N=3 one-parameter q on a log-even lattice over 1e-5..0.49 plus the asymmetric "
           "kernel: fixed-point iteration count sets time and accuracy")
    #: log10 bounds of the q decades; each cycle takes one q from each.
    DECADES = ((-5.0, -4.0), (-4.0, -3.0), (-3.0, -2.0), (-2.0, -1.0), (-1.0, math.log10(0.49)))
    #: Each decade holds PASS log-evenly spaced q values, and a pass of PASS
    #: cycles takes each of them once, in an order the seed draws.  Every run
    #: thus holds the same q values, so its misses do not depend on the seed.
    PASS = 8
    CYCLE_S = 0.35

    @classmethod
    def lattice_q(cls, decade: int, k: int) -> float:
        lo, hi = cls.DECADES[decade]
        return 10.0 ** (lo + (k + 0.5) * (hi - lo) / cls.PASS)

    def cycle(self, rng, index):
        step = index % self.PASS
        if step == 0:
            self._order = [rng.sample(range(self.PASS), self.PASS) for _ in self.DECADES]
        kernels = [f"one_parameter:{self.lattice_q(d, order[step])!r}"
                   for d, order in enumerate(self._order)]
        kernels.append("asymmetric")
        return [{"kind": "limits", "kernel": k, "metric": m} for k in kernels for m in METRICS]

    def warmup_spec(self):
        return {"kind": "limits", "kernel": "asymmetric", "metric": "word"}


class McVerify(Workload):
    name = "mc-verify"
    why = ("verify_lln at 200 paths and verify_clt at 2000 paths on N=3 kernels: "
           "the batched Monte Carlo stepper at two widths")
    KERNELS = ("symmetric:3", "asymmetric")
    COMBOS = tuple((k, m) for k in KERNELS for m in METRICS)
    LLN = {"n_steps": 1000, "n_paths": 200}
    CLT = {"n_steps": 10**4, "n_paths": 2000}
    CYCLE_S = 10.0
    #: A pass of two cycles runs verify_clt once on each kernel, one with each
    #: metric; the seed picks which kernel gets which metric and the order.
    #: The CLT cost differs by up to 25% between kernels, and the two
    #: pairings differ by under 10%.
    PASS = 2

    def cycle(self, rng, index):
        if index % self.PASS == 0:
            self._clt = list(zip(self.KERNELS, rng.sample(METRICS, len(METRICS))))
            rng.shuffle(self._clt)
        ops = [{"kind": "lln", "kernel": k, "metric": m, **self.LLN, "seed": rng.getrandbits(32)}
               for k, m in self.COMBOS + self.COMBOS]
        k, m = self._clt[index % self.PASS]
        ops.append({"kind": "clt", "kernel": k, "metric": m, **self.CLT,
                    "seed": rng.getrandbits(32)})
        return ops

    def warmup_spec(self):
        return {"kind": "lln", "kernel": "symmetric:3", "metric": "word", "n_steps": 1000,
                "n_paths": 200, "seed": 0}

    def prepare(self, spec):
        kernel = self.kernel(spec["kernel"])
        gamma, sigma2, _, _ = reference(spec["kernel"], spec["metric"])
        return kernel, build_metric(spec["metric"], kernel.n_windows), gamma, sigma2

    def execute(self, spec, prepared):
        kernel, metric, gamma, sigma2 = prepared
        if spec["kind"] == "lln":
            report = windwalk.verify_lln(kernel, metric, gamma, n_steps=spec["n_steps"],
                                         n_paths=spec["n_paths"], seed=spec["seed"],
                                         sigma2_ref=sigma2)
        else:
            report = windwalk.verify_clt(kernel, metric, gamma, sigma2, n_steps=spec["n_steps"],
                                         n_paths=spec["n_paths"], seed=spec["seed"])
        return Outcome(report=report)

    def check(self, spec, outcome):
        gamma, sigma2, _, _ = reference(spec["kernel"], spec["metric"])
        rep = outcome.report
        sane = (math.isfinite(rep.gamma_hat) and math.isfinite(rep.sigma2_hat)
                and abs(rep.gamma_hat / gamma - 1.0) <= 0.5
                and 0.5 <= rep.sigma2_hat / sigma2 <= 2.0)
        detail = "" if rep.passed else (
            f"verdicts {rep.passes}: gamma_hat={rep.gamma_hat!r} (ref {gamma!r}), "
            f"sigma2_hat={rep.sigma2_hat!r} (ref {sigma2!r})")
        return Check(rep.passed, sane, detail)

    @staticmethod
    def path_steps(spec):
        # verify_lln runs the paths twice: from the unit and from a non-unit word.
        runs = 2 if spec["kind"] == "lln" else 1
        return runs * spec["n_steps"] * spec["n_paths"]


def run_child(cmd: List[str], cwd: str, timeout: float = CLI_TIMEOUT_S) -> Tuple[int, str, float]:
    """Run one child process to completion; return its exit code, merged
    output and peak resident set in MiB (from ``wait4``)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        output = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, rss_mb(usage.ru_maxrss)


def rss_mb(maxrss: int) -> float:
    """``ru_maxrss`` is in KiB on Linux and in bytes on macOS."""
    return maxrss / (2**20 if sys.platform == "darwin" else 2**10)


class CliCold(Workload):
    name = "cli-cold"
    why = ("fresh-process `windwalk.cli limits --oracle` calls: interpreter start, "
           "import path and CLI layer dominate")
    FAMILIES = ("asymmetric", "one_parameter", "symmetric")
    CYCLE_S = 10.0
    CHILD_REFERENCE = True

    def cycle(self, rng, index):
        ops = []
        for family in self.FAMILIES:
            for metric in METRICS:
                if family == "one_parameter":
                    kernel = f"one_parameter:{round(rng.uniform(0.02, 0.48), 4)!r}"
                elif family == "symmetric":
                    kernel = f"symmetric:{rng.randint(3, 8)}"
                else:
                    kernel = family
                ops.append({"kind": "cli", "kernel": kernel, "metric": metric})
        return ops

    def warmup_spec(self):
        return {"kind": "cli", "kernel": "symmetric:3", "metric": "word"}

    @staticmethod
    def argv(spec) -> List[str]:
        return ["limits", "--kernel", spec["kernel"], "--metric", spec["metric"], "--oracle"]

    def prepare(self, spec):
        return [sys.executable, "-m", "windwalk.cli"] + self.argv(spec)

    def execute(self, spec, prepared):
        code, output, rss = run_child(prepared, cwd=self.root)
        return Outcome(exit_code=code, output=output, peak_rss_mb=rss)

    def check(self, spec, outcome):
        if outcome.exit_code != 0:
            return Check(False, False, f"exit code {outcome.exit_code}: {outcome.output[-500:]}")
        return self.check_payload(spec, outcome.output)

    @staticmethod
    def check_payload(spec, output: str) -> Check:
        """Gate on the CLI's own ``closed_form_delta``."""
        try:
            payload, _ = json.JSONDecoder().raw_decode(output, output.index("{"))
            delta = payload["closed_form_delta"]
            d_gamma, d_sigma2 = float(delta["gamma"]), float(delta["sigma2"])
        except (ValueError, KeyError, TypeError) as exc:
            return Check(False, False, f"unreadable CLI output ({exc}): {output[-500:]}")
        return check_deviation(spec["kernel"], spec["metric"], d_gamma, d_sigma2)


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    cls.name: cls for cls in (LimitsScale, LimitsEdge, McVerify, CliCold)
}


def make_workload(name: str, seed: int, root: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, root)


def timed_op(workload: Workload, spec: dict) -> Tuple[float, Optional[Outcome], Optional[str]]:
    """Run one op's public call; returns (seconds, outcome, error text)."""
    prepared = workload.prepare(spec)
    start = time.perf_counter()
    try:
        outcome = workload.execute(spec, prepared)
    except Exception as exc:  # an op that raises is counted, and the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, None
