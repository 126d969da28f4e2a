"""Command-line front end.

One optional JSON config file supplies defaults; command-line flags always
win.  Unknown config keys are hard errors so typos never silently change a
run.  Exit codes: 0 success, 1 failed statistical check, 2 invalid input,
3 numerical failure (non-convergence or a singular system).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from .chain import (
    KernelError,
    TransitionKernel,
    asymmetric_kernel,
    kernel_to_json,
    one_parameter_kernel,
    simulate,
    symmetric_kernel,
    validate_kernel,
)
from .groupoid import Metric, custom_metric, fenced_metric, word_from_str, word_metric
from .limits import DegenerateSystemError, compute_limits, kms_phi
from .montecarlo import verify_clt, verify_lln
from .oracle import (
    StateSpaceExceeded,
    closed_form,
    dp_hitting_series,
    dp_return_series,
    dp_truncated_G,
)
from .groupoid import Arc
from .solver import SolverError, solve_r, solve_r_derivatives, solution_to_json

EXIT_OK = 0
EXIT_STATISTICAL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

DEFAULT_Q_GRID = [round(0.02 * i, 10) for i in range(1, 25)]  # 0.02 .. 0.48

_COMMON_KEYS = {"kernel", "metric", "seed", "output"}
_ALLOWED_KEYS = {
    "validate": _COMMON_KEYS,
    "solve-r": _COMMON_KEYS | {"lam", "tol", "derivatives"},
    "limits": _COMMON_KEYS | {"tol", "oracle"},
    "sweep-q": _COMMON_KEYS | {"q_grid", "tol"},
    "simulate": _COMMON_KEYS | {"n_steps", "initial"},
    "mc-lln": _COMMON_KEYS | {"n_steps", "n_paths", "gamma", "sigma2"},
    "mc-clt": _COMMON_KEYS | {"n_steps", "n_paths", "gamma", "sigma2"},
    "kms": _COMMON_KEYS | {"n", "x", "z"},
    "oracle-dp": _COMMON_KEYS | {"mode", "target", "window", "max_steps", "lam", "z", "method"},
}


class ConfigError(ValueError):
    pass


def _load_config(path: Optional[str], command: str) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - _ALLOWED_KEYS[command])
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    return raw


def _setting(args, config: dict, key: str, default=None):
    """Flag value if given on the command line, else config, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _build_kernel(spec) -> TransitionKernel:
    if spec is None:
        raise ConfigError("no kernel specified (flag --kernel or config 'kernel')")
    if isinstance(spec, dict):
        return validate_kernel(spec)
    text = str(spec)
    if text == "asymmetric":
        return asymmetric_kernel()
    if text.startswith("symmetric:"):
        return symmetric_kernel(int(text.split(":", 1)[1]))
    if text.startswith("one_parameter:"):
        return one_parameter_kernel(float(text.split(":", 1)[1]))
    with open(text) as fh:
        return validate_kernel(json.load(fh))


def _build_metric(spec, n_windows: int) -> Metric:
    spec = spec if spec is not None else "word"
    if isinstance(spec, dict):
        entries = spec.get("custom")
        if entries is None:
            raise ConfigError("metric object must carry a 'custom' weight list")
        if not isinstance(entries, list):
            raise ConfigError(f"'custom' must be a list of weight entries, got {entries!r}")
        weights = {}
        for index, entry in enumerate(entries):
            try:
                key = (int(entry["i"]), int(entry["j"]), int(entry["k"]))
                value = float(entry["weight"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"entry {index} of the custom metric is malformed ({exc!r}): {entry!r}"
                ) from exc
            i, j, k = key
            if not (1 <= i <= n_windows and 1 <= j <= n_windows and i != j and k in (1, -1)):
                raise ConfigError(f"entry {index} of the custom metric names no arc: {entry!r}")
            weights[key] = value
        return custom_metric(n_windows, weights)
    if spec == "word":
        return word_metric(n_windows)
    if spec == "fenced":
        return fenced_metric(n_windows)
    raise ConfigError(f"unknown metric {spec!r}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: Optional[str]) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def cmd_validate(args, config) -> int:
    try:
        kernel = _build_kernel(_setting(args, config, "kernel"))
    except KernelError as exc:
        _emit_json({"valid": False, "violations": exc.violations}, args.output)
        return EXIT_INVALID
    _emit_json({"valid": True, "kernel": kernel_to_json(kernel), "name": kernel.name}, args.output)
    return EXIT_OK


def cmd_solve_r(args, config) -> int:
    kernel = _build_kernel(_setting(args, config, "kernel"))
    lam = float(_setting(args, config, "lam", 1.0))
    tol = float(_setting(args, config, "tol", 1e-13))
    r = solve_r(kernel, lam, tol=tol)
    derivs = None
    if _setting(args, config, "derivatives", False):
        derivs = solve_r_derivatives(kernel, r)
    _emit_json(solution_to_json(r, derivs), args.output)
    return EXIT_OK


def cmd_limits(args, config) -> int:
    kernel = _build_kernel(_setting(args, config, "kernel"))
    metric = _build_metric(_setting(args, config, "metric"), kernel.n_windows)
    tol = float(_setting(args, config, "tol", 1e-13))
    constants = compute_limits(kernel, metric, tol=tol, check_sigma=False)
    payload = constants.to_json()
    payload["kernel"] = kernel.name
    if abs(constants.h_partials["d_z"]) < 1e-12:
        payload["warning"] = "metric is degenerate: the determinant does not depend on z"
    if _setting(args, config, "oracle", False):
        if kernel.family is not None:
            cf = closed_form(kernel.family[0], **kernel.family[1])
            ref_gamma = cf.gamma_word if metric.name == "word" else cf.gamma_fenced
            ref_sigma2 = cf.sigma2_word if metric.name == "word" else cf.sigma2_fenced
            payload["closed_form"] = cf.to_json()
            payload["closed_form_delta"] = {
                "gamma": constants.gamma - ref_gamma,
                "sigma2": constants.sigma2 - ref_sigma2,
            }
        else:
            payload["closed_form"] = None
    _emit_json(payload, args.output)
    return EXIT_OK


SWEEP_HEADER = ("q,gamma_word,sigma2_word,gamma_F,sigma2_F,"
                "cf_gamma_word,cf_sigma2_word,cf_gamma_F,cf_sigma2_F,delta_max")


def _sweep_row(q: float) -> str:
    kernel = one_parameter_kernel(q)
    cw = compute_limits(kernel, word_metric(3))
    cf_ = compute_limits(kernel, fenced_metric(3))
    cf = closed_form("one_parameter", q=q)
    values = [cw.gamma, cw.sigma2, cf_.gamma, cf_.sigma2]
    refs = [cf.gamma_word, cf.sigma2_word, cf.gamma_fenced, cf.sigma2_fenced]
    delta_max = max(abs(a - b) for a, b in zip(values, refs))
    cells = [repr(float(q))] + [repr(float(v)) for v in values + refs] + [repr(float(delta_max))]
    return ",".join(cells)


def cmd_sweep_q(args, config) -> int:
    grid = _setting(args, config, "q_grid", DEFAULT_Q_GRID)
    if isinstance(grid, str):
        grid = [float(part) for part in grid.split(",")]
    grid = [float(q) for q in grid]
    if any(not (0.0 < q < 0.5) for q in grid):
        raise ConfigError("q grid must lie inside (0, 1/2)")
    rows = [_sweep_row(q) for q in grid]
    _emit("\n".join([SWEEP_HEADER] + rows) + "\n", args.output)
    return EXIT_OK


def cmd_simulate(args, config) -> int:
    kernel = _build_kernel(_setting(args, config, "kernel"))
    metric = _build_metric(_setting(args, config, "metric"), kernel.n_windows)
    n_steps = int(_setting(args, config, "n_steps", 1000))
    seed = int(_setting(args, config, "seed", 0))
    initial_text = _setting(args, config, "initial")
    start = word_from_str(initial_text) if initial_text else word_from_str("e1")
    traj = simulate(start, kernel, n_steps, seed, metric=metric)
    _emit(traj.to_csv(), args.output)
    return EXIT_OK


def _mc_refs(args, config, kernel, metric) -> Tuple[float, float]:
    gamma = _setting(args, config, "gamma")
    sigma2 = _setting(args, config, "sigma2")
    if gamma is None or sigma2 is None:
        constants = compute_limits(kernel, metric)
        gamma = constants.gamma if gamma is None else float(gamma)
        sigma2 = constants.sigma2 if sigma2 is None else float(sigma2)
    return float(gamma), float(sigma2)


def cmd_mc_lln(args, config) -> int:
    kernel = _build_kernel(_setting(args, config, "kernel"))
    metric = _build_metric(_setting(args, config, "metric"), kernel.n_windows)
    gamma, sigma2 = _mc_refs(args, config, kernel, metric)
    seed = int(_setting(args, config, "seed", 0))
    report = verify_lln(
        kernel, metric, gamma,
        n_steps=int(_setting(args, config, "n_steps", 20000)),
        n_paths=int(_setting(args, config, "n_paths", 200)),
        seed=seed, sigma2_ref=sigma2,
    )
    payload = report.to_json()
    payload["gamma_ref"] = gamma
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_STATISTICAL


def cmd_mc_clt(args, config) -> int:
    kernel = _build_kernel(_setting(args, config, "kernel"))
    metric = _build_metric(_setting(args, config, "metric"), kernel.n_windows)
    gamma, sigma2 = _mc_refs(args, config, kernel, metric)
    seed = int(_setting(args, config, "seed", 0))
    report = verify_clt(
        kernel, metric, gamma, sigma2,
        n_steps=int(_setting(args, config, "n_steps", 20000)),
        n_paths=int(_setting(args, config, "n_paths", 2000)),
        seed=seed,
    )
    payload = report.to_json()
    payload["gamma_ref"] = gamma
    payload["sigma2_ref"] = sigma2
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_STATISTICAL


def cmd_kms(args, config) -> int:
    n = int(_setting(args, config, "n", 1))
    x = float(_setting(args, config, "x", 0.0))
    z = float(_setting(args, config, "z", 1.0))
    _emit_json({"n": n, "x": x, "z": z, "phi": kms_phi(n, x, z)}, args.output)
    return EXIT_OK


def cmd_oracle_dp(args, config) -> int:
    kernel = _build_kernel(_setting(args, config, "kernel"))
    mode = _setting(args, config, "mode", "hitting")
    max_steps = int(_setting(args, config, "max_steps", 40))
    method = _setting(args, config, "method", "convolution")
    if mode == "hitting":
        target_text = _setting(args, config, "target")
        if target_text is None:
            raise ConfigError("hitting mode needs --target i,j,k")
        i, j, k = (int(part) for part in str(target_text).split(","))
        series = dp_hitting_series(kernel, Arc(i, j, k), max_steps, method=method)
        payload = {"mode": mode, "target": [i, j, k]}
    elif mode == "return":
        window = int(_setting(args, config, "window", 1))
        series = dp_return_series(kernel, window, max_steps, method=method)
        payload = {"mode": mode, "window": window}
    elif mode == "G":
        window = int(_setting(args, config, "window", 1))
        metric = _build_metric(_setting(args, config, "metric"), kernel.n_windows)
        lam = float(_setting(args, config, "lam", 0.5))
        z = float(_setting(args, config, "z", 1.0))
        value = dp_truncated_G(kernel, metric, window, lam, z, max_steps)
        _emit_json({"mode": mode, "window": window, "lam": lam, "z": z,
                    "max_steps": max_steps, "value": value}, args.output)
        return EXIT_OK
    else:
        raise ConfigError(f"unknown oracle mode {mode!r}")
    payload.update({
        "max_steps": max_steps,
        "method": method,
        "coeffs": [float(c) for c in series.coeffs],
        "total_mass": series.total_mass(),
    })
    _emit_json(payload, args.output)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "solve-r": cmd_solve_r,
    "limits": cmd_limits,
    "sweep-q": cmd_sweep_q,
    "simulate": cmd_simulate,
    "mc-lln": cmd_mc_lln,
    "mc-clt": cmd_mc_clt,
    "kms": cmd_kms,
    "oracle-dp": cmd_oracle_dp,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windwalk",
        description="Drift and variance of the word-length random walk on the "
                    "two-chamber window groupoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--kernel", help="symmetric:N | one_parameter:q | asymmetric | path.json")
        p.add_argument("--metric", help="word | fenced")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--output", help="write result here instead of stdout")

    p = sub.add_parser("validate", help="check a kernel and echo it back")
    common(p)

    p = sub.add_parser("solve-r", help="solve the hitting generating functions at one lambda")
    common(p)
    p.add_argument("--lam", type=float, help="evaluation point in [0, 1] (default 1)")
    p.add_argument("--tol", type=float, help="Newton step tolerance (default 1e-13)")
    p.add_argument("--derivatives", action="store_const", const=True,
                   help="also emit first/second lambda-derivatives")

    p = sub.add_parser("limits", help="compute the drift gamma and variance sigma^2")
    common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--oracle", action="store_const", const=True,
                   help="compare against the closed form of a named family")

    p = sub.add_parser("sweep-q", help="CSV sweep of the one-parameter family")
    common(p)
    p.add_argument("--q-grid", dest="q_grid", help="comma-separated q values in (0, 1/2)")

    p = sub.add_parser("simulate", help="one trajectory as CSV")
    common(p)
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.add_argument("--initial", help="starting word, e.g. e1 or A(1,2,+)A(2,3,-)")

    for name, help_text in (("mc-lln", "Monte Carlo drift check"),
                            ("mc-clt", "Monte Carlo fluctuation check")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--n-steps", dest="n_steps", type=int)
        p.add_argument("--n-paths", dest="n_paths", type=int)
        p.add_argument("--gamma", type=float, help="reference drift (default: computed)")
        p.add_argument("--sigma2", type=float, help="reference variance (default: computed)")

    p = sub.add_parser("kms", help="Toeplitz characteristic-polynomial recurrence value")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--x", type=float)
    p.add_argument("--z", type=float)

    p = sub.add_parser("oracle-dp", help="truncated dynamic-programming series")
    common(p)
    p.add_argument("--mode", choices=["hitting", "return", "G"])
    p.add_argument("--target", help="arc i,j,k for hitting mode")
    p.add_argument("--window", type=int, help="window index for return/G modes")
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--method", choices=["convolution", "words"])
    p.add_argument("--lam", type=float)
    p.add_argument("--z", type=float)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config, args.command)
        return _COMMANDS[args.command](args, config)
    except (ConfigError, KernelError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverError, DegenerateSystemError, StateSpaceExceeded, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
