"""Command-line front end.

Each subcommand's parser is the one table of its settings: one flag per
setting, with its default.  An optional JSON config file replaces those
defaults, so flags still win.  Its keys are the command's flag names with
dashes written as underscores, and each value goes through its flag's own
conversion.  Unknown keys and values the conversion rejects are hard errors,
as is an unknown key in a metric object or an arc entry
(``groupoid.arc_table``), so typos never silently change a run.  Exit
codes: 0 success, 1 failed statistical check, 2 invalid input (an input too
large to allocate, or a result that JSON cannot hold, included), 3
numerical failure (non-convergence or a singular system), 141 standard
output closed by its reader (128 + SIGPIPE, as a shell reports it).

``run`` is the script entry (``python -m windwalk.cli`` and the installed
``windwalk`` command) and ``main`` the in-process API; only ``run`` touches
the garbage collector.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Tuple

import numpy as np

from .chain import (
    KernelError,
    TransitionKernel,
    kernel_to_json,
    one_parameter_kernel,
    simulate,
    validate_kernel,
)
from .groupoid import (Arc, Metric, arc_table, custom_metric, fenced_metric, whole_number,
                       word_from_str, word_metric)
from .limits import DegenerateSystemError, build_b, compute_limits, kms_phi, limits_from_jets
from .montecarlo import verify_clt, verify_lln
from .oracle import closed_form, dp_hitting_series, dp_return_series, dp_truncated_G
from .solver import DEFAULT_TOL, SolverError, solve_r, solve_r_derivatives, solution_to_json

EXIT_OK = 0
EXIT_STATISTICAL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_CLOSED_STDOUT = 141

DEFAULT_Q_GRID = [round(0.02 * i, 10) for i in range(1, 25)]  # 0.02 .. 0.48


class _Parser(argparse.ArgumentParser):
    """argparse drops every ``OSError`` of a message's write.  This parser
    lets ``BrokenPipeError`` out of a write to stdout, so that ``--help``
    into a closed pipe exits 141 also when stdout is unbuffered;
    ``add_subparsers`` makes each command's parser of this class too."""

    def _print_message(self, message, file=None):
        if file is None or file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            file.write(message)
        except BrokenPipeError:
            raise
        except OSError:
            pass


def _apply_config(parser: argparse.ArgumentParser, command: str, path: str) -> None:
    """Make the JSON object in ``path`` the defaults of ``command``'s flags.

    argparse lists a parser's actions only in its private ``_actions``.
    """
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
    sub = commands[command]
    flags = {action.dest: action for action in sub._actions
             if action.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(unknown)}")
    sub.set_defaults(**{key: _config_value(key, value, flags[key])
                        for key, value in config.items()})


def _config_value(key: str, value, action: argparse.Action):
    """``value`` after its flag's conversion and choices.  JSON true and false
    set switches and nothing else.  The conversion may parse text, but it
    must not change any other value, as ``int`` would change 2.5."""
    converted = value
    valid = isinstance(value, bool) == (action.nargs == 0)
    if valid and action.type is not None:
        try:
            converted = action.type(value)
        except (TypeError, ValueError, OverflowError):
            valid = False
        else:
            valid = isinstance(value, str) or converted == value
    if not valid or (action.choices is not None and converted not in action.choices):
        raise ValueError(f"invalid value {value!r} for config key {key!r}")
    return converted


def _text(value) -> str:
    """A flag's text; a config value must be a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _q_grid(value) -> List[float]:
    """Comma-separated text, or a JSON list, of q values."""
    return [float(q) for q in (value.split(",") if isinstance(value, str) else value)]


def _build_kernel(spec) -> TransitionKernel:
    """The kernel that ``validate_kernel`` reads from a JSON object, a kernel
    file's path or a family's text: ``symmetric:N`` is ``{"symmetric": {"N": "N"}}``.
    An error in a family's text quotes that text, not the object it stands for."""
    if spec is None:
        raise ValueError("no kernel specified (flag --kernel or config 'kernel')")
    if isinstance(spec, dict):
        return validate_kernel(spec)
    text = str(spec)
    if text == "asymmetric":
        raw = {"asymmetric": {}}
    elif text.startswith("symmetric:"):
        raw = {"symmetric": {"N": text.split(":", 1)[1]}}
    elif text.startswith("one_parameter:"):
        raw = {"one_parameter_q": {"q": text.split(":", 1)[1]}}
    else:
        with open(text) as fh:
            return validate_kernel(json.load(fh))
    try:
        return validate_kernel(raw)
    except KernelError as exc:
        # A malformed value's cause is the conversion's own message, which
        # quotes the bad value.
        reason = exc.__cause__ or exc
        raise KernelError([f"--kernel text {text!r} is invalid: {reason}"]) from exc


def _build_metric(spec, n_windows: int) -> Metric:
    if isinstance(spec, dict):
        if list(spec) != ["custom"]:
            raise ValueError(f"metric object must carry a 'custom' weight list and no other "
                             f"key, got keys {list(spec)!r}")
        weights = arc_table(spec["custom"], "weight", "the custom metric")
        stray = [f"entry {n} of the custom metric names no arc: {spec['custom'][n]!r}"
                 for n, (i, j, k) in enumerate(weights)
                 if i == j or min(i, j) < 1 or max(i, j) > n_windows or k not in (1, -1)]
        if stray:
            raise ValueError("; ".join(stray))
        return custom_metric(n_windows, weights)
    if spec == "word":
        return word_metric(n_windows)
    if spec == "fenced":
        return fenced_metric(n_windows)
    raise ValueError(f"unknown metric {spec!r}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: Optional[str]) -> None:
    # NaN and Infinity are not JSON: json.dumps raises ValueError on them.
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", output)


def cmd_validate(args) -> int:
    try:
        kernel = _build_kernel(args.kernel)
    except KernelError as exc:
        _emit_json({"valid": False, "violations": exc.violations}, args.output)
        return EXIT_INVALID
    _emit_json({"valid": True, "kernel": kernel_to_json(kernel), "name": kernel.name}, args.output)
    return EXIT_OK


def cmd_solve_r(args) -> int:
    kernel = _build_kernel(args.kernel)
    r = solve_r(kernel, args.lam, tol=args.tol)
    derivs = solve_r_derivatives(r) if args.derivatives else None
    _emit_json(solution_to_json(r, derivs), args.output)
    return EXIT_OK


def cmd_limits(args) -> int:
    kernel = _build_kernel(args.kernel)
    metric = _build_metric(args.metric, kernel.n_windows)
    constants = compute_limits(kernel, metric, tol=args.tol, check_sigma=False)
    payload = constants.to_json()
    payload["kernel"] = kernel.name
    # Every arc of a valid kernel has a positive frequency, so the root
    # moves with z unless every weight is 0.
    if not metric.W.any():
        payload["warning"] = "metric is degenerate: the Perron root does not depend on z"
    if args.oracle:
        payload["closed_form"] = None
        if kernel.family is not None:
            cf = closed_form(kernel.family[0], **kernel.family[1])
            payload["closed_form"] = cf.to_json()
            refs = cf.constants(metric.name)
            if refs is not None:
                payload["closed_form_delta"] = {"gamma": constants.gamma - refs[0],
                                                "sigma2": constants.sigma2 - refs[1]}
    _emit_json(payload, args.output)
    return EXIT_OK


SWEEP_HEADER = ("q,gamma_word,sigma2_word,gamma_F,sigma2_F,"
                "cf_gamma_word,cf_sigma2_word,cf_gamma_F,cf_sigma2_F,delta_max")


def _sweep_row(q: float) -> str:
    r = solve_r(one_parameter_kernel(q), 1.0)
    derivs = solve_r_derivatives(r)
    word, fenced = (limits_from_jets(build_b(r, derivs, m.W), m.name)
                    for m in (word_metric(3), fenced_metric(3)))
    cf = closed_form("one_parameter", q=q)
    values = [word.gamma, word.sigma2, fenced.gamma, fenced.sigma2]
    refs = [*cf.constants("word"), *cf.constants("fenced")]
    delta_max = max(abs(a - b) for a, b in zip(values, refs))
    cells = [repr(float(q))] + [repr(float(v)) for v in values + refs] + [repr(float(delta_max))]
    return ",".join(cells)


def cmd_sweep_q(args) -> int:
    rows = [_sweep_row(q) for q in args.q_grid]
    _emit("\n".join([SWEEP_HEADER] + rows) + "\n", args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    kernel = _build_kernel(args.kernel)
    metric = _build_metric(args.metric, kernel.n_windows)
    traj = simulate(word_from_str(args.initial), kernel, args.n_steps, args.seed, metric=metric)
    _emit(traj.to_csv(), args.output)
    return EXIT_OK


def _mc_refs(args, kernel, metric) -> Tuple[float, float]:
    gamma, sigma2 = args.gamma, args.sigma2
    if gamma is None or sigma2 is None:
        constants = compute_limits(kernel, metric)
        gamma = constants.gamma if gamma is None else gamma
        sigma2 = constants.sigma2 if sigma2 is None else sigma2
    return float(gamma), float(sigma2)


def cmd_mc_lln(args) -> int:
    kernel = _build_kernel(args.kernel)
    metric = _build_metric(args.metric, kernel.n_windows)
    gamma, sigma2 = _mc_refs(args, kernel, metric)
    report = verify_lln(kernel, metric, gamma, n_steps=args.n_steps, n_paths=args.n_paths,
                        seed=args.seed, sigma2_ref=sigma2)
    payload = report.to_json()
    payload["gamma_ref"] = gamma
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_STATISTICAL


def cmd_mc_clt(args) -> int:
    kernel = _build_kernel(args.kernel)
    metric = _build_metric(args.metric, kernel.n_windows)
    gamma, sigma2 = _mc_refs(args, kernel, metric)
    report = verify_clt(kernel, metric, gamma, sigma2, n_steps=args.n_steps,
                        n_paths=args.n_paths, seed=args.seed)
    payload = report.to_json()
    payload["gamma_ref"] = gamma
    payload["sigma2_ref"] = sigma2
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_STATISTICAL


def cmd_kms(args) -> int:
    _emit_json({"n": args.n, "x": args.x, "z": args.z, "phi": kms_phi(args.n, args.x, args.z)},
               args.output)
    return EXIT_OK


def cmd_oracle_dp(args) -> int:
    kernel = _build_kernel(args.kernel)
    mode, max_steps = args.mode, args.max_steps
    if mode == "hitting":
        if args.target is None:
            raise ValueError("hitting mode needs --target i,j,k")
        try:
            i, j, k = (whole_number(part) for part in args.target.split(","))
        except ValueError:
            raise ValueError(
                f"--target must be i,j,k, three integers, got {args.target!r}") from None
        coeffs = dp_hitting_series(kernel, Arc(i, j, k), max_steps)
        payload = {"mode": mode, "target": [i, j, k]}
    elif mode == "return":
        coeffs = dp_return_series(kernel, args.window, max_steps)
        payload = {"mode": mode, "window": args.window}
    else:
        metric = _build_metric(args.metric, kernel.n_windows)
        value = dp_truncated_G(kernel, metric, args.window, args.lam, args.z, max_steps)
        _emit_json({"mode": mode, "window": args.window, "lam": args.lam, "z": args.z,
                    "max_steps": max_steps, "value": value}, args.output)
        return EXIT_OK
    payload.update({
        "max_steps": max_steps,
        "method": "convolution",
        "coeffs": coeffs.tolist(),
        "total_mass": float(coeffs.sum()),
    })
    _emit_json(payload, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="windwalk",
        description="Drift and variance of the word-length random walk on the "
                    "two-chamber window groupoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text, kernel=True, metric=False, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", type=_text, help="write result here instead of stdout")
        if kernel:
            p.add_argument("--kernel",
                           help="symmetric:N | one_parameter:q | asymmetric | path.json")
        if metric:
            p.add_argument("--metric", default="word", help="word | fenced")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed")
        return p

    command("validate", cmd_validate, "check a kernel and echo it back")

    p = command("solve-r", cmd_solve_r, "solve the hitting generating functions at one lambda")
    p.add_argument("--lam", type=float, default=1.0, help="evaluation point in [0, 1] (default 1)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="Newton step tolerance (default %(default)g)")
    p.add_argument("--derivatives", action="store_true",
                   help="also emit first/second lambda-derivatives")

    p = command("limits", cmd_limits, "compute the drift gamma and variance sigma^2",
                metric=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="Newton step tolerance (default %(default)g)")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the closed form of a named family")

    p = command("sweep-q", cmd_sweep_q, "CSV sweep of the one-parameter family", kernel=False)
    p.add_argument("--q-grid", dest="q_grid", type=_q_grid, default=DEFAULT_Q_GRID,
                   help="comma-separated q values in (0, 1/2)")

    p = command("simulate", cmd_simulate, "one trajectory as CSV", metric=True, seed=True)
    p.add_argument("--n-steps", dest="n_steps", type=int, default=1000)
    p.add_argument("--initial", type=_text, default="e1",
                   help="starting word, e.g. e1 or A(1,2,+)A(2,3,-)")

    for name, run, n_paths, help_text in (
            ("mc-lln", cmd_mc_lln, 200, "Monte Carlo drift check"),
            ("mc-clt", cmd_mc_clt, 2000, "Monte Carlo fluctuation check")):
        p = command(name, run, help_text, metric=True, seed=True)
        p.add_argument("--n-steps", dest="n_steps", type=int, default=20000)
        p.add_argument("--n-paths", dest="n_paths", type=int, default=n_paths)
        p.add_argument("--gamma", type=float, help="reference drift (default: computed)")
        p.add_argument("--sigma2", type=float, help="reference variance (default: computed)")

    p = command("kms", cmd_kms, "Toeplitz characteristic-polynomial recurrence value",
                kernel=False)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--z", type=float, default=1.0)

    p = command("oracle-dp", cmd_oracle_dp, "truncated dynamic-programming series",
                metric=True)
    p.add_argument("--mode", choices=["hitting", "return", "G"], default="hitting")
    p.add_argument("--target", type=_text, help="arc i,j,k for hitting mode")
    p.add_argument("--window", type=int, default=1, help="window index for return/G modes")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=40)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--z", type=float, default=1.0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    # argparse's negative-number pattern (Python 3.11) has no exponent form,
    # so it takes `--tol -1e-13` for two options: join such a value to its flag.
    argv = list(sys.argv[1:] if argv is None else argv)
    for n in range(len(argv) - 1, 0, -1):
        flag = argv[n - 1]
        if (flag.startswith("--") and "=" not in flag
                and re.fullmatch(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+", argv[n])):
            argv[n - 1 : n + 1] = [f"{flag}={argv[n]}"]
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(parser, args.command, args.config)
            args = parser.parse_args(argv)
        return args.run(args)
    except BrokenPipeError:
        return _stdout_closed()
    # LinAlgError is a ValueError, and KernelError and json.JSONDecodeError
    # are too: the numerical clause goes first.
    except (SolverError, DegenerateSystemError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _stdout_closed() -> int:
    """Point fd 1 at ``os.devnull``, so that the interpreter's final flush of
    whatever stdout still buffers cannot fail again (the ``signal`` module
    docs' recipe), and give the status of a writer whose reader left."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return EXIT_CLOSED_STDOUT


def run(argv: Optional[List[str]] = None) -> int:
    """The script entry: ``main(argv)`` with stdout flushed, also when
    argparse exits for ``--help`` or a usage error.  Every way out freezes
    the collector's heap once, so the exit-time collections skip every
    object the process built; atexit handlers and the final flushes still
    run."""
    import gc  # built in; imported here, `import windwalk.cli` does not load it

    try:
        try:
            return main(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
