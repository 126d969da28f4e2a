"""Print the solver's and the limits' results bit for bit, one line per
kernel and lambda, so that two versions of the code can be compared with
``cmp``: a change that claims the same numbers must print the same text.

Each line names the kernel and lambda (1 and 0.6), then gives SHA-256
prefixes of R, d1 and d2, the Newton step count and ``residual.hex()``,
and on the structured path the ``fallback_columns`` of the factorisation
that the ``RSolution`` keeps at the root (``-`` on the dense path).  The
lambda = 1 line then gives gamma, sigma^2, rho - 1 and the five partials
as ``float.hex`` for the word and the fenced metric.  A refusal prints its
type and message in place of what it stopped.

The kernels are the asymmetric one, the symmetric ones for N in 3..10, 12,
20 and 33, 40 log-spaced one-parameter q over 1e-5..0.49, and the seeded
Dirichlet kernels of ``helpers.dirichlet_kernel`` for N = 4..12,
concentrations 1, 0.1, 0.01, 0.003 and 0.001 and seeds 0 to 3.  Kernel
texts as the CLI's ``--kernel`` takes them (``asymmetric``,
``symmetric:8``) dump those kernels instead.  To compare two checkouts::

    PYTHONPATH=<old>/src python tests/bit_dump.py > old.txt
    PYTHONPATH=<new>/src python tests/bit_dump.py > new.txt
    cmp old.txt new.txt

``--ulp`` prints instead, one line per kernel, the one-ulp sensitivity of
gamma and sigma^2 for each metric: their largest relative move when every
entry of the root at lambda = 1 is nudged one ulp by ``np.nextafter``, up
or down as ``ULP_DRAWS`` seeded draws pick, before the derivatives and the
jets are formed.  A change that rounds R differently can move an output by
about its sensitivity, however right both roots are.  On the structured
path the derivatives read the factorisation that ``solve_r`` stopped in, so
each nudge rebuilds it at the nudged root.

``--moves OLD NEW`` reads two such dumps and lists, one line per kernel,
each kernel whose gamma or sigma^2 at lambda = 1 moved more than
``MOVE_TOL`` relative, or whose refusal came or went: its step count and
residual in both, the relative move of each metric's gamma and sigma^2,
and its ``--ulp`` sensitivity under the code that runs it::

    PYTHONPATH=<new>/src python tests/bit_dump.py --moves old.txt new.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from windwalk import solver
from windwalk.chain import TransitionKernel, asymmetric_kernel, one_parameter_kernel, symmetric_kernel
from windwalk.cli import _build_kernel
from windwalk.groupoid import fenced_metric, word_metric
from windwalk.limits import DegenerateSystemError, build_b, limits_from_jets

from helpers import dirichlet_kernel

LAMBDAS = (1.0, 0.6)
PARTIALS = ("d_lambda", "d_z", "d2_lambda", "d_lambda_z", "d2_z")
#: What the library raises to refuse a kernel; anything else stops the dump.
REFUSALS = (solver.SolverError, DegenerateSystemError, ValueError)
#: The seeded up-or-down draws over the root's entries that ``--ulp`` takes.
ULP_DRAWS = 4
#: The relative move of gamma or sigma^2 above which ``--moves`` lists a kernel.
MOVE_TOL = 1e-13


def kernels() -> Iterator[TransitionKernel]:
    yield asymmetric_kernel()
    for n in (*range(3, 11), 12, 20, 33):
        yield symmetric_kernel(n)
    for q in np.geomspace(1e-5, 0.49, 40):
        yield one_parameter_kernel(float(q))
    for n in range(4, 13):
        for concentration in (1.0, 0.1, 0.01, 0.003, 0.001):
            for seed in range(4):
                yield dirichlet_kernel(n, concentration, seed)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _refusal(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _limits(r, derivs, metric) -> str:
    try:
        c = limits_from_jets(build_b(r, derivs, metric.W), metric.name)
    except REFUSALS as exc:
        return f"{metric.name} {_refusal(exc)}"
    values = [c.gamma, c.sigma2, c.rho_minus_one] + [c.rho_partials[p] for p in PARTIALS]
    return f"{metric.name} " + " ".join(float(v).hex() for v in values)


def line(kernel: TransitionKernel, lam: float) -> str:
    head = f"{kernel.name} lam={lam!r}"
    try:
        r = solver.solve_r(kernel, lam)
        derivs = solver.solve_r_derivatives(r)
    except REFUSALS as exc:
        return f"{head} {_refusal(exc)}"
    linear = getattr(r.system, "linear", None)
    fallback = "-" if linear is None else linear.fallback_columns
    cells = [head, f"R={_sha(r.values)}", f"d1={_sha(derivs.d1)}", f"d2={_sha(derivs.d2)}",
             f"steps={r.iterations}", f"residual={r.residual.hex()}", f"fallback={fallback}"]
    if lam == 1.0:
        n = kernel.n_windows
        cells += [_limits(r, derivs, m) for m in (word_metric(n), fenced_metric(n))]
    return " | ".join(cells)


def dump(chosen: Iterable[TransitionKernel]) -> Iterator[str]:
    for kernel in chosen:
        for lam in LAMBDAS:
            yield line(kernel, lam)


def _gamma_sigma2(r, metrics) -> List[np.ndarray]:
    """(gamma, sigma^2) of each metric, from the root ``r``."""
    derivs = solver.solve_r_derivatives(r)
    out = []
    for m in metrics:
        c = limits_from_jets(build_b(r, derivs, m.W), m.name)
        out.append(np.array([c.gamma, c.sigma2]))
    return out


def ulp_line(kernel: TransitionKernel) -> str:
    """The kernel's one-ulp sensitivity of gamma and sigma^2, per metric."""
    n = kernel.n_windows
    metrics = (word_metric(n), fenced_metric(n))
    try:
        r = solver.solve_r(kernel, 1.0)
        base = _gamma_sigma2(r, metrics)
        root, system, p = r.system.r.copy(), r.system, kernel.P
        moves = [np.zeros(2) for _ in metrics]
        for seed in range(ULP_DRAWS):
            up = np.random.default_rng(seed).random(root.shape) < 0.5
            nudged = np.nextafter(root, np.where(up, np.inf, -np.inf))
            if nudged.ndim == 3:
                # The factorisation at the nudged root, which the derivatives read.
                solver._offdiag(nudged)
                system.r, system.u = nudged, solver._diag_of_product(p, nudged)
                system.linear = solver.LinearisedSystem(p, 1.0, system.u)
                system.linear.couple(nudged)
            else:
                # The defect at the nudged root keeps what the derivatives read.
                system.defect(nudged)
            got = _gamma_sigma2(dataclasses.replace(r, values=system.values(nudged)), metrics)
            for move, want, value in zip(moves, base, got):
                np.maximum(move, np.abs(value - want) / np.abs(want), out=move)
    except REFUSALS as exc:
        return f"{kernel.name} {_refusal(exc)}"
    return " | ".join([kernel.name] + [f"{m.name} gamma={g:.1e} sigma2={s:.1e}"
                                       for m, (g, s) in zip(metrics, moves)])


def _outcomes(path: str) -> Dict[str, Tuple[str, Dict[str, object]]]:
    """Per kernel, from a dump's lambda = 1 lines: the solve's step count and
    residual, or its refusal, and each metric's (gamma, sigma^2), or its
    refusal, in the dump's order."""
    out = {}
    with open(path) as f:
        for text in f:
            head, _, rest = text.rstrip("\n").partition(" lam=1.0")
            if not rest:
                continue
            cells = rest.split(" | ")
            if len(cells) == 1:
                out[head] = (cells[0].strip(), {})
                continue
            residual = float.fromhex(cells[5].partition("=")[2])
            metrics = {}
            for cell in cells[7:]:
                name, _, values = cell.partition(" ")
                words = values.split()
                metrics[name] = (values if words[0].endswith(":")
                                 else (float.fromhex(words[0]), float.fromhex(words[1])))
            out[head] = (f"{cells[4]} residual={residual:.1e}", metrics)
    return out


def moves_lines(old_path: str, new_path: str, chosen: Iterable[TransitionKernel]) -> Iterator[str]:
    """One line per kernel in both dumps whose gamma or sigma^2 moved more
    than ``MOVE_TOL`` relative, or whose refusal came, went or changed: the
    solve at both, each metric's relative moves or refusals, and the
    kernel's one-ulp sensitivity."""
    by_name = {kernel.name: kernel for kernel in chosen}
    old, new = _outcomes(old_path), _outcomes(new_path)
    for name in (name for name in old if name in new):
        (old_solve, old_metrics), (new_solve, new_metrics) = old[name], new[name]
        cells = [name, f"{old_solve} -> {new_solve}"]
        # A refused solve has no metrics; its refusal counts as a move once it changes.
        moved = not (old_metrics and new_metrics) and old_solve != new_solve
        for metric in dict.fromkeys([*old_metrics, *new_metrics]):
            was, now = old_metrics.get(metric, "refused"), new_metrics.get(metric, "refused")
            if isinstance(was, tuple) and isinstance(now, tuple):
                rel = [abs(b - a) / abs(a) if a else abs(b) for a, b in zip(was, now)]
                moved |= max(rel) > MOVE_TOL
                cells.append(f"{metric} gamma={rel[0]:.1e} sigma2={rel[1]:.1e}")
            else:
                moved |= was != now
                cells.append(f"{metric} {was} -> {now}")
        if moved:
            kernel = by_name.get(name)
            ulp = ulp_line(kernel)[len(name):].lstrip(" |") if kernel else "no kernel of that name"
            yield " | ".join(cells + [f"ulp {ulp}"])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Print the solver's results bit for bit.")
    parser.add_argument("kernels", nargs="*", help="kernel texts, as --kernel takes them")
    parser.add_argument("--ulp", action="store_true",
                        help="print the one-ulp sensitivity of gamma and sigma^2 instead")
    parser.add_argument("--moves", nargs=2, metavar=("OLD", "NEW"),
                        help="list the kernels whose gamma or sigma^2 moved between two dumps")
    args = parser.parse_args(argv)
    chosen = [_build_kernel(text) for text in args.kernels] if args.kernels else kernels()
    if args.moves:
        lines = moves_lines(*args.moves, chosen)
    else:
        lines = map(ulp_line, chosen) if args.ulp else dump(chosen)
    sys.stdout.writelines(text + "\n" for text in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
