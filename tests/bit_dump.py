"""Print the solver's and the limits' results bit for bit, one line per
kernel and lambda, so that two versions of the code can be compared with
``cmp``: a change that claims the same numbers must print the same text.

Each line names the kernel and lambda (1 and 0.6), then gives SHA-256
prefixes of R, d1 and d2, the Newton step count and ``residual.hex()``,
and the root's ``fallback_columns`` on the structured path (``-`` on the
dense one).  The lambda = 1 line then gives gamma, sigma^2, rho - 1 and the
five partials as ``float.hex`` for the word and the fenced metric.  A
refusal prints its type and message in place of what it stopped.

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
about its sensitivity, however right both roots are.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from typing import Iterable, Iterator, List

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
    system = r.system
    fallback = (solver.LinearisedSystem(kernel.P, lam, system.r, system.u).fallback_columns
                if isinstance(system, solver._ChamberNewton) else "-")
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
        root, system = r.system.r.copy(), r.system
        moves = [np.zeros(2) for _ in metrics]
        for seed in range(ULP_DRAWS):
            up = np.random.default_rng(seed).random(root.shape) < 0.5
            nudged = np.nextafter(root, np.where(up, np.inf, -np.inf))
            if nudged.ndim == 3:
                solver._offdiag(nudged)
            # The defect at the nudged root keeps what the derivatives read.
            system.defect(nudged)
            got = _gamma_sigma2(dataclasses.replace(r, values=system.values(nudged)), metrics)
            for move, want, value in zip(moves, base, got):
                np.maximum(move, np.abs(value - want) / np.abs(want), out=move)
    except REFUSALS as exc:
        return f"{kernel.name} {_refusal(exc)}"
    return " | ".join([kernel.name] + [f"{m.name} gamma={g:.1e} sigma2={s:.1e}"
                                       for m, (g, s) in zip(metrics, moves)])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Print the solver's results bit for bit.")
    parser.add_argument("kernels", nargs="*", help="kernel texts, as --kernel takes them")
    parser.add_argument("--ulp", action="store_true",
                        help="print the one-ulp sensitivity of gamma and sigma^2 instead")
    args = parser.parse_args(argv)
    chosen = [_build_kernel(text) for text in args.kernels] if args.kernels else kernels()
    lines = map(ulp_line, chosen) if args.ulp else dump(chosen)
    sys.stdout.writelines(text + "\n" for text in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
