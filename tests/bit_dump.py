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
"""

from __future__ import annotations

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
        c = limits_from_jets(build_b(r, derivs, metric.W, +1), build_b(r, derivs, metric.W, -1),
                             metric.name)
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


def main(argv: List[str]) -> int:
    chosen = [_build_kernel(text) for text in argv] if argv else kernels()
    sys.stdout.writelines(text + "\n" for text in dump(chosen))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
