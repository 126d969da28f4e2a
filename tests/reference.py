"""Reference routes that only the tests call: the dense Jacobian of the flat
system built arc by arc, the float transfer matrices and their spectral
radius, the plain-float determinant that the finite-difference stencils
of ``helpers.fd_partials`` evaluate, a truncated series' partial sum, and
hitting times sampled on the batched chain.

Each one recomputes what the library's pipeline computes, by a different
route, so that the tests can check one against the other.  None of them is
on a library path, CLI command or benchmark.
"""

from __future__ import annotations

import math

import numpy as np

from windwalk._stepper import _BatchState
from windwalk.chain import TransitionKernel
from windwalk.groupoid import Arc, Metric, unit
from windwalk.oracle import TruncatedSeries
from windwalk.solver import DEFAULT_TOL, RSolution, solve_r, system_matrices


def build_m_matrix(
    kernel: TransitionKernel, lam: float, values: np.ndarray
) -> np.ndarray:
    """Jacobian-style matrix of the system linearised at ``values``.

    Entry cases: same-(j, k) column block lam*p, opposite-sign block
    lam*p*R, and the diagonal lam * sum of opposite-sign return terms.
    """
    _, _, a1, c = system_matrices(kernel)
    return lam * (a1 + np.diag(c @ values) + np.diag(values) @ c)


def to_flat(matrix: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a (2, N, N) array in ``IndexMap`` order."""
    n = matrix.shape[-1]
    return matrix[:, ~np.eye(n, dtype=bool)].reshape(-1)


def primitivity_pattern_ok(matrix: np.ndarray) -> bool:
    """True when the 0/1 pattern of the matrix cubed is all ones."""
    pattern = (matrix > 0).astype(np.int64)
    return bool((np.linalg.matrix_power(pattern, 3) > 0).all())


def b_matrix_values(r: RSolution, weights: np.ndarray, z: float) -> np.ndarray:
    """Plain float (2, N, N) array of z^w R values (constant terms), one
    N x N block per sign, from the metric's weights ``Metric.W``."""
    return z ** weights * r.values


def spectral_radius_k(
    kernel: TransitionKernel,
    metric: Metric,
    lam: float,
    z: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Spectral radius of the period-2 block matrix K = [[0, B(+1)], [B(-1), 0]]
    at (lam, z).  K^2 = diag(B(+1) B(-1), B(-1) B(+1)), so rho(K) is the
    square root of the spectral radius of B(+1) B(-1), read off its
    eigenvalues: the product is non-negative, so by Perron-Frobenius its
    largest eigenvalue in modulus is its Perron root."""
    if not (0.0 < lam <= 1.0 and 0.0 < z <= 1.0):
        raise ValueError("spectral radius is evaluated for lam, z in (0, 1]")
    b_plus, b_minus = b_matrix_values(solve_r(kernel, lam, tol=tol), metric.W, z)
    return math.sqrt(float(np.abs(np.linalg.eigvals(b_plus @ b_minus)).max()))


def direct_h(
    kernel: TransitionKernel,
    metric: Metric,
    lam: float,
    z: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Plain-float determinant det[I - B(+1)B(-1)] with R freshly solved at
    ``lam``; the finite-difference oracle against the jet pipeline."""
    r = solve_r(kernel, lam, tol=tol)
    n = kernel.n_windows
    b_plus, b_minus = b_matrix_values(r, metric.W, z)
    return float(np.linalg.det(np.eye(n) - b_plus @ b_minus))


def series_eval(series: TruncatedSeries, lam: float) -> float:
    """The partial sum of ``series.coeffs[m] * lam**m`` over m <= M."""
    powers = lam ** np.arange(len(series.coeffs))
    return float(series.coeffs @ powers)


def batch_top(state: _BatchState) -> np.ndarray:
    """The code of each path's top letter; the sentinel 0 for an empty word."""
    return state._flat.take(state.pos)


def sample_hitting_times(
    target: Arc,
    kernel: TransitionKernel,
    cap: int,
    seed: int,
    n_samples: int,
) -> np.ndarray:
    """I.i.d. first times the chain from the unit of ``target.i`` is the
    one-letter word ``target``; -1 marks censoring at ``cap``, which a
    positive fraction of samples reach, as the chain is transient.

    Every path stays in the batch to the end.  A path that hits leaves the
    ``running`` mask and keeps stepping, its later steps ignored, and the
    loop stops once no path is running."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    kernel.check_windows(target.i, target.j)
    state = _BatchState(kernel, [(unit(target.i), seed, 0, n_samples)], max_steps=cap)
    # Every path starts at window target.i, so its first letter leaves
    # target.i, and a one-letter word is the target arc exactly when that
    # letter's code and the end window match.  A top position below
    # 2 * n_samples means a depth of at most 1, and the empty word's sentinel
    # code never equals `first`.
    first = state.rules.code(target.i, target.k)
    times = np.full(n_samples, -1, dtype=np.int64)
    running = np.ones(n_samples, dtype=bool)
    for n in range(1, cap + 1):
        if not running.any():
            break
        state.advance()
        hit = running & (batch_top(state) == first) & (state.pos < 2 * n_samples) & (state.target == target.j)
        times[hit] = n
        running &= ~hit
    return times
