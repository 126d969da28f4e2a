"""Assemble the chamber matrices, differentiate the determinant
h(lam, z) = det[I - B(+1) B(-1)] through second-order jets, and produce the
drift and variance of the limit theorems.

A matrix of jets is a (6, N, N) coefficient array (see ``windwalk.jets``):
``build_b`` fills it from the matrix form of R and its two lambda
derivatives, ``det_h`` forms ``B(+1) B(-1)`` with 15 float matrix products,
and ``det_jet`` eliminates over the jet ring with whole-row array
operations, so an N-window kernel costs O(N^3) here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from .chain import TransitionKernel
from .groupoid import Metric, weight_array
from .jets import Jet2, jet_inverse, jet_mul
from .solver import (
    RDerivatives,
    RSolution,
    SolverError,
    perron_root,
    solve_r,
    solve_r_derivatives,
)

PIVOT_EPS = 1e-14
SIMPLE_ZERO_TOL = 1e-10


class DegenerateSystemError(RuntimeError):
    """The determinant or its lambda-slope degenerates; upstream inputs are bad."""


@dataclass
class LimitConstants:
    gamma: float
    sigma2: float
    h_value: float
    h_partials: Dict[str, float]
    metric: str

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "sigma2": self.sigma2,
            "h_value": self.h_value,
            "h_partials": dict(self.h_partials),
            "metric": self.metric,
        }


def build_b(
    r: RSolution,
    derivs: RDerivatives,
    weights: np.ndarray,
    sign: int,
) -> np.ndarray:
    """(6, N, N) jet array with entries z^w(i,j,sign) * R_{i,j}^{(sign)}(lam),
    from the metric's (2, N, N) ``weight_array``; the diagonal is zero."""
    s = (1 - sign) // 2
    value, d1, d2 = r.values[s], derivs.d1[s], derivs.d2[s]
    w = weights[s]
    # z^w = 1 + w dz + w(w-1)/2 dz^2 times value + d1 dl + d2/2 dl^2.
    return np.stack([value, d1, w * value, 0.5 * d2, w * d1, 0.5 * w * (w - 1.0) * value])


JetMatrix = Union[np.ndarray, List[List[Jet2]]]


def _jet_array(matrix: JetMatrix) -> np.ndarray:
    """A float copy of a jet matrix as a (6, n, n) coefficient array."""
    if isinstance(matrix, np.ndarray):
        return np.array(matrix, dtype=float)
    coefficients = [[(x.c00, x.c10, x.c01, x.c20, x.c11, x.c02) for x in row] for row in matrix]
    return np.moveaxis(np.array(coefficients, dtype=float), -1, 0)


def det_jet(matrix: JetMatrix) -> Jet2:
    """Determinant over the jet ring by elimination with complete pivoting on
    the constant terms; ``matrix`` is a (6, n, n) array or a list of lists of
    ``Jet2``.

    Only elimination steps divide by a pivot, so a vanishing constant term in
    the final pivot (the simple zero of h at (1, 1)) is harmless.  When every
    constant term of the remaining k x k block is below ``PIVOT_EPS``, its
    determinant is the exact 2 x 2 formula for k = 2 and the zero jet for
    k >= 3: every Leibniz term is then a product of at least three jets
    without constant term, which truncates to zero at order 2.
    """
    a = _jet_array(matrix)
    n = a.shape[-1]
    det = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for s in range(n):
        block = np.abs(a[0, s:, s:])
        row, col = np.unravel_index(np.argmax(block), block.shape)
        if n - s >= 2 and block[row, col] < PIVOT_EPS:
            if n - s > 2:
                return Jet2()
            minor = jet_mul(a[:, s, s], a[:, s + 1, s + 1]) - jet_mul(a[:, s, s + 1], a[:, s + 1, s])
            det = jet_mul(det, minor)
            break
        if row:
            a[:, [s, s + row]] = a[:, [s + row, s]]
            det = -det
        if col:
            a[:, :, [s, s + col]] = a[:, :, [s + col, s]]
            det = -det
        pivot = a[:, s, s]
        det = jet_mul(det, pivot)
        if s < n - 1:
            factor = jet_mul(a[:, s + 1:, s], jet_inverse(pivot)[:, None])
            a[:, s + 1:, s + 1:] -= jet_mul(factor[:, :, None], a[:, s, None, s + 1:])
    return Jet2(*det.tolist())


def det_h(b_plus: np.ndarray, b_minus: np.ndarray) -> Jet2:
    """Full second-order jet of h = det[I - B(+1) B(-1)] about (1, 1), from
    the (6, N, N) arrays of ``build_b``."""
    matrix = -jet_mul(b_plus, b_minus, np.matmul)
    matrix[0] += np.eye(matrix.shape[-1])
    return det_jet(matrix)


def limit_constants(h: Jet2, metric_name: str = "custom") -> LimitConstants:
    """Drift and variance from the five partials of h at (1, 1)."""
    h_l = h.d_lambda
    h_z = h.d_z
    if abs(h_l) < 1e-12:
        raise DegenerateSystemError("lambda-slope of the determinant vanishes")
    gamma = h_z / h_l
    sigma2 = (
        h.d2_z + h_z - 2.0 * gamma * h.d_lambda_z + gamma**2 * (h.d2_lambda + h_l)
    ) / h_l
    partials = {
        "d_lambda": h_l,
        "d_z": h_z,
        "d2_lambda": h.d2_lambda,
        "d_lambda_z": h.d_lambda_z,
        "d2_z": h.d2_z,
    }
    return LimitConstants(gamma, sigma2, h.value, partials, metric_name)


def compute_limits(
    kernel: TransitionKernel,
    metric: Metric,
    tol: float = 1e-13,
    check_sigma: bool = True,
) -> LimitConstants:
    """Full pipeline: solve R at lambda=1, differentiate implicitly, build the
    jets and read off gamma and sigma^2."""
    r = solve_r(kernel, 1.0, tol=tol)
    derivs = solve_r_derivatives(kernel, r)
    weights = weight_array(metric, kernel.n_windows)
    h = det_h(build_b(r, derivs, weights, +1), build_b(r, derivs, weights, -1))
    if abs(h.value) > SIMPLE_ZERO_TOL:
        raise DegenerateSystemError(
            f"determinant at (1,1) is {h.value!r}, expected a simple zero"
        )
    constants = limit_constants(h, metric.name)
    if check_sigma and constants.sigma2 < 0:
        raise DegenerateSystemError(f"negative variance {constants.sigma2!r}")
    return constants


def kms_phi(n: int, x: float, z: float) -> float:
    """Characteristic-polynomial recurrence of the z^|i-j| Toeplitz matrix:
    phi_n = (1 - x - z^2 (1 + x)) phi_{n-1} - x^2 z^2 phi_{n-2}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    phi_prev, phi = 1.0, 1.0 - x  # phi_0, phi_1
    if n == 0:
        return phi_prev
    for _ in range(n - 1):
        phi_prev, phi = phi, (1.0 - x - z * z * (1.0 + x)) * phi - x * x * z * z * phi_prev
    return phi


def b_matrix_values(
    kernel: TransitionKernel,
    metric: Metric,
    sign: int,
    r: RSolution,
    z: float,
) -> np.ndarray:
    """Plain float N x N matrix of z^w R values (constant terms)."""
    s = (1 - sign) // 2
    return z ** weight_array(metric, kernel.n_windows)[s] * r.values[s]


def build_k_matrix(
    kernel: TransitionKernel,
    metric: Metric,
    lam: float,
    z: float,
    tol: float = 1e-13,
    r: Optional[RSolution] = None,
) -> np.ndarray:
    """The 2N x 2N block matrix [[0, B(+1)], [B(-1), 0]] at (lam, z)."""
    r = r if r is not None else solve_r(kernel, lam, tol=tol)
    n = kernel.n_windows
    b_plus = b_matrix_values(kernel, metric, +1, r, z)
    b_minus = b_matrix_values(kernel, metric, -1, r, z)
    k = np.zeros((2 * n, 2 * n))
    k[:n, n:] = b_plus
    k[n:, :n] = b_minus
    return k


def spectral_radius_k(
    kernel: TransitionKernel,
    metric: Metric,
    lam: float,
    z: float,
    tol: float = 1e-13,
) -> float:
    """Perron root of the period-2 block matrix, computed by power iteration
    on its square."""
    if not (0.0 < lam <= 1.0 and 0.0 < z <= 1.0):
        raise ValueError("spectral radius is evaluated for lam, z in (0, 1]")
    k = build_k_matrix(kernel, metric, lam, z, tol=tol)
    if not k.any():
        return 0.0
    try:
        rho_sq = perron_root(k @ k)
    except SolverError as exc:
        raise DegenerateSystemError(str(exc)) from exc
    return float(np.sqrt(max(rho_sq, 0.0)))
