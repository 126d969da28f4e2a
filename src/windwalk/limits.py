"""Assemble the chamber matrices, expand the Perron root of the transfer
operator B(+1) B(-1) to second order about (lam, z) = (1, 1), and produce
the drift and variance of the limit theorems.

A matrix of jets is a (6, N, N) coefficient array (see ``windwalk.jets``):
``build_b`` fills it from the matrix form of R and its two lambda
derivatives.  ``perron_jet``, the route ``compute_limits`` takes, inverts one
bordered (N+1)-square matrix for the two Perron vectors at (1, 1) and reads
rho's Taylor coefficients off first- and second-order eigenvalue
perturbation; only matrix-vector products touch the jets, so it costs one
O(N^3) inverse and a fixed number of numpy calls.

``det_h`` is the independent reference for the same curve rho = 1: the jet
(``det_jet``) of h = det[I - B(+1) B(-1)] = (1 - rho) c, c(1, 1) != 0.  Every
partial of c cancels in the implicit derivatives of the curve, so
``limit_constants`` gives the same gamma and sigma^2 from either jet.  It is
off ``compute_limits``' route and stays here only because perfbench's tracer
patches it; the float cross-checks live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict

import numpy as np

from .chain import TransitionKernel
from .groupoid import Metric
from .jets import Jet2, jet_mul
from .solver import DEFAULT_TOL, RDerivatives, RSolution, solve_r, solve_r_derivatives

PIVOT_EPS = 1e-14
SIMPLE_ZERO_TOL = 1e-10


class DegenerateSystemError(RuntimeError):
    """The Perron root is not simple, or it or its lambda-slope degenerates;
    upstream inputs are bad."""


@dataclass
class LimitConstants:
    """gamma and sigma^2 with the value and five partials at (1, 1) of the
    jet they were read from: rho - 1 on ``compute_limits``' route."""

    gamma: float
    sigma2: float
    rho_minus_one: float
    rho_partials: Dict[str, float]
    metric: str

    def to_json(self) -> dict:
        return asdict(self)


def build_b(
    r: RSolution,
    derivs: RDerivatives,
    weights: np.ndarray,
    sign: int,
) -> np.ndarray:
    """(6, N, N) jet array with entries z^w(i,j,sign) * R_{i,j}^{(sign)}(lam),
    from the metric's (2, N, N) weights ``Metric.W``; the diagonal is zero."""
    s = (1 - sign) // 2
    value, d1, d2 = r.values[s], derivs.d1[s], derivs.d2[s]
    w = weights[s]
    # z^w = 1 + w dz + w(w-1)/2 dz^2 times value + d1 dl + d2/2 dl^2, filled
    # coefficient by coefficient in the jet order of ``windwalk.jets``.
    b = np.empty((6,) + value.shape)
    b[0] = value
    b[1] = d1
    np.multiply(w, value, out=b[2])
    np.multiply(0.5, d2, out=b[3])
    np.multiply(w, d1, out=b[4])
    np.multiply(0.5, w, out=b[5])
    b[5] *= w - 1.0
    b[5] *= value
    return b


def perron_jet(b_plus: np.ndarray, b_minus: np.ndarray) -> Jet2:
    """Second-order jet of rho - 1 about (1, 1), rho the Perron root of
    K = B(+1) B(-1), from the (6, N, N) arrays of ``build_b``.

    The inverse of the bordered matrix [[I - K0, 1], [1^T, 0]] holds the
    right Perron vector v in its last column and the left one u in its last
    row; u is scaled so that u^T v = 1.  With K_c the Taylor coefficients of
    K (c = 1, 2 for dl, dz), rho_c = u^T K_c v.  The first-order parts y_c
    of v solve (I - K0) y_c = (K_c - rho_c) v through the same inverse,
    projected so that u^T y_c = 0, and a second-order coefficient is
    u^T K_ab v plus u^T K_a y_b for each ordered split of ab (Kato,
    *Perturbation Theory for Linear Operators*, ch. II; Meyer & Stewart,
    SIAM J. Numer. Anal. 1988).  Every product with a jet coefficient is a
    vector times a matrix, so the only O(N^3) step is the inverse.

    A second null direction of I - K0 means the root is not simple: the
    bordered matrix is then singular, or its condition number, read off the
    explicit inverse, exceeds 1 / ``PIVOT_EPS``, and DegenerateSystemError
    is raised.  So it is when u^T v vanishes against |u| |v| (a Jordan
    block).
    """
    n = b_plus.shape[-1]
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = np.eye(n) - b_plus[0] @ b_minus[0]
    border[n, :n] = border[:n, n] = 1.0
    try:
        inv = np.linalg.inv(border)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError(
            "bordered Perron system is singular: the root is not simple") from exc
    cond = np.abs(border).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    if not cond * PIVOT_EPS <= 1.0:
        raise DegenerateSystemError(
            f"bordered Perron system has condition number {cond:.3g}: the root is not simple")
    v, u = inv[:n, n], inv[n, :n]
    uv = u @ v
    # |u| and |v| as ``np.linalg.norm`` computes them.
    if not abs(uv) > PIVOT_EPS * math.sqrt(u.dot(u)) * math.sqrt(v.dot(v)):
        raise DegenerateSystemError(
            "left and right Perron vectors are orthogonal: the root is not simple")
    u = u / uv
    # t[i, j] = (u^T B+_i)(B-_j v); u^T K_c v sums it over the pairs (i, j)
    # whose monomials multiply to the c-th, as ``jet_mul`` pairs them.
    p, q = u @ b_plus, b_minus @ v
    t = (p @ q.T).tolist()
    rho = np.array([t[0][0], t[0][1] + t[1][0], t[0][2] + t[2][0],
                    t[0][3] + t[1][1] + t[3][0], t[0][4] + t[1][2] + t[2][1] + t[4][0],
                    t[0][5] + t[2][2] + t[5][0]])
    # y_c for c = dl, dz as the columns of y.
    k1v = b_plus[0] @ q[1:3].T + (b_plus[1:3] @ q[0]).T
    y = inv[:n, :n] @ (k1v - v[:, None] * rho[1:3])
    y -= v[:, None] * (u @ y)
    # uk1[c] = u^T K_c, so uk1 @ y holds u^T K_a y_b at [a, b].
    uk1 = p[0] @ b_minus[1:3] + p[1:3] @ b_minus[0]
    s = uk1 @ y
    rho[3:] += (s[0, 0], s[0, 1] + s[1, 0], s[1, 1])
    rho[0] -= 1.0
    return Jet2(*rho.tolist())


def det_jet(matrix: np.ndarray) -> Jet2:
    """Determinant over the jet ring in closed form of a (6, n, n)
    coefficient array, which is read as it is, not copied.

    The constant term A0 is split by its SVD.  The row and column at the
    largest entries of its left and right null vectors move to the border of
    [[K, b], [c, d]], and

        det = (-1)^(row + col) * det K * (d - c K^-1 b),

    with det K = det K0 * (1 + tr X + ((tr X1)^2 - tr X1^2) / 2) for
    X = K0^-1 (K - K0) and X1 its first-order part, and K^-1 b solved order
    by order against K0^-1.  Only K0, never the possibly singular A0, is
    inverted, so the simple zero of h at (1, 1) is harmless, and
    sigma_{n-1} / sigma_1 of A0 measures how well K0 is conditioned.  The
    cost is O(n^3) with a fixed number of numpy calls.

    A second singular value at or below ``PIVOT_EPS * sigma_1`` means the
    zero is not simple: the determinant's value and slopes all vanish, and
    DegenerateSystemError is raised, as ``perron_jet`` raises it.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[-1]
    u, s, vh = np.linalg.svd(a[0])
    if np.count_nonzero(s <= PIVOT_EPS * s[0]) >= 2:
        raise DegenerateSystemError(
            "constant term has two or more null directions: the zero is not simple")
    row, col = int(np.argmax(np.abs(u[:, -1]))), int(np.argmax(np.abs(vh[-1])))
    rows = np.append(np.delete(np.arange(n), row), row)
    cols = np.append(np.delete(np.arange(n), col), col)
    p = a[:, rows[:, None], cols]
    k = n - 1
    kk, b, c, d = p[:, :k, :k], p[:, :k, k:], p[:, k:, :k], p[:, k:, k:]
    inv = np.linalg.inv(kk[0])
    # det(I + X) to order 2; tr(K0^-1 K_c) and tr(X_a X_b) are elementwise sums.
    t = np.einsum("ji,cij->c", inv, kk[1:])
    x1 = inv @ kk[1:3]
    q = np.einsum("aij,bji->ab", x1, x1)
    det_k = np.array([
        1.0,
        t[0],
        t[1],
        t[2] + 0.5 * (t[0] * t[0] - q[0, 0]),
        t[3] + t[0] * t[1] - q[0, 1],
        t[4] + 0.5 * (t[1] * t[1] - q[1, 1]),
    ])
    # Y = K^-1 b order by order: K0 y_c = b_c - (sum of K_a y_b over a + b = c, b < c).
    y0 = inv @ b[0]
    y1 = inv @ (b[1:3] - kk[1:3] @ y0)
    ky = kk[1:3, None] @ y1
    y2 = inv @ (b[3:] - kk[3:] @ y0 - np.stack([ky[0, 0], ky[0, 1] + ky[1, 0], ky[1, 1]]))
    schur = d - jet_mul(c, np.concatenate([y0[None], y1, y2]), np.matmul)
    sign = -1.0 if (row + col) % 2 else 1.0
    det = sign * np.linalg.det(kk[0]) * jet_mul(det_k, schur[:, 0, 0])
    return Jet2(*det.tolist())


def det_h(b_plus: np.ndarray, b_minus: np.ndarray) -> Jet2:
    """Full second-order jet of h = det[I - B(+1) B(-1)] about (1, 1), from
    the (6, N, N) arrays of ``build_b``."""
    matrix = -jet_mul(b_plus, b_minus, np.matmul)
    matrix[0] += np.eye(matrix.shape[-1])
    return det_jet(matrix)


def limit_constants(jet: Jet2, metric_name: str = "custom") -> LimitConstants:
    """Drift and variance from the five partials at (1, 1) of a jet whose
    zero curve is rho(lam, z) = 1: ``perron_jet``'s rho - 1, or ``det_h``'s
    h, which differs from it by a factor nonzero at (1, 1) that cancels."""
    f_l = jet.d_lambda
    f_z = jet.d_z
    if abs(f_l) < 1e-12:
        raise DegenerateSystemError("lambda-slope of the Perron root vanishes")
    gamma = f_z / f_l
    sigma2 = (
        jet.d2_z + f_z - 2.0 * gamma * jet.d_lambda_z + gamma**2 * (jet.d2_lambda + f_l)
    ) / f_l
    partials = {
        "d_lambda": f_l,
        "d_z": f_z,
        "d2_lambda": jet.d2_lambda,
        "d_lambda_z": jet.d_lambda_z,
        "d2_z": jet.d2_z,
    }
    return LimitConstants(gamma, sigma2, jet.value, partials, metric_name)


def limits_from_jets(b_plus: np.ndarray, b_minus: np.ndarray, metric_name: str,
                     check_sigma: bool = True) -> LimitConstants:
    """gamma and sigma^2 off the Perron jet of one metric's ``build_b`` arrays,
    checked for a simple zero at (1, 1).  R and its derivatives do not read
    the metric, so one root serves the jets of every metric."""
    rho = perron_jet(b_plus, b_minus)
    if abs(rho.value) > SIMPLE_ZERO_TOL:
        raise DegenerateSystemError(
            f"Perron root at (1,1) is off 1 by {rho.value!r}, expected a simple zero")
    constants = limit_constants(rho, metric_name)
    if check_sigma and constants.sigma2 < 0:
        raise DegenerateSystemError(f"negative variance {constants.sigma2!r}")
    return constants


def compute_limits(
    kernel: TransitionKernel,
    metric: Metric,
    tol: float = DEFAULT_TOL,
    check_sigma: bool = True,
) -> LimitConstants:
    """Full pipeline: solve R at lambda=1, differentiate implicitly, build the
    jets and read gamma and sigma^2 off the Perron root of B(+1) B(-1)."""
    kernel.check_metric(metric)
    r = solve_r(kernel, 1.0, tol=tol)
    derivs = solve_r_derivatives(r)
    b_plus, b_minus = build_b(r, derivs, metric.W, +1), build_b(r, derivs, metric.W, -1)
    # perron_jet reads only the jets: R and its derivatives are freed first.
    del r, derivs
    return limits_from_jets(b_plus, b_minus, metric.name, check_sigma)


def kms_phi(n: int, x: float, z: float) -> float:
    """Characteristic-polynomial recurrence of the z^|i-j| Toeplitz matrix:
    phi_n = (1 - x - z^2 (1 + x)) phi_{n-1} - x^2 z^2 phi_{n-2}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (np.isfinite(x) and np.isfinite(z)):
        raise ValueError(f"x and z must be finite, got x={x!r}, z={z!r}")
    phi_prev, phi = 1.0, 1.0 - x  # phi_0, phi_1
    if n == 0:
        return phi_prev
    for _ in range(n - 1):
        phi_prev, phi = phi, (1.0 - x - z * z * (1.0 + x)) * phi - x * x * z * z * phi_prev
    return phi
