"""Solve the coupled quadratic system for the hitting-time generating
functions R and compute their first and second derivatives at a point by
implicit differentiation.

The solver holds R as a (2, N, N) array: ``R[0]`` is R+ and ``R[1]`` is R-,
with ``R_k[i-1, j-1] = R_{i,j}^{(k)}`` and a zero diagonal.  The jump
probabilities ``P`` are the kernel's one store, its chamber array
``TransitionKernel.P``, in the same layout.  Entry (i, j), i != j, of sign
k reads

    R_k = lam * (P_k + offdiag(P_k R_k) + diag(u_{-k}) R_k),   u_k = diag(P_k R_k),

where the product term walks to a window m != i, j in the same chamber and
then hits j, and ``u_{-k}`` is the return to i through the other chamber.
Newton's method started from R = 0 increases monotonically to the least
root of this monotone polynomial system (Etessami & Yannakakis, JACM 2009),
which is the probabilistically correct one.

Above ``DENSE_MAX_N`` windows every linear solve ``(I - M) D = B``, with M
the Jacobian of the right-hand side, is done in structured form.  Column j
of sign k solves the (N-1)-square system whose matrix is
``G_k = I - lam diag(u_{-k}) - lam P_k`` with row and column j deleted;
the 2N column blocks are coupled only through the 2N scalars
``t_k = diag(P_k D_k)``, which solve a 2N x 2N system.  Every block solve is read off one inverse ``G_k^{-1}`` per sign,
so one factorisation costs O(N^3) time and O(N^2) memory, against O(N^6)
and O(N^4) for the dense ``dim x dim`` matrix, dim = 2N(N-1).  Near a
singular ``G_k`` the columns fall back to inverting their own blocks, at
O(N^4) time and O(N^3) memory.  Each solve then does one block solve: the
coupling's right-hand side is read off the factorisation's row table, and
the 2N x 2N coupling is LU-solved on each call, not inverted.

At the sizes where numpy's per-call cost, not arithmetic, sets the time of a
Newton step, each of the step's arrays is allocated once and filled in place:
``G_k`` starts as ``-lam P_k`` and takes its diagonal through a strided view,
sums accumulate into the matrix product that opens them, and a buffer that is
spent is reused.  Every sum and product keeps the order of the formulas, so
the results are the same bits as with fresh temporaries.

``RSolution`` and ``RDerivatives`` hold R and its derivatives in this
layout.  Its off-diagonal entries in row-major order are the flat order
(sign +1 then -1, then source i, then target j != i), in which the same
system reads

    R = lam * (p + A1 @ R + (C @ R) * R).

Up to ``DENSE_MAX_N`` windows, at most 60 unknowns, Newton's method and the
derivatives work on this flat form instead: ``system_matrices`` places its
constant part (``p``, ``A1`` and ``C``) once per ``solve_r`` from ``P`` by
index arithmetic, scaled by lam after, each step adds the R-dependent terms
of the Jacobian ``M = lam (A1 + diag(C R) + diag(R) C)`` with a few array
operations and does one dense LU solve, and the results are scattered back
into the (2, N, N) layout.  There one LU solve costs less than the
structured solve's many small numpy calls.  Either form is a Newton system
with ``start``, ``defect`` (f(R) - R), ``linearised`` (the solve with
``I - M`` at the last defect's R), ``m_times`` (M D and its return term) and
``values``.  ``solve_r`` is the one Newton loop over both, and
``solve_r_derivatives`` states the derivative rule once, over the system
that ``solve_r`` stopped in.  The tests check ``system_matrices`` against
the flat system built arc by arc, in ``tests/reference.py``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .chain import TransitionKernel
from .groupoid import arc_entries, other_windows

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 100
#: Below this step size a Newton step that no longer shrinks is rounding
#: noise, and the iteration stops there.
STALL_STEP = 1e-8
#: A chamber with ``FALLBACK_RATIO max |H_k| > 1``, ``H_k = G_k^{-1}``, solves
#: each column on its own deleted block (``LinearisedSystem`` gives why).
FALLBACK_RATIO = float(np.sqrt(np.finfo(float).eps))
#: Up to this many windows Newton's method works on the dense flat system,
#: at most 2N(N-1) = 60 unknowns, with one LU solve per step: up to N = 6
#: that costs less than the structured solve's numpy calls, from N = 7 more
#: (the crossover table in README, "Costs as N grows").
DENSE_MAX_N = 6


class SolverError(RuntimeError):
    """Iteration failed to converge, or the implicit linear system is singular."""


@dataclass
class RSolution:
    """Converged (2, N, N) R values at one lambda, with the fixed-point defect
    and the Newton ``system`` that stopped there, for ``solve_r_derivatives``."""

    lam: float
    values: np.ndarray
    residual: float
    iterations: int
    system: _ChamberNewton | _FlatNewton = field(repr=False, compare=False)


@dataclass
class RDerivatives:
    """First and second lambda-derivatives of R at the solved point, (2, N, N)."""

    d1: np.ndarray
    d2: np.ndarray


def _diag_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``diag(a_k b_k)`` for both signs, shape (2, N)."""
    return np.einsum("kim,kmi->ki", a, b)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable (2, N) view of the diagonals of a C-contiguous (2, N, N) array."""
    return a.reshape(2, -1)[:, ::a.shape[-1] + 1]


def _offdiag(a: np.ndarray) -> np.ndarray:
    """Zero the diagonal of both signs of a C-contiguous ``a`` in place, and
    return it."""
    _diagonal(a)[...] = 0.0
    return a


def _rhs(p: np.ndarray, lam: float, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Right-hand side f(R) of the fixed-point form R = f(R), with
    ``u = diag(P R)``."""
    f = p @ r
    f += p
    f += u[::-1, :, None] * r
    f *= lam
    return _offdiag(f)


def apply_m(p: np.ndarray, lam: float, r: np.ndarray, d: np.ndarray, u: np.ndarray,
            t: np.ndarray) -> np.ndarray:
    """M D, the Jacobian of f at R applied to a (2, N, N) array D, with
    ``u = diag(P R)`` and ``t = diag(P D)``."""
    md = p @ d
    md += u[::-1, :, None] * d
    md += t[::-1, :, None] * r
    md *= lam
    return _offdiag(md)


class LinearisedSystem:
    """``I - M`` at R, with M the Jacobian of f, factored once for any number
    of structured solves.

    Column j of ``D_k`` (without its zero diagonal entry) solves a block
    whose matrix is ``G_k = I - lam diag(u_{-k}) - lam P_k`` with row and
    column j deleted; its right-hand side is column j of
    ``B_k + lam diag(t_{-k}) R_k``.  ``H_k = G_k^{-1}`` is formed once per
    sign, and every deleted-index solve is read off it: with ``Y = H B``,
    column j of ``Y - H diag(Y) / diag(H)`` is the block solution, with a 0
    in row j (the inverse of a principal submatrix, Golub & Van Loan,
    *Matrix Computations*, section 2.1).

    That update cancels terms of size ``max |H_k| |B|``, so it loses digits
    as ``G_k`` nears singularity.  ``G_k = I - B_k`` with
    ``B_k = lam (diag(u_{-k}) + P_k) >= 0`` is a nonsingular M-matrix, so
    ``H_k >= 0`` and ``H_k = I + B_k H_k >= I`` (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, ch. 6): every
    ``H_jj`` is at least 1, and the update's loss is set by ``max |H_k|``
    alone.  A chamber with ``FALLBACK_RATIO max |H_k| > 1`` therefore
    inverts each of its N gathered column blocks directly instead;
    ``fallback_columns`` counts them, 0, N or 2N.

    The 2N scalars ``t_k = diag(P_k D_k)`` are linear in ``t_{-k}``,
    ``t_k = a_k + T_k t_{-k}``.  Row i of ``v`` is row i of ``P_k`` times
    the inverse of block i, so ``a_k = diag(v_k B_k)`` needs no block solve
    and ``T_k = offdiag(lam v_k R_k^T)`` is read off ``v``.  The t solve the
    2N x 2N ``coupling`` ``[[I, -T_+], [-T_-, I]]``, LU-solved on each call,
    and one block solve of ``B_k + lam diag(t_{-k}) R_k`` then gives D.

    ``G_k`` is assembled in place from ``-lam P_k``, its diagonal
    ``1 - lam u_{-k}`` written through a strided view; once ``H`` and ``v``
    are formed, the buffer of G holds ``T`` while the coupling's blocks are
    written, and ``h_diag`` is a view of ``H``.  A solve copies B once and
    writes into the copy, never into B.  The caller passes ``u = diag(P R)``,
    which it has from the defect at R.
    """

    def __init__(self, p: np.ndarray, lam: float, r: np.ndarray, u: np.ndarray):
        n = p.shape[-1]
        self.lam, self.r = lam, r
        # C order, whatever the layout of P, so that _diagonal is a view.
        g = np.multiply(p, -lam, order="C")
        _diagonal(g)[...] = 1.0 - lam * u[::-1]
        try:
            h = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"a chamber block of I - M is singular: {exc}") from exc
        fallback = FALLBACK_RATIO * np.abs(h).max(axis=(1, 2)) > 1.0
        self.fallback_columns = n * int(np.count_nonzero(fallback))
        self.h, self.h_diag = h, _diagonal(h)
        # Row i of v: row i of P_k times the inverse of block i.
        v = p @ h
        v -= h * (_diagonal(v) / self.h_diag)[:, :, None]
        if self.fallback_columns:
            self.sign, self.col = np.nonzero(np.repeat(fallback[:, None], n, axis=1))
            self.keep = other_windows(n)[self.col]
            blocks = g[self.sign[:, None, None], self.keep[:, :, None], self.keep[:, None, :]]
            try:
                self.blocks_inv = np.linalg.inv(blocks)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"a column block of I - M is singular: {exc}") from exc
            p_rows = p[self.sign[:, None], self.col[:, None], self.keep]
            v[self.sign[:, None], self.col[:, None], self.keep] = (
                p_rows[:, None, :] @ self.blocks_inv)[:, 0, :]
        self.v = v
        # G is spent: its buffer takes (lam v) * R^T, the map t_{-k} -> t_k.
        t_map = np.multiply(v, lam, out=g)
        t_map *= np.swapaxes(r, 1, 2)
        _offdiag(t_map)
        self.coupling = np.eye(2 * n)
        np.negative(t_map[0], out=self.coupling[:n, n:])
        np.negative(t_map[1], out=self.coupling[n:, :n])

    def _block_solve(self, b: np.ndarray) -> np.ndarray:
        """Every column block's solution for a zero-diagonal (2, N, N) B,
        whose buffer is then spent as scratch space."""
        if self.fallback_columns:
            cols = b[self.sign[:, None], self.keep, self.col[:, None]]
        x = self.h @ b
        x -= np.multiply(self.h, (_diagonal(x) / self.h_diag)[:, None, :], out=b)
        if self.fallback_columns:
            x[self.sign[:, None], self.keep, self.col[:, None]] = (
                self.blocks_inv @ cols[..., None])[..., 0]
        return _offdiag(x)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """D with ``(I - M) D = B`` for a (2, N, N) right-hand side B, whose
        diagonal is ignored; B itself is not written."""
        b = _offdiag(np.array(b, dtype=float, order="C"))
        a = _diag_of_product(self.v, b)
        try:
            t = np.linalg.solve(self.coupling, a.reshape(-1)).reshape(a.shape)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"the 2N x 2N coupling of I - M is singular: {exc}") from exc
        b += self.lam * t[::-1, :, None] * self.r
        return self._block_solve(b)


class _ChamberNewton:
    """Newton's method on the (2, N, N) arrays, one ``LinearisedSystem`` per
    step; ``u = diag(P R)`` is formed once per step, with the defect."""

    def __init__(self, p: np.ndarray, lam: float):
        self.p, self.lam = p, lam

    def start(self) -> np.ndarray:
        return np.zeros_like(self.p)

    def defect(self, r: np.ndarray) -> np.ndarray:
        """f(R) - R, keeping R and ``u`` at R for the step from R."""
        self.r, self.u = r, _diag_of_product(self.p, r)
        f = _rhs(self.p, self.lam, r, self.u)
        f -= r
        return f

    def linearised(self) -> Callable[[np.ndarray], np.ndarray]:
        """The solve with ``I - M`` at the R of the last defect, factored once."""
        return LinearisedSystem(self.p, self.lam, self.r, self.u).solve

    def m_times(self, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """M D and the return term ``lam diag(P_{-k} D_{-k})`` on each row."""
        t = _diag_of_product(self.p, d)
        return apply_m(self.p, self.lam, self.r, d, self.u, t), self.lam * t[::-1, :, None]

    def values(self, r: np.ndarray) -> np.ndarray:
        return r


def _lu_solve(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``matrix^{-1} b`` by one LU solve, for the dense ``I - M``."""
    try:
        return np.linalg.solve(matrix, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"I - M is singular: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _flat_pattern(n: int) -> Tuple[np.ndarray, ...]:
    """Where the flat system's entries come from in the raveled (2, N, N)
    ``P``, for N windows: the arcs in flat order, then the row, column and
    source of each entry of the same-chamber block A1 and of the return-term
    block C.  Read-only, and kept for each N up to ``DENSE_MAX_N``, the only
    sizes that build a flat system."""
    flat = np.full((2, n, n), -1)
    flat[:, ~np.eye(n, dtype=bool)] = np.arange(2 * n * (n - 1)).reshape(2, -1)
    s, i, j, m = np.indices((2, n, n, n))
    arc = i != j
    # A1: the walk from i to m != j in chamber k, then on from m to j.
    same = arc & (m != i) & (m != j)
    # C: the return from i to m and back in the other chamber.
    back = arc & (m != i)
    pattern = (np.flatnonzero(flat >= 0),
               flat[s, i, j][same], flat[s, m, j][same], ((s * n + i) * n + m)[same],
               flat[s, i, j][back], flat[1 - s, m, i][back], (((1 - s) * n + i) * n + m)[back])
    for a in pattern:
        a.flags.writeable = False
    return pattern


def system_matrices(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat system ``R = p + A1 R + (C R) * R`` at lam = 1 of a (2, N, N)
    chamber array ``p``, as ``(arcs, p, A1, C)``: ``arcs`` holds the arcs'
    positions in the raveled array, in flat order (sign +1 then -1, then
    source i, then target j != i), and the unscaled ``p``, ``A1`` and ``C``
    are placed from ``p`` by ``_flat_pattern``, which caches the pattern
    for each N."""
    arcs, a_rows, a_cols, a_src, c_rows, c_cols, c_src = _flat_pattern(p.shape[-1])
    flat = np.ravel(p)
    dim = len(arcs)
    a1 = np.zeros((dim, dim))
    a1[a_rows, a_cols] = flat[a_src]
    c = np.zeros((dim, dim))
    c[c_rows, c_cols] = flat[c_src]
    return arcs, flat[arcs], a1, c


class _FlatNewton:
    """Newton's method on the dense flat system for small N, in flat order:
    ``R = p' + A1' R + (C' R) * R`` with the primes scaled by lam.  The
    constant parts are assembled once, by ``system_matrices``, and each step
    adds the R-dependent terms ``diag(C' R) + diag(R) C'`` to ``I - A1'`` and
    does one LU solve.  ``C' R``, the return term of each row, is formed once
    per step, with the defect, and ``m_times`` reuses the one at the root."""

    def __init__(self, p: np.ndarray, lam: float):
        self.lam, self.shape = lam, p.shape
        self.arcs, self.lam_p, self.lam_a1, self.lam_c = system_matrices(p)
        # lam * P_ij is one product, so scaling after placement gives the
        # same bits as placing lam * P.
        self.lam_p *= lam
        self.lam_a1 *= lam
        self.lam_c *= lam
        self.i_minus_a1 = np.eye(len(self.arcs)) - self.lam_a1

    def start(self) -> np.ndarray:
        return np.zeros(len(self.arcs))

    def defect(self, r: np.ndarray) -> np.ndarray:
        """f(R) - R, keeping R and its return term ``C' R`` for the step."""
        self.r, self.ret = r, self.lam_c @ r
        f = self.lam_a1 @ r
        f += self.lam_p
        f += self.ret * r
        f -= r
        return f

    def linearised(self) -> Callable[[np.ndarray], np.ndarray]:
        """The solve with ``I - M`` at the R of the last defect, by LU."""
        j = np.multiply(self.r[:, None], self.lam_c)
        np.subtract(self.i_minus_a1, j, out=j)
        j.reshape(-1)[::len(self.r) + 1] -= self.ret
        return functools.partial(_lu_solve, j)

    def m_times(self, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``M D = A1' D + (C' R) * D + R * (C' D)`` and the return term ``C' D``."""
        t = self.lam_c @ d
        md = self.lam_a1 @ d
        md += self.ret * d
        md += self.r * t
        return md, t

    def values(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        out.reshape(-1)[self.arcs] = r
        return out


def solve_r(
    kernel: TransitionKernel,
    lam: float,
    tol: float = DEFAULT_TOL,
) -> RSolution:
    """Least root of the quadratic system at ``lam`` in [0, 1], by Newton's
    method from R = 0.

    The iteration stops when a step is at most ``tol``, or when a step below
    ``STALL_STEP`` is no smaller than the one before it: the iterate then sits
    at the rounding floor of the solve, which can lie above a small ``tol``.
    ``DEFAULT_MAX_ITER`` steps without either raise SolverError.
    ``iterations`` counts Newton steps and ``residual`` is the true defect
    ``max |f(R) - R|`` at the returned R.  Up to ``DENSE_MAX_N`` windows the
    steps are taken on the dense flat system, above it on the structured one.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    system = (_FlatNewton if kernel.n_windows <= DENSE_MAX_N else _ChamberNewton)(kernel.P, lam)
    r = system.start()
    defect = system.defect(r)
    prev_step = np.inf
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        delta = system.linearised()(defect)
        step = float(np.abs(delta).max())
        if not math.isfinite(step):
            raise SolverError(f"Newton step {iterations} is not finite")
        r += delta
        # Only R and its defect stay live into the next factorisation.
        del delta
        defect = system.defect(r)
        if step <= tol or (step <= STALL_STEP and step >= prev_step):
            break
        prev_step = step
    else:
        raise SolverError(
            f"Newton's method did not converge in {DEFAULT_MAX_ITER} steps (last step {step:.3e})")
    residual = float(np.abs(defect).max())
    return RSolution(lam, system.values(r), residual, iterations, system)


def solve_r_derivatives(r: RSolution) -> RDerivatives:
    """Implicit first and second lambda-derivatives of the root ``r`` that
    ``solve_r`` returned, at ``r.lam`` and on the same path.

    Differentiating the fixed point once gives (I - M) d1 = R / lam, and a
    second time (I - M) d2 = 2 (M / lam) d1 + 2 lam (C d1) * d1 with the
    quadratic cross terms from the return products; in the matrix form
    ``(C d1)`` is ``diag(P_{-k} d1_{-k})`` on row i.  ``I - M`` is that of
    ``r.system`` at its last defect, the root, and serves both solves:
    factored once on the structured path, and LU-solved twice on the dense
    flat one, which takes up to ``DENSE_MAX_N`` windows.  A lam below the
    smallest normal float is refused: ``R ~ lam P`` underflows there.
    """
    lam, system = r.lam, r.system
    if lam < sys.float_info.min:
        raise ValueError(f"derivatives require lambda >= {sys.float_info.min!r}, "
                         f"the smallest normal float, got {lam!r}")
    solve = system.linearised()
    d1 = solve(system.r / lam)
    b2, ret = system.m_times(d1)
    b2 *= 2.0
    b2 /= lam
    b2 += 2.0 * ret * d1
    return RDerivatives(system.values(d1), system.values(solve(b2)))


def solution_to_json(r: RSolution, derivs: RDerivatives | None = None) -> dict:
    out = {
        "lambda": r.lam,
        "R": arc_entries(r.values),
        "iterations": r.iterations,
        "residual": r.residual,
    }
    if derivs is not None:
        out["d1"] = arc_entries(derivs.d1)
        out["d2"] = arc_entries(derivs.d2)
    return out
