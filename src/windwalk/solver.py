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
which is the probabilistically correct one.  At a fixed u the system is
linear in R, so above ``DENSE_MAX_N`` windows R is eliminated and Newton's
method runs on the 2N unknowns u alone (``_ChamberNewton``); it too rises
monotonically from u = 0 to the least root.

Above ``DENSE_MAX_N`` windows every linear solve ``(I - M) D = B``, with M
the Jacobian of the right-hand side, is done in structured form.  Column j
of sign k solves the (N-1)-square system whose matrix is
``G_k = I - lam diag(u_{-k}) - lam P_k`` with row and column j deleted;
the 2N column blocks are coupled only through the 2N scalars
``t_k = diag(P_k D_k)``, which solve a 2N x 2N system whose top-left block
is I.  Every block solve is read off one inverse ``G_k^{-1}`` per sign,
so one factorisation costs O(N^3) time and O(N^2) memory, against O(N^6)
and O(N^4) for the dense ``dim x dim`` matrix, dim = 2N(N-1).  Near a
singular ``G_k`` the columns fall back to inverting their own blocks, at
O(N^4) time and O(N^3) memory.  Each solve then does one block solve: the
coupling's right-hand side is read off the factorisation's row table, and
the coupling's N x N Schur complement, formed once per factorisation, is
LU-solved on each call, not inverted.

Each Newton step on u factors ``G`` once, at the new u, and brings R to it
before the coupling measures the next step, so the last step's
factorisation sits at the root and serves the derivatives too.  The
iteration stops once the step that reached u is at most ``tol``, once the
measured next step would move R by at most half an ulp of ``max R``, or
at the rounding floor (``solve_r``).

At the sizes where numpy's per-call cost, not arithmetic, sets the time of a
Newton step, each of the step's arrays is allocated once and filled in place:
``G_k`` starts as ``-lam P_k`` and takes its diagonal through a strided view,
sums accumulate into the matrix product that opens them, and a buffer that is
spent is reused.  ``u = diag(P R)`` and ``t = diag(P D)`` are read off the
diagonals of the products ``P @ R`` and ``P @ D`` that f(R) and M D open
with.  Every sum and product keeps the order of the formulas, so the results
are the same bits as with fresh temporaries.

``RSolution`` and ``RDerivatives`` hold R and its derivatives in this
layout.  Its off-diagonal entries in row-major order are the flat order
(sign +1 then -1, then source i, then target j != i), in which the same
system reads

    R = lam * (p + A1 @ R + (C @ R) * R).

Up to ``DENSE_MAX_N`` windows, at most 60 unknowns, Newton's method and the
derivatives work on this flat form instead: ``system_matrices`` places its
constant part, ``lam p`` and the (2 dim, dim) stack ``lam K = lam [A1; C]``,
once per ``solve_r`` from ``lam P`` by one index pattern.  Each step
reads ``A1 R`` and ``C R``, times lam, off one product, forms ``I - M``, with
``M = lam (A1 + diag(C R) + diag(R) C)`` the Jacobian, from views of K and
does one dense LU solve, and the results are scattered back into the
(2, N, N) layout.  There one LU solve costs less than the structured
solve's many small numpy calls.  The dense iteration stops on a step it
has taken: one of at most ``tol``, or one below ``STALL_STEP`` that did not
shrink, at the rounding floor (``solve_r``).  Either form is a Newton system
with ``step`` (one Newton step and its stop rule), ``finish`` (the true
defect at the root), ``linearised`` (the solve with ``I - M`` at the root),
``m_times`` (M D and its return term) and ``values``.  ``solve_r`` is the
one loop over both, with its step cap, and ``solve_r_derivatives`` states
the derivative rule once, over the system that ``solve_r`` stopped in.  The
tests check ``system_matrices`` against the flat system built arc by arc,
in ``tests/reference.py``.
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
HALF_EPS = float(np.finfo(float).eps) / 2.0
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
    and the Newton ``system`` that stopped there, for ``solve_r_derivatives``:
    on the structured path it holds the factorisation at the root.  A caller
    done with the derivatives may set it to None to free that."""

    lam: float
    values: np.ndarray
    residual: float
    iterations: int
    system: _ChamberNewton | _FlatNewton | None = field(repr=False, compare=False)


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


def _complete_rhs(f: np.ndarray, p: np.ndarray, lam: float, r: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """The right-hand side ``lam (P + offdiag(P R) + diag(u_{-k}) R)`` at a
    given u, completed in place from the product ``f = P @ R``; f(R) when
    ``u = diag(P R)``."""
    f += p
    f += u[::-1, :, None] * r
    f *= lam
    return _offdiag(f)


def apply_m(p: np.ndarray, lam: float, r: np.ndarray, d: np.ndarray,
            u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """M D, the Jacobian of f at R applied to a (2, N, N) array D, with
    ``u = diag(P R)``, and ``t = diag(P D)``, read off the product ``P @ D``
    that M D opens with."""
    md = p @ d
    t = _diagonal(md).copy()
    md += u[::-1, :, None] * d
    md += t[::-1, :, None] * r
    md *= lam
    return _offdiag(md), t


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
    2N x 2N coupling ``[[I, -T_+], [-T_-, I]]``.  Its top-left block is I,
    so block elimination leaves the N x N Schur complement
    ``coupling = I - T_+ T_-``, formed once (Golub & Van Loan, section 3.2):
    each solve LU-solves ``coupling t_+ = a_+ + T_+ a_-`` and sets
    ``t_- = a_- + T_- t_+``.  The complement has the coupling's determinant,
    so it is singular exactly when the coupling is.  One block solve of
    ``B_k + lam diag(t_{-k}) R_k`` then gives D.

    ``G_k`` is assembled in place from ``-lam P_k``, its diagonal
    ``1 - lam u_{-k}`` written through a strided view, and ``h_diag`` is a
    view of ``H``.  A solve copies B once and writes into the copy, never
    into B.  The constructor factors ``G`` at the return probabilities u,
    which is all that block solves need; ``couple(r)`` then forms ``T`` and
    the coupling at an R with ``u = diag(P R)``, as Newton's method on u
    brings R to u by a block solve before it can, and ``solve`` reads both.
    """

    def __init__(self, p: np.ndarray, lam: float, u: np.ndarray):
        n = p.shape[-1]
        self.lam = lam
        # C order, whatever the layout of P, so that _diagonal is a view.
        g = np.multiply(p, -lam, order="C")
        _diagonal(g)[...] = 1.0 - lam * u[::-1]
        try:
            h = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"a chamber block of I - M is singular: {exc}") from exc
        # One flat reduction per chamber: numpy reduces over two axes slower.
        fallback = FALLBACK_RATIO * np.abs(h).reshape(2, -1).max(axis=1) > 1.0
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

    def couple(self, r: np.ndarray) -> None:
        """Form ``T`` and the N x N coupling at R, which ``solve`` reads."""
        n = r.shape[-1]
        self.r = r
        # (lam v) * R^T, the map t_{-k} -> t_k.
        t_map = np.multiply(self.v, self.lam)
        t_map *= np.swapaxes(r, 1, 2)
        self.t_map = _offdiag(t_map)
        coupling = np.matmul(t_map[0], t_map[1])
        np.negative(coupling, out=coupling)
        coupling.reshape(-1)[::n + 1] += 1.0
        self.coupling = coupling

    def solve_coupling(self, t: np.ndarray) -> np.ndarray:
        """x with ``[[I, -T_+], [-T_-, I]] x = t`` for a (2, N) t, which is
        written: ``coupling x_+ = t_+ + T_+ t_-`` is LU-solved, then
        ``x_- = t_- + T_- x_+``."""
        t[0] += self.t_map[0] @ t[1]
        try:
            t[0] = np.linalg.solve(self.coupling, t[0])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"the N x N coupling of I - M is singular: {exc}") from exc
        t[1] += self.t_map[1] @ t[0]
        return t

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
        t = self.solve_coupling(_diag_of_product(self.v, b))
        b += self.lam * t[::-1, :, None] * self.r
        return self._block_solve(b)


class _ChamberNewton:
    """Newton's method on the 2N return probabilities ``u = diag(P R)``,
    with R eliminated: at a given u the system is linear in R, and R(u)
    solves it block by block (nonlinear elimination; Lanzkron, Rose &
    Wilkes, SIAM J. Sci. Comput. 17, 1996).  The map
    ``u -> diag(P R(u))`` is isotone and order-convex, so Newton's method
    from u = 0 rises monotonically to its least fixed point (Ortega &
    Rheinboldt, *Iterative Solution of Nonlinear Equations*, section 13.3),
    the ``u`` of the least root R.

    Step j factors ``G`` at ``u_j`` (a ``LinearisedSystem``), then moves R
    by the block solve of the linear part's residual at the last R and
    ``u_j``, so that R solves the linear system at ``u_j`` to its rounding.
    One product ``P @ R`` then gives ``g = diag(P R) - u_j``, the next
    residual and the true defect, and the coupling, formed from the same
    factorisation and R, measures the next step ``Δu`` by one N x N solve:
    the Jacobian of g is ``-[[I, -T_+], [-T_-, I]]``.  The factorisation
    of the last step thus sits at the root and serves the derivatives."""

    def __init__(self, p: np.ndarray, lam: float):
        self.p, self.lam = p, lam
        self.r = np.zeros(p.shape)
        # u_0 = 0, reached by a step of 0, and P R = 0 at R = 0.
        self.u, self.du, self.pr = np.zeros(p.shape[:2]), np.zeros(p.shape[:2]), np.zeros(p.shape)
        self.linear: LinearisedSystem | None = None
        self.last_step = np.inf

    def step(self, iterations: int, tol: float) -> bool:
        """Apply the measured step to u, factor at the new u, bring R to it and
        measure the next step; whether the iteration stops at this u."""
        p, lam, r, u = self.p, self.lam, self.r, self.u
        u += self.du
        # The linear part's residual at the last R and the new u, filled in
        # the buffer of the last P R.
        residual = _complete_rhs(self.pr, p, lam, r, u)
        residual -= r
        # Free the last factorisation before the next is built.
        self.pr = self.linear = None
        self.linear = linear = LinearisedSystem(p, lam, u)
        r += linear._block_solve(residual)
        del residual
        self.pr = p @ r
        linear.couple(r)
        self.du = linear.solve_coupling(_diagonal(self.pr) - u)
        step = _step_size(self.du, iterations)
        applied, self.last_step = self.last_step, step
        # Taking the next step would move each entry of R by at most
        # lam ||H||_inf step max R, as H_k bounds the inverse of each of its
        # deleted blocks entrywise: within half an ulp of max R it rounds
        # away.  ||H||_inf >= 1 is read only when the rule can fire.
        return (applied <= tol or (step <= STALL_STEP and step >= applied)
                or (lam * step <= HALF_EPS
                    and lam * float(linear.h.sum(axis=2).max()) * step <= HALF_EPS))

    def finish(self) -> float:
        """The true defect ``max |f(R) - R|`` at the root, read off the last
        ``P @ R``, whose diagonal becomes the ``u`` the derivatives read."""
        f, self.pr = self.pr, None
        self.u = _diagonal(f).copy()
        f = _complete_rhs(f, self.p, self.lam, self.r, self.u)
        f -= self.r
        return float(np.abs(f).max())

    def linearised(self) -> Callable[[np.ndarray], np.ndarray]:
        """The solve with ``I - M`` at the root: the last step's factorisation."""
        return self.linear.solve

    def m_times(self, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """M D and the return term ``lam diag(P_{-k} D_{-k})`` on each row."""
        md, t = apply_m(self.p, self.lam, self.r, d, self.u)
        return md, self.lam * t[::-1, :, None]

    def values(self, r: np.ndarray) -> np.ndarray:
        return r


def _lu_solve(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``matrix^{-1} b`` by one LU solve, for the dense ``I - M``."""
    try:
        return np.linalg.solve(matrix, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"I - M is singular: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _flat_pattern(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the flat system's entries come from in the raveled (2, N, N)
    ``P``, for N windows: the arcs in flat order, then the row, column and
    source of each entry of ``K = [A1; C]``, the return-term block C's rows
    offset by dim.  Read-only, and kept for each N up to ``DENSE_MAX_N``,
    the only sizes that build a flat system."""
    dim = 2 * n * (n - 1)
    flat = np.full((2, n, n), -1)
    flat[:, ~np.eye(n, dtype=bool)] = np.arange(dim).reshape(2, -1)
    s, i, j, m = np.indices((2, n, n, n))
    arc = i != j
    # A1: the walk from i to m != j in chamber k, then on from m to j.
    same = arc & (m != i) & (m != j)
    # C: the return from i to m and back in the other chamber.
    back = arc & (m != i)
    pattern = (np.flatnonzero(flat >= 0),
               np.concatenate((flat[s, i, j][same], dim + flat[s, i, j][back])),
               np.concatenate((flat[s, m, j][same], flat[1 - s, m, i][back])),
               np.concatenate((((s * n + i) * n + m)[same], (((1 - s) * n + i) * n + m)[back])))
    for a in pattern:
        a.flags.writeable = False
    return pattern


def system_matrices(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat system ``R = p + A1 R + (C R) * R`` of a (2, N, N) chamber
    array ``p``, as ``(p, K)``: the arcs' probabilities in flat order (sign
    +1 then -1, then source i, then target j != i) and the ``(2 dim, dim)``
    stack ``K = [A1; C]``, each entry one entry of ``p``, placed by
    ``_flat_pattern``, which caches the pattern for each N."""
    arcs, rows, cols, src = _flat_pattern(p.shape[-1])
    flat = np.ravel(p)
    stack = np.zeros((2 * len(arcs), len(arcs)))
    stack[rows, cols] = flat[src]
    return flat[arcs], stack


class _FlatNewton:
    """Newton's method on the dense flat system for small N, in flat order:
    ``R = p' + A1' R + (C' R) * R`` with the primes scaled by lam.  The
    constant parts are placed once from ``lam P``, by ``system_matrices``,
    as ``p'`` and the stack ``K' = [A1'; C']``, and each step adds the
    R-dependent terms ``diag(C' R) + diag(R) C'`` to ``I - A1'``, read off
    views of K', and does one LU solve.  One product ``K' R`` gives
    ``A1' R`` and the return term ``C' R`` of each row, once per step, with
    the defect, and ``m_times`` reuses the ``C' R`` at the root."""

    def __init__(self, p: np.ndarray, lam: float):
        self.lam, self.shape = lam, p.shape
        self.arcs = _flat_pattern(p.shape[-1])[0]
        self.lam_p, self.lam_k = system_matrices(lam * p)
        # At R = 0 the return term is 0 and the defect is p'.
        self.r, self.ret = np.zeros(len(self.arcs)), np.zeros(len(self.arcs))
        self.i_minus_a1 = np.eye(len(self.r)) - self.lam_k[:len(self.r)]
        self.f = self.lam_p
        self.last_step = np.inf

    def defect(self, r: np.ndarray) -> np.ndarray:
        """f(R) - R, keeping R and its return term ``C' R`` for the step."""
        self.r, x = r, self.lam_k @ r
        f, self.ret = x[:len(r)], x[len(r):]
        f += self.lam_p
        f += self.ret * r
        f -= r
        return f

    def step(self, iterations: int, tol: float) -> bool:
        """One Newton step on R; whether the iteration stops after it."""
        delta = self.linearised()(self.f)
        step = _step_size(delta, iterations)
        self.r += delta
        # Only R and its defect stay live into the next factorisation.
        del delta
        self.f = self.defect(self.r)
        prev_step, self.last_step = self.last_step, step
        return step <= tol or (step <= STALL_STEP and step >= prev_step)

    def finish(self) -> float:
        """The true defect ``max |f(R) - R|`` at the root."""
        return float(np.abs(self.f).max())

    def linearised(self) -> Callable[[np.ndarray], np.ndarray]:
        """The solve with ``I - M`` at the R of the last defect, by LU."""
        j = np.multiply(self.r[:, None], self.lam_k[len(self.r):])
        np.subtract(self.i_minus_a1, j, out=j)
        j.reshape(-1)[::len(self.r) + 1] -= self.ret
        return functools.partial(_lu_solve, j)

    def m_times(self, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``M D = A1' D + (C' R) * D + R * (C' D)`` and the return term ``C' D``."""
        x = self.lam_k @ d
        md, t = x[:len(d)], x[len(d):]
        md += self.ret * d
        md += self.r * t
        return md, t

    def values(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        out.reshape(-1)[self.arcs] = r
        return out


def _step_size(delta: np.ndarray, iterations: int) -> float:
    """``max |delta|`` of Newton step ``iterations``, which must be finite."""
    step = float(np.abs(delta).max())
    if not math.isfinite(step):
        raise SolverError(f"Newton step {iterations} is not finite")
    return step


def solve_r(
    kernel: TransitionKernel,
    lam: float,
    tol: float = DEFAULT_TOL,
) -> RSolution:
    """Least root of the quadratic system at ``lam`` in [0, 1], by Newton's
    method from R = 0.

    Up to ``DENSE_MAX_N`` windows the steps are taken on R, in the dense flat
    system.  The iteration stops after a step that is at most ``tol``, or
    below ``STALL_STEP`` and no smaller than the one before it, as the
    iterate then sits at the rounding floor of the solve, which can lie above
    a small ``tol``.  Both rules read a step that was taken.

    Above it the steps are taken on ``u = diag(P R)`` (``_ChamberNewton``),
    each of which measures the next before it is taken.  The iteration stops
    at u once the step that reached u is at most ``tol``; or once the
    measured next step would move R by at most half an ulp of ``max R``
    (``lam ||H||_inf step <= eps / 2``), or is below ``STALL_STEP`` and no
    smaller than the step that reached u.

    ``DEFAULT_MAX_ITER`` steps without a stop raise SolverError.
    ``iterations`` counts Newton steps, one factorisation each, and
    ``residual`` is the true defect ``max |f(R) - R|`` at the returned R.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    system = (_FlatNewton if kernel.n_windows <= DENSE_MAX_N else _ChamberNewton)(kernel.P, lam)
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        if system.step(iterations, tol):
            break
    else:
        raise SolverError(f"Newton's method did not converge in {DEFAULT_MAX_ITER} steps "
                          f"(last step {system.last_step:.3e})")
    residual = system.finish()
    return RSolution(lam, system.values(system.r), residual, iterations, system)


def solve_r_derivatives(r: RSolution) -> RDerivatives:
    """Implicit first and second lambda-derivatives of the root ``r`` that
    ``solve_r`` returned, at ``r.lam`` and on the same path.

    Differentiating the fixed point once gives (I - M) d1 = R / lam, and a
    second time (I - M) d2 = 2 (M / lam) d1 + 2 lam (C d1) * d1 with the
    quadratic cross terms from the return products; in the matrix form
    ``(C d1)`` is ``diag(P_{-k} d1_{-k})`` on row i.  ``I - M`` is that of
    ``r.system`` at the root, and serves both solves: on the structured path
    it is the last Newton step's factorisation, so none is built here, and
    on the dense flat one, which takes up to ``DENSE_MAX_N`` windows, it is
    LU-solved twice.  A lam below the smallest normal float is refused:
    ``R ~ lam P`` underflows there.
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
