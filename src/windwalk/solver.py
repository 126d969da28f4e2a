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
layout.  Its off-diagonal entries in row-major order are the flat
``IndexMap`` order, in which the same system reads

    R = lam * (p + A1 @ R + (C @ R) * R).

Up to ``DENSE_MAX_N`` windows, at most 60 unknowns, Newton's method and the
derivatives work on this flat form instead: its lam-scaled constant part
(``p``, ``A1`` and ``C``) is placed once per call from ``P`` by index
arithmetic, each step adds the R-dependent terms of the Jacobian
``M = lam (A1 + diag(C R) + diag(R) C)`` with a few array operations and
does one dense LU solve, and the results are scattered back into the
(2, N, N) layout.  There one LU solve costs less than the structured
solve's many small numpy calls.  One Newton loop, with one stop rule, serves
both forms.

``system_matrices``, ``build_m_matrix`` and ``to_flat`` build the dense form
arc by arc, the independent reference for the tests; no library path calls
them.  ``system_matrices`` reads the kernel through
``TransitionKernel.prob``, not through ``P``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .chain import TransitionKernel
from .groupoid import arc_entries, arc_entry, other_windows

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 100
#: Below this step size a Newton step that no longer shrinks is rounding
#: noise, and the iteration stops there.
STALL_STEP = 1e-8
#: Column j of a chamber is solved on its own deleted block, not read off
#: ``H_k = G_k^{-1}``, when ``min(1, |H_jj|)`` is below this share of
#: ``max |H_k|``: the deleted-index update would cancel to noise there.
FALLBACK_RATIO = float(np.sqrt(np.finfo(float).eps))
#: Up to this many windows Newton's method works on the dense flat system,
#: at most 2N(N-1) = 60 unknowns, with one LU solve per step: up to N = 6
#: that costs less than the structured solve's numpy calls, from N = 7 more
#: (the crossover table in README, "Costs as N grows").
DENSE_MAX_N = 6
#: ``transience_root``'s power iteration stops once its Collatz-Wielandt
#: bracket bounds the relative error by this, and raises after
#: ``POWER_MAX_ITER`` steps.
POWER_TOL = 1e-12
POWER_MAX_ITER = 100000


class SolverError(RuntimeError):
    """Iteration failed to converge, or the implicit linear system is singular."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IndexMap:
    """Documented flat order for the 2N(N-1) arc indices: the sign k runs
    outermost (+1 then -1), then the source i, then the target j skipping
    j = i.  Matrices built on this order are reproducible everywhere."""

    def __init__(self, n_windows: int):
        self.n_windows = n_windows
        self.tuples: List[Tuple[int, int, int]] = [
            (i, j, k)
            for k in (1, -1)
            for i in range(1, n_windows + 1)
            for j in range(1, n_windows + 1)
            if j != i
        ]
        self._flat = {t: n for n, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)

    def flat(self, i: int, j: int, k: int) -> int:
        return self._flat[(i, j, k)]


@dataclass
class RSolution:
    """Converged (2, N, N) R values at one lambda, with the fixed-point defect."""

    lam: float
    values: np.ndarray
    residual: float
    iterations: int

    def value(self, i: int, j: int, k: int) -> float:
        return arc_entry(self.values, i, j, k)


@dataclass
class RDerivatives:
    """First and second lambda-derivatives of R at the solved point, (2, N, N)."""

    d1: np.ndarray
    d2: np.ndarray

    def first(self, i: int, j: int, k: int) -> float:
        return arc_entry(self.d1, i, j, k)

    def second(self, i: int, j: int, k: int) -> float:
        return arc_entry(self.d2, i, j, k)


def system_matrices(kernel: TransitionKernel) -> Tuple[IndexMap, np.ndarray, np.ndarray, np.ndarray]:
    """Flat-index data (index, p, A1, C) for the quadratic system."""
    index = IndexMap(kernel.n_windows)
    dim = len(index)
    n = kernel.n_windows
    p_vec = np.array([kernel.prob(i, j, k) for (i, j, k) in index.tuples])
    a1 = np.zeros((dim, dim))
    c = np.zeros((dim, dim))
    for row, (i, j, k) in enumerate(index.tuples):
        for m in range(1, n + 1):
            if m != i and m != j:
                a1[row, index.flat(m, j, k)] = kernel.prob(i, m, k)
            if m != i:
                c[row, index.flat(m, i, -k)] = kernel.prob(i, m, -k)
    return index, p_vec, a1, c


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


def apply_m(p: np.ndarray, lam: float, r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M D, the Jacobian of f at R applied to a (2, N, N) array D."""
    u = _diag_of_product(p, r)
    t = _diag_of_product(p, d)
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
    as ``G_k`` nears singularity.  A column with
    ``min(1, |H_jj|) < FALLBACK_RATIO max |H_k|`` inverts its gathered
    block directly instead; ``fallback_columns`` counts them.  As
    ``H_k >= I`` here, that is every column of a near-singular ``G_k``.

    The 2N scalars ``t_k = diag(P_k D_k)`` are linear in ``t_{-k}``,
    ``t_k = a_k + T_k t_{-k}``.  Row i of ``v`` is row i of ``P_k`` times
    the inverse of block i, so ``a_k = diag(v_k B_k)`` needs no block solve
    and ``T_k = offdiag(lam v_k R_k^T)`` is read off ``v``.  The t solve the
    2N x 2N ``coupling`` ``[[I, -T_+], [-T_-, I]]``, LU-solved on each call,
    and one block solve of ``B_k + lam diag(t_{-k}) R_k`` then gives D.

    ``G_k`` is assembled in place from ``-lam P_k``, its diagonal
    ``1 - lam u_{-k}`` written through a strided view; once ``H`` and ``v``
    are formed, the buffer of G holds ``T`` while the coupling's blocks are
    written.  ``h_diag``
    is a view of ``H`` unless some column falls back.  A solve copies B once
    and writes into the copy, never into B.  ``u = diag(P R)`` is formed here
    unless the caller, which has it from the defect at R, passes it.
    """

    def __init__(self, p: np.ndarray, lam: float, r: np.ndarray, u: np.ndarray | None = None):
        n = p.shape[-1]
        self.lam, self.r = lam, r
        if u is None:
            u = _diag_of_product(p, r)
        # C order, whatever the layout of P, so that _diagonal is a view.
        g = np.multiply(p, -lam, order="C")
        _diagonal(g)[...] = 1.0 - lam * u[::-1]
        try:
            h = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"a chamber block of I - M is singular: {exc}") from exc
        h_diag = _diagonal(h)
        fallback = np.minimum(np.abs(h_diag), 1.0) < (
            FALLBACK_RATIO * np.abs(h).max(axis=(1, 2))[:, None])
        self.fallback_columns = int(np.count_nonzero(fallback))
        if self.fallback_columns:
            # A fallback column divides by 1 here and is overwritten after.
            h_diag = np.where(fallback, 1.0, h_diag)
        self.h, self.h_diag = h, h_diag
        # Row i of v: row i of P_k times the inverse of block i.
        v = p @ h
        v -= h * (_diagonal(v) / h_diag)[:, :, None]
        if self.fallback_columns:
            self.sign, self.col = np.nonzero(fallback)
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
        """f(R) - R, keeping ``u`` at R for the step from R."""
        self.u = _diag_of_product(self.p, r)
        f = _rhs(self.p, self.lam, r, self.u)
        f -= r
        return f

    def step(self, r: np.ndarray, defect: np.ndarray) -> np.ndarray:
        return LinearisedSystem(self.p, self.lam, r, self.u).solve(defect)

    def values(self, r: np.ndarray) -> np.ndarray:
        return r

    def derivatives(self, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p, lam = self.p, self.lam
        system = LinearisedSystem(p, lam, r)
        d1 = system.solve(r / lam)
        t1 = _diag_of_product(p, d1)
        b2 = apply_m(p, lam, r, d1)
        b2 *= 2.0
        b2 /= lam
        b2 += 2.0 * lam * t1[::-1, :, None] * d1
        return d1, system.solve(b2)


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
    block C (the ``system_matrices`` formulas).  Read-only, and kept for each
    N up to ``DENSE_MAX_N``, the only sizes that build a flat system."""
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


class _FlatNewton:
    """Newton's method on the dense flat system for small N, in ``IndexMap``
    order: ``R = p' + A1' R + (C' R) * R`` with the primes scaled by lam.
    The constant parts are assembled once, and each step adds the
    R-dependent terms ``diag(C' R) + diag(R) C'`` to ``I - A1'`` and does one
    LU solve.  ``C' R``, the return term of each row, is formed once per
    step, with the defect."""

    def __init__(self, p: np.ndarray, lam: float):
        n = p.shape[-1]
        self.lam, self.shape = lam, p.shape
        self.arcs, a_rows, a_cols, a_src, c_rows, c_cols, c_src = _flat_pattern(n)
        lam_p = lam * np.ravel(p)
        dim = len(self.arcs)
        self.lam_p = lam_p[self.arcs]
        self.lam_a1 = np.zeros((dim, dim))
        self.lam_a1[a_rows, a_cols] = lam_p[a_src]
        self.lam_c = np.zeros((dim, dim))
        self.lam_c[c_rows, c_cols] = lam_p[c_src]
        self.i_minus_a1 = np.eye(dim) - self.lam_a1

    def start(self) -> np.ndarray:
        return np.zeros(len(self.arcs))

    def defect(self, r: np.ndarray) -> np.ndarray:
        """f(R) - R, keeping the return term ``C' R`` for the step from R."""
        self.ret = self.lam_c @ r
        f = self.lam_a1 @ r
        f += self.lam_p
        f += self.ret * r
        f -= r
        return f

    def _jacobian(self, r: np.ndarray, ret: np.ndarray) -> np.ndarray:
        """``I - M`` at R, whose return term is ``ret``."""
        j = np.multiply(r[:, None], self.lam_c)
        np.subtract(self.i_minus_a1, j, out=j)
        j.reshape(-1)[::len(r) + 1] -= ret
        return j

    def step(self, r: np.ndarray, defect: np.ndarray) -> np.ndarray:
        return _lu_solve(self._jacobian(r, self.ret), defect)

    def values(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        out.reshape(-1)[self.arcs] = r
        return out

    def derivatives(self, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lam = self.lam
        r = np.ravel(r)[self.arcs]
        ret = self.lam_c @ r
        jacobian = self._jacobian(r, ret)
        d1 = _lu_solve(jacobian, r / lam)
        t1 = self.lam_c @ d1
        # b2 = 2 (M / lam) d1 + 2 t1 * d1, with M d1 = A1' d1 + ret * d1 + R * t1.
        b2 = self.lam_a1 @ d1
        b2 += ret * d1
        b2 += r * t1
        b2 *= 2.0
        b2 /= lam
        b2 += 2.0 * t1 * d1
        d2 = _lu_solve(jacobian, b2)
        return self.values(d1), self.values(d2)


def _newton_system(p: np.ndarray, lam: float) -> _ChamberNewton | _FlatNewton:
    return (_FlatNewton if p.shape[-1] <= DENSE_MAX_N else _ChamberNewton)(p, lam)


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
    system = _newton_system(kernel.P, lam)
    r = system.start()
    defect = system.defect(r)
    prev_step = np.inf
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        delta = system.step(r, defect)
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
            f"Newton's method did not converge in {DEFAULT_MAX_ITER} steps (last step {step:.3e})",
            residual=float(np.abs(defect).max()),
        )
    residual = float(np.abs(defect).max())
    return RSolution(lam, system.values(r), residual, iterations)


def solve_r_derivatives(kernel: TransitionKernel, r: RSolution) -> RDerivatives:
    """Implicit first and second derivatives of R in lambda at ``r.lam``.

    Differentiating the fixed point once gives (I - M) d1 = R / lam, and a
    second time (I - M) d2 = 2 (M / lam) d1 + 2 lam (C d1) * d1 with the
    quadratic cross terms from the return products; in the matrix form
    ``(C d1)`` is ``diag(P_{-k} d1_{-k})`` on row i.  ``I - M`` at the root
    serves both solves: factored once on the structured path, and LU-solved
    twice on the dense flat one, which takes up to ``DENSE_MAX_N`` windows.
    """
    if r.lam <= 0:
        raise ValueError("derivatives require lambda > 0")
    return RDerivatives(*_newton_system(kernel.P, r.lam).derivatives(r.values))


def primitivity_pattern_ok(matrix: np.ndarray) -> bool:
    """True when the 0/1 pattern of the matrix cubed is all ones."""
    pattern = (matrix > 0).astype(np.int64)
    return bool((np.linalg.matrix_power(pattern, 3) > 0).all())


def transience_root(kernel: TransitionKernel) -> float:
    """Perron root of the linearised map at lambda=1 with all R set to 1, by
    power iteration on ``apply_m`` at O(N^3) per product.

    This is the recurrence-hypothesis matrix: its root strictly above 1
    certifies that the chain escapes to infinity.

    M is non-negative and every arc's row of it is positive, so D stays
    positive from the all-ones start, and the least and greatest of the
    ratios ``(M D) / D`` over the arcs bracket the root (Collatz-Wielandt;
    Horn & Johnson, *Matrix Analysis*, section 8.1).  Each step takes one
    product.  Iteration stops once the bracket is within ``POWER_TOL`` times
    its lower end and returns its midpoint; ``POWER_MAX_ITER`` steps without
    that raise SolverError, naming the bracket.
    """
    p = kernel.P
    ones = _offdiag(np.ones_like(p))
    arcs = ones > 0
    d = ones
    for _ in range(POWER_MAX_ITER):
        md = apply_m(p, 1.0, ones, d)
        ratios = md[arcs] / d[arcs]
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= POWER_TOL * lo:
            return 0.5 * (lo + hi)
        d = md / hi
    raise SolverError(f"power iteration did not converge in {POWER_MAX_ITER} iterations: "
                      f"the root lies in [{lo!r}, {hi!r}]")


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
