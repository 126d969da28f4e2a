"""Shared test utilities: random word generation, seeded Dirichlet kernels,
scalar jets and finite-difference stencils for the determinant partials."""

from __future__ import annotations

import numpy as np

from windwalk.chain import TransitionKernel
from windwalk.groupoid import Arc, Word, append, chamber_array, unit
from windwalk.jets import Jet2
from windwalk.oracle import direct_h


def random_word(rng: np.random.Generator, n_windows: int, max_len: int = 12,
                source: int | None = None) -> Word:
    """A random reduced word built by appending random admissible arcs."""
    if source is None:
        source = int(rng.integers(1, n_windows + 1))
    w = unit(source)
    for _ in range(int(rng.integers(0, max_len + 1))):
        i = w.target
        j = int(rng.choice([x for x in range(1, n_windows + 1) if x != i]))
        k = int(rng.choice([1, -1]))
        w = append(w, Arc(i, j, k))
    return w


def dirichlet_kernel(n: int, concentration: float, seed: int) -> TransitionKernel:
    """Each window's 2(N-1) outgoing arcs draw their probabilities from a
    symmetric Dirichlet law; entries are floored at 1e-12 so every
    probability stays inside (0, 1)."""
    rng = np.random.default_rng(seed)
    p = {}
    for i in range(1, n + 1):
        arcs = [(i, j, k) for k in (1, -1) for j in range(1, n + 1) if j != i]
        probs = np.maximum(rng.dirichlet(np.full(len(arcs), concentration)), 1e-12)
        p.update(zip(arcs, probs / probs.sum()))
    P, given = chamber_array(p, n)
    return TransitionKernel(P, name=f"dirichlet(N={n}, a={concentration}, seed={seed})",
                            given=given)


def power_jet(exponent: float) -> Jet2:
    """Jet of z**w about z = 1 for a real (possibly non-integer) weight w,
    via the generalized binomial expansion."""
    w = float(exponent)
    return Jet2(1.0, c01=w, c02=0.5 * w * (w - 1.0))


def series_jet(value: float, d1: float, d2: float) -> Jet2:
    """Jet of a function of lam alone from its value and two derivatives."""
    return Jet2(float(value), c10=float(d1), c20=0.5 * float(d2))


def fd_partials(kernel, metric, h: float = 5e-4, tol: float = 1e-15):
    """All five partials of the determinant at (1, 1) by finite differences.

    z uses fourth-order central stencils.  lambda must stay <= 1 (the solver
    domain), so one-sided backward stencils of order >= 4 are used there.
    Returns (d_lambda, d_z, d2_lambda, d_lambda_z, d2_z).
    """
    def f(lam, z):
        return direct_h(kernel, metric, lam, z, tol=tol)

    d_z = (-f(1, 1 + 2 * h) + 8 * f(1, 1 + h) - 8 * f(1, 1 - h) + f(1, 1 - 2 * h)) / (12 * h)
    d2_z = (
        -f(1, 1 + 2 * h) + 16 * f(1, 1 + h) - 30 * f(1, 1)
        + 16 * f(1, 1 - h) - f(1, 1 - 2 * h)
    ) / (12 * h**2)
    pts = [f(1 - i * h, 1) for i in range(6)]
    d_l = (
        137 / 60 * pts[0] - 5 * pts[1] + 5 * pts[2]
        - 10 / 3 * pts[3] + 5 / 4 * pts[4] - 1 / 5 * pts[5]
    ) / h
    d2_l = (
        45 * pts[0] - 154 * pts[1] + 214 * pts[2]
        - 156 * pts[3] + 61 * pts[4] - 10 * pts[5]
    ) / (12 * h**2)

    def dz_at(lam):
        return (-f(lam, 1 + 2 * h) + 8 * f(lam, 1 + h)
                - 8 * f(lam, 1 - h) + f(lam, 1 - 2 * h)) / (12 * h)

    g = [dz_at(1 - i * h) for i in range(5)]
    d_lz = (25 * g[0] - 48 * g[1] + 36 * g[2] - 16 * g[3] + 3 * g[4]) / (12 * h)
    return d_l, d_z, d2_l, d_lz, d2_z


def printed_tolerance(printed: float) -> float:
    """One unit in the sixth significant digit of a printed value.

    Reference tables are truncated (not rounded) at six significant digits,
    so the recomputed value can sit anywhere within one ulp above the print.
    A 5% margin covers solver round-off on top of the truncation.
    """
    exponent = int(np.floor(np.log10(abs(printed))))
    return 1.05 * 10.0 ** (exponent - 5)
