"""Second-order bivariate truncated Taylor arithmetic about (lam, z) = (1, 1).

A Jet2 stores the coefficients of

    c00 + c10*dl + c01*dz + c20*dl^2 + c11*dl*dz + c02*dz^2

with dl = lam - 1, dz = z - 1; products truncate above total degree two.
Propagating jets through a determinant yields all five partial derivatives
in a single pass, with no finite-difference cancellation.

``Jet2`` is the scalar ring, with sums and products but no division.
``jet_mul`` applies the same product to coefficient arrays whose leading
axis of length 6 runs over (c00, c10, c01, c20, c11, c02), so a whole
matrix of jets is propagated with a few float array operations (Taylor-mode
arithmetic, Griewank & Walther, *Evaluating Derivatives*, ch. 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np


@dataclass(frozen=True)
class Jet2:
    c00: float = 0.0
    c10: float = 0.0
    c01: float = 0.0
    c20: float = 0.0
    c11: float = 0.0
    c02: float = 0.0

    @staticmethod
    def const(value: float) -> "Jet2":
        return Jet2(float(value))

    @staticmethod
    def var_lambda() -> "Jet2":
        """The coordinate function lam, expanded about 1."""
        return Jet2(1.0, c10=1.0)

    @staticmethod
    def var_z() -> "Jet2":
        """The coordinate function z, expanded about 1."""
        return Jet2(1.0, c01=1.0)

    def __add__(self, other):
        other = _coerce(other)
        return Jet2(
            self.c00 + other.c00,
            self.c10 + other.c10,
            self.c01 + other.c01,
            self.c20 + other.c20,
            self.c11 + other.c11,
            self.c02 + other.c02,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.c00, -self.c10, -self.c01, -self.c20, -self.c11, -self.c02)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        return Jet2(
            self.c00 * o.c00,
            self.c00 * o.c10 + self.c10 * o.c00,
            self.c00 * o.c01 + self.c01 * o.c00,
            self.c00 * o.c20 + self.c10 * o.c10 + self.c20 * o.c00,
            self.c00 * o.c11 + self.c10 * o.c01 + self.c01 * o.c10 + self.c11 * o.c00,
            self.c00 * o.c02 + self.c01 * o.c01 + self.c02 * o.c00,
        )

    __rmul__ = __mul__

    # Partial derivatives of the represented function at (1, 1).
    @property
    def value(self) -> float:
        return self.c00

    @property
    def d_lambda(self) -> float:
        return self.c10

    @property
    def d_z(self) -> float:
        return self.c01

    @property
    def d2_lambda(self) -> float:
        return 2.0 * self.c20

    @property
    def d_lambda_z(self) -> float:
        return self.c11

    @property
    def d2_z(self) -> float:
        return 2.0 * self.c02


def _coerce(value) -> Jet2:
    if isinstance(value, Jet2):
        return value
    if isinstance(value, Real):
        return Jet2(float(value))
    raise TypeError(f"cannot mix Jet2 with {type(value)!r}")


def jet_mul(a, b, product=np.multiply):
    """Truncated product of jets held as coefficient arrays of leading length
    6.  ``product`` multiplies two coefficient blocks: ``np.multiply`` for
    elementwise jets (with broadcasting), ``np.matmul`` for matrices of jets,
    which costs 15 float matrix products."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    return np.stack([
        product(a0, b0),
        product(a0, b1) + product(a1, b0),
        product(a0, b2) + product(a2, b0),
        product(a0, b3) + product(a1, b1) + product(a3, b0),
        product(a0, b4) + product(a1, b2) + product(a2, b1) + product(a4, b0),
        product(a0, b5) + product(a2, b2) + product(a5, b0),
    ])
