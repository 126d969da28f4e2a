"""Ring laws and derivative bookkeeping of the truncated Taylor arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windwalk.jets import Jet2, jet_mul

from helpers import power_jet, series_jet

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)
jets = st.builds(Jet2, coeff, coeff, coeff, coeff, coeff, coeff)


def _close(a: Jet2, b: Jet2, tol=1e-9):
    for name in ("c00", "c10", "c01", "c20", "c11", "c02"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=tol)


@given(jets, jets, jets)
@settings(max_examples=300, deadline=None)
def test_ring_laws(a, b, c):
    _close(a + b, b + a)
    _close(a * b, b * a)
    _close((a + b) + c, a + (b + c))
    _close((a * b) * c, a * (b * c), tol=1e-6)
    _close(a * (b + c), a * b + a * c, tol=1e-7)
    _close(a - a, Jet2())
    _close(a * 1.0, a)
    _close(a * 0.0, Jet2())


def test_coordinate_jets():
    lam, z = Jet2(1.0, c10=1.0), Jet2(1.0, c01=1.0)
    prod = lam * z
    assert prod.value == 1.0
    assert prod.d_lambda == 1.0 and prod.d_z == 1.0
    assert prod.d_lambda_z == 1.0
    assert prod.d2_lambda == 0.0 and prod.d2_z == 0.0


def test_power_jet_matches_integer_powers():
    z = Jet2(1.0, c01=1.0)
    _close(power_jet(1), z)
    _close(power_jet(2), z * z)
    _close(power_jet(3), z * z * z)
    # generalized binomial for a non-integer weight
    half = power_jet(0.5)
    assert half.d_z == 0.5
    assert half.d2_z == pytest.approx(0.5 * (0.5 - 1.0))


def test_series_jet_partials():
    j = series_jet(0.25, 2.0, 28.0)
    assert j.value == 0.25
    assert j.d_lambda == 2.0
    assert j.d2_lambda == 28.0
    assert j.d_z == j.d2_z == j.d_lambda_z == 0.0


def test_scalar_coercion_rejects_junk():
    with pytest.raises(TypeError):
        Jet2(1.0) + "nope"


def _to_jet(coefficients) -> Jet2:
    return Jet2(*(float(c) for c in coefficients))


def test_array_jets_match_scalar_ring():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 4, 4))
    b = rng.normal(size=(6, 4, 4))
    elementwise, product = jet_mul(a, b), jet_mul(a, b, np.matmul)
    for i in range(4):
        for j in range(4):
            _close(_to_jet(elementwise[:, i, j]), _to_jet(a[:, i, j]) * _to_jet(b[:, i, j]),
                   tol=1e-12)
            acc = Jet2()
            for m in range(4):
                acc = acc + _to_jet(a[:, i, m]) * _to_jet(b[:, m, j])
            _close(_to_jet(product[:, i, j]), acc, tol=1e-12)
