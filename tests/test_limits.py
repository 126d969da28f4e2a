"""Determinant and Perron-root jets, drift/variance extraction, Toeplitz
recurrence, spectral radius of the transfer block matrix."""

import json
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from windwalk import limits
from windwalk.chain import asymmetric_kernel, one_parameter_kernel, symmetric_kernel
from windwalk.groupoid import custom_metric, fenced_metric, word_metric
from windwalk.jets import Jet2
from windwalk.limits import (
    SIMPLE_ZERO_TOL,
    DegenerateSystemError,
    build_b,
    compute_limits,
    det_h,
    det_jet,
    kms_phi,
    limit_constants,
    limits_from_jets,
    perron_jet,
)
from windwalk.oracle import closed_form, closed_form_symmetric
from windwalk.solver import solve_r, solve_r_derivatives

from helpers import dirichlet_kernel, fd_partials, power_jet, series_jet
from reference import arc_entry, b_matrix_values, direct_h, spectral_radius_k

KERNELS = [symmetric_kernel(3), one_parameter_kernel(0.1), asymmetric_kernel()]
FIELDS = ("c00", "c10", "c01", "c20", "c11", "c02")


def _jet_array(matrix):
    """A list of lists of ``Jet2`` as the (6, n, n) array ``det_jet`` reads."""
    return np.array([[[getattr(x, name) for x in row] for row in matrix] for name in FIELDS])


def test_det_jet_against_numpy_on_constant_matrix():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        a = rng.normal(size=(n, n))
        m = [[Jet2(float(a[i, j])) for j in range(n)] for i in range(n)]
        assert det_jet(_jet_array(m)).value == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_det_jet_zero_matrix():
    # Every direction of the zero constant term is null: no simple zero.
    zero = [[Jet2() for _ in range(3)] for _ in range(3)]
    with pytest.raises(DegenerateSystemError, match="two or more null directions"):
        det_jet(_jet_array(zero))


def test_det_jet_tracks_derivatives():
    # det [[lam, z], [1, 1]] = lam - z: all partials known exactly
    m = [[Jet2(1.0, c10=1.0), Jet2(1.0, c01=1.0)], [Jet2(1.0), Jet2(1.0)]]
    d = det_jet(_jet_array(m))
    assert d.value == 0.0
    assert d.d_lambda == 1.0 and d.d_z == -1.0
    assert d.d2_lambda == d.d2_z == d.d_lambda_z == 0.0


def test_h_vanishes_at_1_1():
    for k in KERNELS:
        for metric in (word_metric(3), fenced_metric(3)):
            r = solve_r(k, 1.0, tol=1e-14)
            d = solve_r_derivatives(r)
            w = metric.W
            h = det_h(build_b(r, d, w))
            assert abs(h.value) < 1e-11
            assert h.value == pytest.approx(direct_h(k, metric, 1.0, 1.0, tol=1e-14), abs=1e-11)


def test_jet_partials_match_finite_differences():
    k = asymmetric_kernel()
    metric = fenced_metric(3)
    r = solve_r(k, 1.0, tol=1e-15)
    d = solve_r_derivatives(r)
    w = metric.W
    h = det_h(build_b(r, d, w))
    jet = (h.d_lambda, h.d_z, h.d2_lambda, h.d_lambda_z, h.d2_z)
    fd = fd_partials(k, metric)
    for a, b in zip(jet, fd):
        assert a == pytest.approx(b, rel=1e-5)


def test_compute_limits_symmetric_n3():
    k = symmetric_kernel(3)
    cw = compute_limits(k, word_metric(3))
    assert cw.gamma == pytest.approx(0.25, abs=1e-11)
    assert cw.sigma2 == pytest.approx(11 / 16, abs=1e-10)
    cf = compute_limits(k, fenced_metric(3))
    assert cf.gamma == pytest.approx(1 / 3, abs=1e-11)


def test_zero_metric_degenerates_to_zero_drift():
    k = symmetric_kernel(3)
    zero_metric = custom_metric(3, {})
    c = compute_limits(k, zero_metric)
    assert c.gamma == pytest.approx(0.0, abs=1e-12)
    assert c.sigma2 == pytest.approx(0.0, abs=1e-12)


def test_limit_constants_rejects_flat_lambda_slope():
    with pytest.raises(DegenerateSystemError):
        limit_constants(Jet2(0.0, 0.0, 1.0))


def test_kms_recurrence_vs_dense_determinant():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(0, 11))
        x = float(rng.uniform(-2, 2))
        z = float(rng.uniform(0.05, 1.5))
        if n == 0:
            assert kms_phi(0, x, z) == 1.0
            continue
        u = z ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        det = np.linalg.det(u - x * np.eye(n))
        assert kms_phi(n, x, z) == pytest.approx(det, rel=1e-10, abs=1e-12)


def test_kms_small_cases():
    assert kms_phi(1, 0.25, 0.7) == pytest.approx(0.75)
    # n=2: det([[1-x, z], [z, 1-x]]) = (1-x)^2 - z^2
    assert kms_phi(2, 0.3, 0.5) == pytest.approx(0.7**2 - 0.25)


def test_kms_refuses_n_above_its_cap(monkeypatch):
    # The tests run n <= 400; the cap sits far above that.
    assert limits.KMS_MAX_N >= 100 * 400
    with pytest.raises(ValueError, match=f"above the cap {limits.KMS_MAX_N}"):
        kms_phi(10**8, 0.1, 0.5)
    monkeypatch.setattr(limits, "KMS_MAX_N", 5)
    assert np.isfinite(kms_phi(5, 0.3, 0.8))
    with pytest.raises(ValueError, match="n=6 is above the cap 5"):
        kms_phi(6, 0.3, 0.8)


@pytest.mark.parametrize("x, z", [(float("nan"), 0.5), (0.3, float("inf")), (-float("inf"), 0.5)])
def test_kms_non_finite_argument_raises(x, z):
    with pytest.raises(ValueError, match="must be finite"):
        kms_phi(0, x, z)


def test_spectral_radius_critical_at_1_1():
    for k in KERNELS:
        for metric in (word_metric(3), fenced_metric(3)):
            rho = spectral_radius_k(k, metric, 1.0, 1.0)
            assert rho == pytest.approx(1.0, abs=1e-8)
            assert spectral_radius_k(k, metric, 0.9, 1.0) < 1.0


@pytest.mark.parametrize("kernel, metric, lam, z", [
    (asymmetric_kernel(), word_metric(3), 0.8, 0.95),
    # A small root with slow power iteration: a stopping rule on the
    # absolute step left 3.5e-10 of relative error here.
    (one_parameter_kernel(0.4), fenced_metric(3), 0.5, 0.3),
], ids=["asymmetric-word", "one_parameter:0.4-fenced"])
def test_spectral_radius_matches_eigenvalues(kernel, metric, lam, z):
    # The 2N x 2N block matrix [[0, B(+1)], [B(-1), 0]], built here from the
    # chamber blocks, is the reference for the radius of their product.
    b_plus, b_minus = b_matrix_values(solve_r(kernel, lam), metric.W, z)
    zero = np.zeros((3, 3))
    mat = np.block([[zero, b_plus], [b_minus, zero]])
    rho = spectral_radius_k(kernel, metric, lam, z)
    assert rho == pytest.approx(np.abs(np.linalg.eigvals(mat)).max(), rel=1e-12, abs=0)


def _leibniz(matrix):
    """Determinant over the jet ring as the signed sum over permutations."""
    n = len(matrix)
    total = Jet2()
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = Jet2(-1.0 if inversions % 2 else 1.0)
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + term
    return total


def _random_jet(rng, constant):
    return Jet2(constant, *rng.normal(size=5))


def test_det_jet_matches_leibniz_in_list_and_array_form():
    rng = np.random.default_rng(11)
    m = [[_random_jet(rng, rng.normal()) for _ in range(5)] for _ in range(5)]
    got, want = det_jet(_jet_array(m)), _leibniz(m)
    for name in FIELDS:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9, abs=1e-12)


def _assert_matches_leibniz(a, tol=1e-12):
    """``det_jet`` of a (6, n, n) array against the Leibniz sum, every
    coefficient to ``tol`` relative to max(1, |want|).  The sum runs in
    ``np.longdouble``: in float64, its own rounding reaches 2e-12 at n = 6."""
    n = a.shape[-1]
    m = [[Jet2(*a[:, i, j].astype(np.longdouble)) for j in range(n)] for i in range(n)]
    got, want = det_jet(a), _leibniz(m)
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert abs(g - w) <= tol * max(1.0, abs(w)), (name, g, w)


def _low_rank(n, rank):
    """(6, n, n) arrays with random coefficients and a constant term of
    ``rank`` in a generic basis, from a seed fixed by (n, rank)."""
    rng = np.random.default_rng(100 * n + rank)
    for _ in range(20):
        a = rng.normal(size=(6, n, n))
        a[0] = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
        yield a


@pytest.mark.parametrize("n, rank", [(5, 4), (6, 5)])
def test_det_jet_low_rank_constant_term_matches_leibniz(n, rank):
    # A constant term of rank n - 1 takes the bordered path with a scalar
    # Schur complement.
    for a in _low_rank(n, rank):
        _assert_matches_leibniz(a)


@pytest.mark.parametrize("n, rank", [(5, 3), (6, 4), (4, 1)])
def test_det_jet_refuses_a_constant_term_of_rank_below_n_minus_1(n, rank):
    # Rank n - 2 or n - 3: the zero is not simple, and the determinant's
    # slopes vanish with its value.
    for a in _low_rank(n, rank):
        with pytest.raises(DegenerateSystemError, match="two or more null directions"):
            det_jet(a)


@pytest.mark.parametrize("zero_columns", [2, 3])
def test_det_jet_refuses_degenerate_columns(zero_columns):
    # With the constant terms of the first two or three columns zero, the
    # constant term has that many null directions: no simple zero.
    rng = np.random.default_rng(7 + zero_columns)
    a = rng.normal(size=(6, 4, 4))
    a[0, :, :zero_columns] = 0.0
    with pytest.raises(DegenerateSystemError, match="two or more null directions"):
        det_jet(a)


BORDERS =[(row, col) for row in range(4) for col in range(4)]


@pytest.mark.parametrize("case", range(len(BORDERS)))
def test_det_jet_borders_every_row_and_column(case):
    # A zero row and column in the constant term fix its null vectors, so
    # exactly this row and column move to the border, with the sign of that
    # move.
    row, col = BORDERS[case]
    a = np.random.default_rng(case).normal(size=(6, 4, 4))
    a[0, row] = 0.0
    a[0, :, col] = 0.0
    _assert_matches_leibniz(a)


BORDER_PAIRS = [(rows, cols) for rows in combinations(range(4), 2)
                for cols in combinations(range(4), 2)]


@pytest.mark.parametrize("case", range(len(BORDER_PAIRS)))
def test_det_jet_refuses_every_pair_of_zero_rows_and_columns(case):
    # Two zero rows and columns leave two null directions wherever they sit:
    # the determinant's value and slopes all vanish, and det_jet refuses.
    rows, cols = BORDER_PAIRS[case]
    a = np.random.default_rng(len(BORDERS) + case).normal(size=(6, 4, 4))
    a[0, list(rows)] = 0.0
    a[0, :, list(cols)] = 0.0
    want = _leibniz([[Jet2(*a[:, i, j]) for j in range(4)] for i in range(4)])
    assert max(abs(want.c00), abs(want.c10), abs(want.c01)) <= 1e-12
    with pytest.raises(DegenerateSystemError, match="two or more null directions"):
        det_jet(a)


@pytest.mark.parametrize("scale", [1e-16, 1e-8, 1e8, 1e16])
def test_det_jet_is_homogeneous(scale):
    # The rank test is relative to the largest singular value, so scaling a
    # 4 x 4 jet matrix by c scales its determinant by c^4 in every coefficient.
    a = np.random.default_rng(5).normal(size=(6, 4, 4))
    got, want = det_jet(scale * a), det_jet(a)
    for name in FIELDS:
        expected = scale**4 * getattr(want, name)
        assert abs(getattr(got, name) - expected) <= 1e-12 * abs(expected), name


@pytest.mark.parametrize("n", [40, 64, 100])
def test_large_symmetric_closed_forms(n):
    cf = closed_form_symmetric(n)
    k = symmetric_kernel(n)
    for metric, gamma, sigma2 in ((word_metric(n), cf.gamma_word, cf.sigma2_word),
                                  (fenced_metric(n), cf.gamma_fenced, cf.sigma2_fenced)):
        constants = compute_limits(k, metric)
        assert constants.gamma == pytest.approx(gamma, rel=1e-10)
        assert constants.sigma2 == pytest.approx(sigma2, rel=1e-10)


def test_symmetric_closed_form_at_300_windows():
    # 2N(N-1) = 179400 unknowns; each factorisation holds O(N^2) floats.
    cf = closed_form_symmetric(300)
    constants = compute_limits(symmetric_kernel(300), word_metric(300))
    assert constants.gamma == pytest.approx(cf.gamma_word, rel=1e-10)
    assert constants.sigma2 == pytest.approx(cf.sigma2_word, rel=1e-10)


def test_build_b_matches_scalar_jets():
    k = asymmetric_kernel()
    metric = fenced_metric(3)
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(r)
    b = build_b(r, d, metric.W)
    # One C-contiguous chamber array: B(+1) in chamber 0, B(-1) in chamber 1.
    assert b.shape == (2, 6, 3, 3) and b.flags.c_contiguous
    for chamber, sign in enumerate((1, -1)):
        for i in range(1, 4):
            for j in range(1, 4):
                want = Jet2() if i == j else power_jet(arc_entry(metric.W, i, j, sign)) * series_jet(
                    *(arc_entry(a, i, j, sign) for a in (r.values, d.d1, d.d2)))
                got = b[chamber, :, i - 1, j - 1]
                for c, name in zip(got, FIELDS):
                    assert c == pytest.approx(getattr(want, name), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("value, raises", [(SIMPLE_ZERO_TOL, False), (-SIMPLE_ZERO_TOL, False),
                                           (2 * SIMPLE_ZERO_TOL, True),
                                           (-2 * SIMPLE_ZERO_TOL, True)])
def test_determinant_off_its_simple_zero_raises(monkeypatch, value, raises):
    # h(1, 1) must vanish; a value beyond SIMPLE_ZERO_TOL means the solve or
    # the kernel is off, and no constants are read from it.
    monkeypatch.setattr("windwalk.limits.perron_jet", lambda *_: Jet2(value, 1.0, 0.5))
    if raises:
        with pytest.raises(DegenerateSystemError, match="expected a simple zero"):
            compute_limits(symmetric_kernel(3), word_metric(3))
    else:
        assert compute_limits(symmetric_kernel(3), word_metric(3)).gamma == 0.5


def test_negative_variance_raises_unless_unchecked(monkeypatch):
    # h_l = 1, h_z = 0.5, d2_z = 2 c02 = -2: sigma2 = -2 + 0.5 + 0.25 = -1.25.
    monkeypatch.setattr("windwalk.limits.perron_jet", lambda *_: Jet2(0.0, 1.0, 0.5, 0.0, 0.0, -1.0))
    with pytest.raises(DegenerateSystemError, match="negative variance -1.25"):
        compute_limits(symmetric_kernel(3), word_metric(3))
    constants = compute_limits(symmetric_kernel(3), word_metric(3), check_sigma=False)
    assert (constants.gamma, constants.sigma2) == (0.5, -1.25)


def _backward_partials(f, h):
    """The five partials at (1, 1) of f(lam, z), both arguments <= 1, by
    second-order backward stencils."""
    d1 = (1.5, -2.0, 0.5)
    d2 = (2.0, -5.0, 4.0, -1.0)
    d_l = sum(c * f(1 - i * h, 1.0) for i, c in enumerate(d1)) / h
    d_z = sum(c * f(1.0, 1 - i * h) for i, c in enumerate(d1)) / h
    d2_l = sum(c * f(1 - i * h, 1.0) for i, c in enumerate(d2)) / h**2
    d2_z = sum(c * f(1.0, 1 - i * h) for i, c in enumerate(d2)) / h**2
    d_lz = sum(a * b * f(1 - i * h, 1 - j * h)
               for i, a in enumerate(d1) for j, b in enumerate(d1)) / h**2
    return d_l, d_z, d2_l, d_lz, d2_z


def test_perron_jet_partials_match_finite_differences():
    # spectral_radius_k is the square root of the Perron root of B(+1) B(-1).
    k, metric = asymmetric_kernel(), fenced_metric(3)
    r = solve_r(k, 1.0, tol=1e-15)
    d = solve_r_derivatives(r)
    rho = perron_jet(build_b(r, d, metric.W))
    fd = _backward_partials(lambda lam, z: spectral_radius_k(k, metric, lam, z, tol=1e-15) ** 2,
                            5e-4)
    jet = (rho.d_lambda, rho.d_z, rho.d2_lambda, rho.d_lambda_z, rho.d2_z)
    for a, b in zip(jet, fd):
        assert a == pytest.approx(b, rel=1e-3)


def _jet_pair(k0_plus, k0_minus):
    """(2, 6, n, n) chamber array of jets with the given constant terms and
    random non-negative higher coefficients."""
    rng = np.random.default_rng(3)
    n = len(k0_plus)
    return np.stack([np.concatenate([np.asarray(a, float)[None], rng.uniform(0, 1, (5, n, n))])
                     for a in (k0_plus, k0_minus)])


_HALVES = np.full((2, 2), 0.5)
_CLASSES = np.kron(np.eye(2), _HALVES)
_SHEAR = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
_SHEAR_V = np.array([[1.0, 0.0, 0.0], [13.0, 1.0, 0.0], [-19.0, 0.0, 1.0]])
_SHEAR_U = np.array([[1.0, 3.0, 1.0], [5.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("b0_plus, b0_minus, reason", [
    # B(+1)B(-1) at (1, 1) with two closed classes: two null directions.
    (_CLASSES, _CLASSES, "singular"),
    # The same two classes leaking into each other by 1e-15: the bordered
    # matrix inverts, with a condition number near 2e15.
    ((1 - 1e-15) * _CLASSES + 1e-15 * np.kron(1 - np.eye(2), _HALVES), np.eye(4),
     "condition number"),
    # A Jordan block: u^T v = 0 with a well-conditioned border.
    ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), "orthogonal"),
    # A Jordan block split by 4e-14, seen through a shear: cos(u, v) reads
    # 1.6e-14, and the border's condition number, 1.5e14, refuses first.
    (_SHEAR @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0 - 4e-14, 0.0], [0.0, 0.0, 0.5]])
     @ np.linalg.inv(_SHEAR), np.eye(3), "condition number"),
    # Jordan blocks split by 8e-15 and 5e-14 under shears that make |v| = 4.6
    # and |u| = 7.1: cos(u, v) reads 2.5e-15 and 2.0e-15 with condition
    # numbers 423 and 1358, so only the u^T v guard refuses, and only when it
    # scales PIVOT_EPS by |u| and |v| both.
    (_SHEAR_V @ np.array([[1.0, 0.01, 0.0], [0.0, 1.0 - 8e-15, 0.0], [0.0, 0.0, 0.5]])
     @ np.linalg.inv(_SHEAR_V), np.eye(3), "orthogonal"),
    (_SHEAR_U @ np.array([[1.0, 10.0, 0.0], [0.0, 1.0 - 5e-14, 0.0], [0.0, 0.0, 0.5]])
     @ np.linalg.inv(_SHEAR_U), np.eye(3), "orthogonal"),
], ids=["two-classes", "leak-1e-15", "jordan", "near-defective-4e-14", "near-defective-long-v",
        "near-defective-long-u"])
def test_perron_jet_rejects_a_root_that_is_not_simple(b0_plus, b0_minus, reason):
    with pytest.raises(DegenerateSystemError, match=f"{reason}.*the root is not simple"):
        perron_jet(_jet_pair(b0_plus, b0_minus))


@pytest.mark.parametrize("b0_plus, b0_minus, det_h_refuses", [
    (_CLASSES, _CLASSES, True),
    ((1 - 1e-15) * _CLASSES + 1e-15 * np.kron(1 - np.eye(2), _HALVES), np.eye(4), True),
    # I - K0 = [[0, -1], [0, 0]] has one null direction, so det_h returns a
    # jet, while perron_jet sees u^T v = 0.  That difference stays.
    ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), False),
], ids=["two-classes", "leak-1e-15", "jordan"])
def test_det_h_refuses_where_perron_jet_does(b0_plus, b0_minus, det_h_refuses):
    b = _jet_pair(b0_plus, b0_minus)
    with pytest.raises(DegenerateSystemError, match="the root is not simple"):
        perron_jet(b)
    if det_h_refuses:
        with pytest.raises(DegenerateSystemError, match="the zero is not simple"):
            det_h(b)
    else:
        assert det_h(b).value == 0.0


def _both_routes(kernel, metric):
    r = solve_r(kernel, 1.0)
    d = solve_r_derivatives(r)
    b = build_b(r, d, metric.W)
    return limit_constants(perron_jet(b)), limit_constants(det_h(b))


SAME_NUMBER_KERNELS = (
    [(f"symmetric:{n}", lambda n=n: symmetric_kernel(n)) for n in range(3, 34)]
    + [("asymmetric", asymmetric_kernel)]
    + [(f"one_parameter:{q}", lambda q=q: one_parameter_kernel(q)) for q in (1e-2, 0.1, 0.25, 0.49)]
    + [(f"dirichlet:{n}/{c}", lambda n=n, c=c: dirichlet_kernel(n, c, seed=n))
       for n in range(4, 11) for c in (1.0, 0.1)]
)


@pytest.mark.parametrize("make", [m for _, m in SAME_NUMBER_KERNELS],
                         ids=[name for name, _ in SAME_NUMBER_KERNELS])
def test_perron_route_gives_the_determinant_route_constants(make):
    # h = (1 - rho) c with c(1, 1) != 0, and c's partials cancel.
    kernel = make()
    for metric in (word_metric(kernel.n_windows), fenced_metric(kernel.n_windows)):
        rho, det = _both_routes(kernel, metric)
        assert rho.gamma == pytest.approx(det.gamma, rel=1e-13, abs=1e-300)
        assert rho.sigma2 == pytest.approx(det.sigma2, rel=1e-13)
        # rho's partials have the sign opposite to h's.
        assert rho.rho_partials["d_lambda"] > 0 > det.rho_partials["d_lambda"]


@pytest.mark.parametrize("q", [1e-4, 1.2e-5, 1e-6, 1e-8])
def test_perron_route_is_no_less_accurate_at_small_q(q):
    kernel, cf = one_parameter_kernel(q), closed_form("one_parameter", q=q)
    for metric in (word_metric(3), fenced_metric(3)):
        gamma, sigma2 = cf.constants(metric.name)
        rho, det = _both_routes(kernel, metric)
        assert abs(rho.gamma - gamma) <= abs(det.gamma - gamma)
        assert abs(rho.sigma2 - sigma2) <= abs(det.sigma2 - sigma2)


def test_compute_limits_returns_python_floats():
    # A numpy scalar here would reach the JSON writers of callers that do
    # not pass it through the CLI.
    c = compute_limits(asymmetric_kernel(), fenced_metric(3))
    values = [c.gamma, c.sigma2, c.rho_minus_one, *c.rho_partials.values()]
    assert len(values) == 8
    assert all(type(v) is float for v in values)
    json.dumps(c.to_json(), allow_nan=False)


def test_compute_limits_peaks_under_ten_chamber_arrays():
    # Measured in (2, N, N) float arrays.  Each Newton-step array is filled in
    # place, the block solve writes into its copy of B, and R and its
    # derivatives are freed before the Perron step: the peak fell from 12.0
    # to 9.5 arrays at N = 200 and 300, and to 9.1 once ``build_b`` filled
    # both chambers' jets with no temporary.
    n = 200
    kernel, metric = symmetric_kernel(n), word_metric(n)
    compute_limits(kernel, metric)
    tracemalloc.start()
    try:
        compute_limits(kernel, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10.0 * 2 * n * n * 8


@pytest.mark.parametrize("n, concentration, seed", [
    (n, concentration, seed) for n in range(3, 11) for concentration in (1.0, 0.3)
    for seed in range(3)])
def test_gamma_is_linear_and_sigma2_a_quadratic_form_in_the_weights(n, concentration, seed):
    # R and its derivatives do not read the metric, so one root serves every
    # weighting.  rho_z = u^T K_z v is linear in W and rho_lambda does not
    # read W, so gamma is linear; in sigma^2 the -W part of the W(W - 1)
    # terms cancels rho_z, so sigma^2 is a quadratic form with no linear term,
    # and sigma^2(W1 + W2) gives its cross term.
    kernel = dirichlet_kernel(n, concentration, seed)
    r = solve_r(kernel, 1.0)
    d = solve_r_derivatives(r)
    w1, w2 = np.random.default_rng([n, seed]).uniform(0.1, 2.0, size=(2, 2, n, n))
    a, b = 0.7, 1.9

    def limits(w):
        return limits_from_jets(build_b(r, d, w), "custom")

    one, two, both, mixed = limits(w1), limits(w2), limits(w1 + w2), limits(a * w1 + b * w2)
    assert mixed.gamma == pytest.approx(a * one.gamma + b * two.gamma, rel=1e-14, abs=0)
    cross = both.sigma2 - one.sigma2 - two.sigma2
    assert mixed.sigma2 == pytest.approx(a * a * one.sigma2 + b * b * two.sigma2 + a * b * cross,
                                         rel=1e-14, abs=0)
