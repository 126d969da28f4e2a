"""Newton solver, structured linear solves and implicit derivatives."""

import inspect
import itertools
import re
import sys

import numpy as np
import pytest

from windwalk import solver
from windwalk.cli import build_parser
from windwalk.chain import TransitionKernel, asymmetric_kernel, one_parameter_kernel, symmetric_kernel
from windwalk.groupoid import Arc, arc_entry, fenced_metric, word_metric
from windwalk.limits import compute_limits
from windwalk.oracle import closed_form_one_parameter, dp_hitting_series, dp_return_series
from windwalk.solver import (
    SolverError,
    apply_m,
    solution_to_json,
    solve_r,
    solve_r_derivatives,
    system_matrices,
)

import reference
from helpers import dirichlet_kernel
from reference import (IndexMap, build_m_matrix, direct_h, flat_system_by_arc,
                       primitivity_pattern_ok, spectral_radius_k, to_flat, transience_root)


def _linearised(p, r):
    """``LinearisedSystem`` at R and lambda = 1, with ``u = diag(P R)``."""
    return solver.LinearisedSystem(p, 1.0, r, solver._diag_of_product(p, r))


def _apply_m(p, r, d):
    """M D at R and lambda = 1, with ``u = diag(P R)`` and ``t = diag(P D)``."""
    return apply_m(p, 1.0, r, d, solver._diag_of_product(p, r), solver._diag_of_product(p, d))


def test_index_map_order():
    idx = IndexMap(3)
    assert idx.tuples[:4] == [(1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 3, 1)]
    assert len(idx) == 12
    assert idx.tuples[6] == (1, 2, -1)
    for n, t in enumerate(idx.tuples):
        assert idx.flat(*t) == n


def test_lambda_zero_gives_zero():
    r = solve_r(symmetric_kernel(4), 0.0)
    assert np.all(r.values == 0.0)


def test_lambda_bounds():
    with pytest.raises(ValueError):
        solve_r(symmetric_kernel(3), 1.2)
    with pytest.raises(ValueError):
        solve_r(symmetric_kernel(3), -0.1)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-13])
def test_tol_must_be_finite_and_positive(tol):
    # An infinite tol would end the iteration after one step, and a NaN tol
    # would run on to the stall rule.
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_r(asymmetric_kernel(), 1.0, tol=tol)


def test_symmetric_closed_form_all_n():
    for n in range(3, 8):
        r = solve_r(symmetric_kernel(n), 1.0)
        assert np.allclose(to_flat(r.values), 1 / (n - 1), atol=1e-11)
        d = solve_r_derivatives(r)
        assert np.allclose(to_flat(d.d1), 2 / (n - 2), rtol=1e-10)
        assert np.allclose(to_flat(d.d2), 4 * (n**2 - 2) / (n - 2) ** 3, rtol=1e-9)


def test_one_parameter_closed_forms():
    for q in (0.1, 0.3, 0.45):
        k = one_parameter_kernel(q)
        r = solve_r(k, 1.0)
        d = solve_r_derivatives(r)
        cf = closed_form_one_parameter(q).r_values
        assert arc_entry(r.values, 2, 1, 1) == pytest.approx(cf["R1"], abs=1e-11)
        assert arc_entry(r.values, 1, 2, 1) == pytest.approx(cf["R2"], abs=1e-11)
        assert arc_entry(r.values, 1, 3, 1) == pytest.approx(cf["R3"], abs=1e-11)
        assert arc_entry(d.d1, 2, 1, 1) == pytest.approx(cf["R1p"], rel=1e-9)
        assert arc_entry(d.d1, 1, 2, 1) == pytest.approx(cf["R2p"], rel=1e-9)
        assert arc_entry(d.d1, 1, 3, 1) == pytest.approx(cf["R3p"], rel=1e-9)
        # mirror symmetry of the kernel: both chambers solve identically
        assert arc_entry(r.values, 1, 2, 1) == pytest.approx(arc_entry(r.values, 1, 2, -1),
                                                             abs=1e-12)


def test_monotone_in_lambda_and_below_one():
    k = asymmetric_kernel()
    prev = np.zeros(12)
    for lam in (0.25, 0.5, 0.75, 1.0):
        r = solve_r(k, lam)
        assert np.all(to_flat(r.values) > prev)
        prev = to_flat(r.values)
    assert np.all(prev < 1.0)  # transience: R(1) < 1 strictly


def test_residual_small():
    r = solve_r(asymmetric_kernel(), 0.9, tol=1e-14)
    assert r.residual < 1e-13
    assert r.iterations > 1


def test_derivatives_match_finite_differences():
    k = asymmetric_kernel()
    r1 = solve_r(k, 1.0, tol=1e-15)
    d = solve_r_derivatives(r1)
    h = 1e-3
    # backward stencils: the solver domain ends at lambda = 1
    vals = [solve_r(k, 1.0 - i * h, tol=1e-15).values for i in range(6)]
    fd1 = (137 / 60 * vals[0] - 5 * vals[1] + 5 * vals[2]
           - 10 / 3 * vals[3] + 5 / 4 * vals[4] - 1 / 5 * vals[5]) / h
    fd2 = (45 * vals[0] - 154 * vals[1] + 214 * vals[2]
           - 156 * vals[3] + 61 * vals[4] - 10 * vals[5]) / (12 * h**2)
    assert np.allclose(d.d1, fd1, rtol=1e-6)
    assert np.allclose(d.d2, fd2, rtol=1e-4)


def test_m_matrix_structure():
    k = symmetric_kernel(3)
    r = solve_r(k, 1.0)
    m = build_m_matrix(k, 1.0, to_flat(r.values))
    # row sums: (N-2)p + (N-1)pR + (N-1)pR = 1/4 + 1/4 + 1/4 for N=3
    assert np.allclose(m.sum(axis=1), 0.75, atol=1e-11)
    # diagonal: sum over opposite-chamber returns, (N-1) * (1/4) * (1/2)
    assert np.allclose(np.diag(m), 0.25, atol=1e-11)
    assert np.all(m >= 0.0)
    assert not build_m_matrix(k, 0.0, np.zeros(12)).any()
    _, _, a1, c = flat_system_by_arc(k)
    q = to_flat(r.values)
    assert np.allclose(m, a1 / 1 + np.diag(c @ q) + np.diag(q) @ c)


def test_transience_root_above_one():
    assert transience_root(symmetric_kernel(3)) == pytest.approx(1.25, abs=1e-9)
    for k in (one_parameter_kernel(0.2), asymmetric_kernel()):
        assert transience_root(k) > 1.0


def test_primitivity_of_linearised_matrix():
    for k in (symmetric_kernel(3), one_parameter_kernel(0.05), asymmetric_kernel()):
        r = solve_r(k, 1.0)
        assert primitivity_pattern_ok(build_m_matrix(k, 1.0, to_flat(r.values)))


def test_derivatives_require_positive_lambda():
    k = symmetric_kernel(3)
    r = solve_r(k, 0.0)
    with pytest.raises(ValueError):
        solve_r_derivatives(r)


@pytest.mark.parametrize("lam", [5e-324, 1e-315, 1e-308])
def test_derivatives_refuse_a_subnormal_lambda(lam):
    # R ~ lam P underflows there, and R / lam keeps no digits: at 5e-324 the
    # first derivative of arc (1, 2, +) read 1.0 against its limit P = 43/70.
    r = solve_r(asymmetric_kernel(), lam)
    with pytest.raises(ValueError, match=f"got {lam!r}$"):
        solve_r_derivatives(r)


def test_derivatives_take_the_smallest_normal_lambda():
    k = asymmetric_kernel()
    d = solve_r_derivatives(solve_r(k, sys.float_info.min))
    assert np.max(np.abs(d.d1 - k.P)) <= 1e-12


DIRICHLET_KERNELS = [
    dirichlet_kernel(n, concentration, seed=100 * n + idx)
    for n in range(3, 9)
    for idx, concentration in enumerate((1.0, 0.05))
]


@pytest.mark.parametrize("lam", [1.0, 0.6])
@pytest.mark.parametrize("kernel", DIRICHLET_KERNELS, ids=repr)
def test_structured_solve_matches_flat_system(kernel, lam):
    # N = 3..8 takes the dense path up to DENSE_MAX_N and the structured one
    # above it; below lam = 1 the derivatives must use the system's own lam.
    _, p, a1, c = flat_system_by_arc(kernel)
    r = solve_r(kernel, lam)
    q = to_flat(r.values)
    assert np.max(np.abs(q - lam * (p + a1 @ q + (c @ q) * q))) <= 1e-13
    assert r.residual <= 1e-13
    d = solve_r_derivatives(r)
    m = build_m_matrix(kernel, lam, q)
    d1 = np.linalg.solve(np.eye(len(q)) - m, q / lam)
    d2 = np.linalg.solve(np.eye(len(q)) - m,
                         2.0 * (m / lam) @ d1 + 2.0 * lam * (c @ d1) * d1)
    assert np.max(np.abs(to_flat(d.d1) - d1)) <= 1e-10 * np.max(np.abs(d1))
    assert np.max(np.abs(to_flat(d.d2) - d2)) <= 1e-10 * np.max(np.abs(d2))


PRIMITIVE_KERNELS = [asymmetric_kernel()] + [dirichlet_kernel(n, 1.0, seed=n) for n in (4, 6, 7, 9)]


@pytest.mark.parametrize("lam", [1.0, 0.6])
@pytest.mark.parametrize("kernel", PRIMITIVE_KERNELS, ids=repr)
def test_newton_system_primitives_match_the_arc_by_arc_system(kernel, lam):
    # N <= DENSE_MAX_N takes the flat layout, N = 7 and 9 the (2, N, N) one.
    # Every kernel here is asymmetric, so a return term read off the wrong
    # chamber shows.
    n = kernel.n_windows
    _, _, _, c = flat_system_by_arc(kernel)
    r = solve_r(kernel, lam)
    system = r.system
    layout = to_flat if n <= solver.DENSE_MAX_N else (lambda a: a)
    d = np.random.default_rng(n).normal(size=(2, n, n))
    d[:, np.arange(n), np.arange(n)] = 0.0
    m = build_m_matrix(kernel, lam, to_flat(r.values))
    md, ret = system.m_times(layout(d))
    want = m @ to_flat(d)
    assert np.max(np.abs(to_flat(system.values(md)) - want)) <= 1e-13 * np.max(np.abs(want))
    want = lam * (c @ to_flat(d))
    got = to_flat(np.broadcast_to(system.values(ret), d.shape))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    x = to_flat(system.values(system.linearised()(layout(d))))
    residual = np.max(np.abs(x - m @ x - to_flat(d)))
    assert residual <= 1e-12 * (np.max(np.abs(d)) + np.max(np.abs(x)))


SYSTEM_KERNELS = (
    [symmetric_kernel(n) for n in range(3, 7)]
    + [asymmetric_kernel(), one_parameter_kernel(1e-5), one_parameter_kernel(0.25)]
    + [dirichlet_kernel(n, 1.0, seed=n) for n in range(3, 7)]
)


@pytest.mark.parametrize("kernel", SYSTEM_KERNELS, ids=repr)
def test_system_matrices_match_the_arc_by_arc_build(kernel):
    # The library's one assembly of the flat system, placed from P by index
    # arithmetic, equals the loop over the arcs entry for entry.
    arcs, p, a1, c = system_matrices(kernel.P)
    index, want_p, want_a1, want_c = flat_system_by_arc(kernel)
    n = kernel.n_windows
    assert np.array_equal(arcs, [np.ravel_multi_index(((1 - k) // 2, i - 1, j - 1), (2, n, n))
                                 for i, j, k in index.tuples])
    assert np.array_equal(p, want_p)
    assert np.array_equal(a1, want_a1)
    assert np.array_equal(c, want_c)


def test_matrix_form_follows_index_map_order():
    n = 4
    matrix = np.arange(2 * n * n, dtype=float).reshape(2, n, n)
    values = to_flat(matrix)
    assert len(values) == len(IndexMap(n))
    for flat, (i, j, k) in enumerate(IndexMap(n).tuples):
        assert matrix[(1 - k) // 2, i - 1, j - 1] == values[flat]
    k = asymmetric_kernel()
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(r)
    for array in (r.values, d.d1, d.d2):
        assert array.shape == (2, 3, 3)
        assert np.all(np.diagonal(array, axis1=1, axis2=2) == 0.0)
    for flat, (i, j, sign) in enumerate(IndexMap(3).tuples):
        assert arc_entry(r.values, i, j, sign) == to_flat(r.values)[flat]
        assert arc_entry(d.d1, i, j, sign) == to_flat(d.d1)[flat]
        assert arc_entry(d.d2, i, j, sign) == to_flat(d.d2)[flat]


@pytest.mark.parametrize("arc", [(1, 1, 1), (0, 1, 1), (4, 1, 1), (1, 2, 0)])
def test_accessors_raise_for_a_triple_that_names_no_arc(arc):
    # The zero diagonal and a wrapped index (window 0 reads window N) must not
    # pass for a value.
    k = symmetric_kernel(3)
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(r)
    for array in (r.values, d.d1, d.d2):
        with pytest.raises(KeyError):
            arc_entry(array, *arc)


@pytest.mark.parametrize("n", [3, 8, 40, 100])
def test_transience_root_symmetric_closed_form(n):
    # At R = 1 every row of M sums to (N-2)p + 2(N-1)p with p = 1/(2N-2).
    assert transience_root(symmetric_kernel(n)) == pytest.approx((3 * n - 4) / (2 * n - 2),
                                                                 rel=0, abs=1e-12)


@pytest.mark.parametrize("kernel", DIRICHLET_KERNELS, ids=repr)
def test_transience_root_matches_dense_reference(kernel):
    ones = np.ones(len(IndexMap(kernel.n_windows)))
    # M is non-negative, so its Perron root is its largest eigenvalue in modulus.
    dense = np.abs(np.linalg.eigvals(build_m_matrix(kernel, 1.0, ones))).max()
    assert transience_root(kernel) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", [6, 10])
def test_transience_root_error_is_bounded_on_sparse_kernels(n):
    # Concentration 0.01 leaves a few large arcs per window, and the bracket
    # closes slowly: the stop must still bound the error, not the step.
    kernel = dirichlet_kernel(n, 0.01, seed=1)
    ones = np.ones(len(IndexMap(n)))
    dense = np.abs(np.linalg.eigvals(build_m_matrix(kernel, 1.0, ones))).max()
    assert transience_root(kernel) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("kernel", DIRICHLET_KERNELS[:4] + [asymmetric_kernel()], ids=repr)
def test_transience_root_returns_inside_its_last_bracket(monkeypatch, kernel):
    arcs = ~np.eye(kernel.n_windows, dtype=bool)
    brackets = []

    def recorded(p, lam, r, d, u, t):
        md = apply_m(p, lam, r, d, u, t)
        ratios = md[:, arcs] / d[:, arcs]
        brackets.append((ratios.min(), ratios.max()))
        return md

    monkeypatch.setattr(solver, "apply_m", recorded)
    root = transience_root(kernel)
    lo, hi = brackets[-1]
    assert lo <= root <= hi
    assert hi - lo <= reference.POWER_TOL * lo
    # One product per step, and no earlier bracket was narrow enough to stop.
    assert all(h - l > reference.POWER_TOL * l for l, h in brackets[:-1])


def test_transience_root_refuses_with_its_bracket(monkeypatch):
    # Here the bracket narrows too slowly for the cap.  Its lower end still
    # certifies transience.  (Dense eigvals reads 2e-9 below the bracket on
    # this kernel, so it is no reference here.)
    monkeypatch.setattr(reference, "POWER_MAX_ITER", 2000)
    with pytest.raises(SolverError, match="did not converge in 2000 iterations") as info:
        transience_root(dirichlet_kernel(4, 0.01, seed=0))
    lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(info.value)).groups())
    assert 1.0 < lo < hi


def test_newton_tolerance_has_one_default():
    defaults = [inspect.signature(f).parameters["tol"].default
                for f in (solve_r, compute_limits, spectral_radius_k, direct_h)]
    defaults += [build_parser().parse_args([command]).tol for command in ("solve-r", "limits")]
    assert all(default is solver.DEFAULT_TOL for default in defaults)


def test_dense_reference_is_off_the_library_path(monkeypatch):
    # The arc-by-arc flat system and its flat order live in the tests alone.
    assert not hasattr(solver, "IndexMap")
    assert not hasattr(TransitionKernel, "prob")

    def refuse(*args, **kwargs):
        raise AssertionError("the dense reference was called")

    for name in ("flat_system_by_arc", "IndexMap"):
        monkeypatch.setattr(reference, name, refuse)
    k = asymmetric_kernel()
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(r)
    assert len(solution_to_json(r, d)["d2"]) == 12
    assert compute_limits(k, word_metric(3)).gamma > 0
    assert spectral_radius_k(k, word_metric(3), 0.9, 1.0) < 1
    assert abs(direct_h(k, word_metric(3), 1.0, 1.0)) < 1e-10
    assert transience_root(k) > 1
    assert dp_hitting_series(k, Arc(1, 2, 1), 10).sum() > 0
    assert dp_return_series(k, 1, 10).sum() > 1


def test_library_holds_no_test_only_route():
    # The cross-checks that only tests call live in tests/reference.py, and
    # the oracles share no code with the solve pipeline they check.
    import windwalk
    from windwalk import limits, oracle

    moved = ("build_m_matrix", "to_flat", "primitivity_pattern_ok", "b_matrix_values",
             "spectral_radius_k", "direct_h", "transience_root", "POWER_TOL", "POWER_MAX_ITER")
    for module in (windwalk, solver, limits, oracle):
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name, value in vars(oracle).items():
        assert getattr(value, "__module__", None) not in ("windwalk.solver", "windwalk.limits"), name


def test_library_holds_no_test_only_sampler():
    # The hitting-time sampler, the batch's top-letter read it alone used
    # and a truncated series' partial sum live in tests/reference.py too;
    # the series are plain coefficient arrays.
    from windwalk import _stepper, chain, oracle

    assert not hasattr(chain, "sample_hitting_times")
    assert not hasattr(_stepper._BatchState, "top")
    assert not hasattr(oracle, "TruncatedSeries")


@pytest.mark.parametrize("q, rel", [(1e-3, 1e-12), (1e-5, 1e-10)])
def test_newton_small_q_closed_forms(q, rel):
    k = one_parameter_kernel(q)
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(r)
    cf = closed_form_one_parameter(q)
    for array, suffix in ((r.values, ""), (d.d1, "p")):
        for arc, key in (((2, 1, 1), "R1"), ((1, 2, 1), "R2"), ((1, 3, 1), "R3")):
            got = arc_entry(array, *arc)
            assert got == pytest.approx(cf.r_values[key + suffix], rel=rel), key + suffix
    for metric, gamma, sigma2 in ((word_metric(3), cf.gamma_word, cf.sigma2_word),
                                  (fenced_metric(3), cf.gamma_fenced, cf.sigma2_fenced)):
        constants = compute_limits(k, metric)
        assert constants.gamma == pytest.approx(gamma, rel=rel)
        assert constants.sigma2 == pytest.approx(sigma2, rel=rel)


def test_newton_step_count_and_rounding_floor_at_small_q():
    k = one_parameter_kernel(1e-5)
    assert solve_r(k, 1.0).iterations < 30
    r = solve_r(k, 1.0, tol=1e-15)
    assert r.residual <= 1e-15
    assert r.iterations < 30
    # The step levels off near 2e-16, so no step reaches this tol; the stall
    # rule ends the iteration at the rounding floor instead of the step cap.
    r = solve_r(k, 1.0, tol=1e-18)
    assert r.residual <= 1e-15
    assert r.iterations < 30


def test_newton_step_cap_raises(monkeypatch):
    monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 2)
    with pytest.raises(SolverError, match="did not converge in 2 steps"):
        solve_r(asymmetric_kernel(), 1.0)


@pytest.mark.parametrize("ratio", [0.0, np.inf], ids=["inverse", "fallback"])
@pytest.mark.parametrize("concentration", [1.0, 0.01])
@pytest.mark.parametrize("n", [3, 10, 20])
def test_both_block_solve_paths_match_dense_reference(monkeypatch, n, concentration, ratio):
    # Ratio 0 reads every column block off G_k^{-1}; ratio inf inverts each
    # deleted block on its own.
    monkeypatch.setattr(solver, "FALLBACK_RATIO", ratio)
    k = dirichlet_kernel(n, concentration, seed=n)
    r = solve_r(k, 1.0)
    b = np.random.default_rng(n).normal(size=(2, n, n))
    b[:, np.arange(n), np.arange(n)] = 0.0
    system = _linearised(k.P, r.values)
    assert system.fallback_columns == (0 if ratio == 0.0 else 2 * n)
    got = to_flat(system.solve(b))
    dense = np.eye(len(got)) - build_m_matrix(k, 1.0, to_flat(r.values))
    want = np.linalg.solve(dense, to_flat(b))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_near_singular_chamber_falls_back_to_its_blocks():
    # This kernel has arcs of probability 1 - O(1e-12), so its G_k^{-1} has
    # entries near 1e11 and the deleted-index update would lose 11 digits.
    k = dirichlet_kernel(4, 0.001, seed=4)
    r = solve_r(k, 1.0)
    system = _linearised(k.P, r.values)
    assert system.fallback_columns > 0
    b = np.random.default_rng(4).normal(size=(2, 4, 4))
    b[:, np.arange(4), np.arange(4)] = 0.0
    got = to_flat(system.solve(b))
    want = np.linalg.solve(np.eye(24) - build_m_matrix(k, 1.0, to_flat(r.values)), to_flat(b))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_every_structured_factorisation_has_h_at_least_i(monkeypatch):
    # G_k = I - lam (diag(u_{-k}) + P_k) is a nonsingular M-matrix, so
    # H_k = G_k^{-1} >= I entrywise and every H_jj >= 1: the fallback is a
    # per-chamber rule, 0, N or 2N columns.  Factorisations built before a
    # refused solve count too.
    built = []

    class Recording(solver.LinearisedSystem):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(solver, "LinearisedSystem", Recording)
    for n, concentration, seed, lam in itertools.product((7, 9, 12), (1.0, 0.01, 0.001),
                                                         range(3), (1.0, 0.6)):
        try:
            solve_r_derivatives(solve_r(dirichlet_kernel(n, concentration, seed), lam))
        except SolverError:
            pass
    for system in built:
        n = system.h.shape[-1]
        assert np.all(system.h >= np.eye(n))
        assert system.fallback_columns in (0, n, 2 * n)
    assert {system.fallback_columns for system in built} >= {0, 18}


def test_a_root_that_falls_back_in_both_chambers_matches_the_dense_solve():
    # At this kernel's root both chambers fall back, and I - M has condition
    # number 1e10.  The fallback agrees with the dense solve to 5e-16 and
    # 1e-15 relative; the deleted-index update alone (FALLBACK_RATIO = 0)
    # is off by 5e-10 in d1 and 1e-7 in d2.
    k = dirichlet_kernel(9, 0.001, seed=0)
    r = solve_r(k, 1.0)
    derivs = solve_r_derivatives(r)
    assert solver.LinearisedSystem(k.P, 1.0, r.system.r, r.system.u).fallback_columns == 18
    values = to_flat(r.values)
    m = build_m_matrix(k, 1.0, values)
    _, _, _, c = flat_system_by_arc(k)
    d1 = np.linalg.solve(np.eye(len(values)) - m, values)
    d2 = np.linalg.solve(np.eye(len(values)) - m, 2.0 * (m @ d1) + 2.0 * (c @ d1) * d1)
    for got, want in ((derivs.d1, d1), (derivs.d2, d2)):
        assert np.max(np.abs(to_flat(got) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kernel, failing_call, block", [
    (symmetric_kernel(7), 1, "a chamber block"),
    (dirichlet_kernel(4, 0.001, seed=4), 2, "a column block"),
], ids=["chamber", "column"])
def test_singular_factorisation_is_a_solver_error(monkeypatch, kernel, failing_call, block):
    # The first inverse is of the chambers' G_k, the second of the gathered
    # column blocks, which only a chamber that falls back forms.
    r = solve_r(kernel, 1.0)
    inv, calls = np.linalg.inv, []

    def failing_inv(a):
        calls.append(a)
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing_inv)
    with pytest.raises(SolverError, match=f"{block} of I - M is singular: Singular matrix"):
        _linearised(kernel.P, r.values)


def test_bit_dump_prints_the_same_text_twice(capsys):
    import bit_dump

    texts = []
    for _ in range(2):
        assert bit_dump.main(["asymmetric", "symmetric:8"]) == 0
        texts.append(capsys.readouterr().out)
    lines = texts[0].splitlines()
    assert texts[0] == texts[1]
    assert [line.split(" | ")[0] for line in lines] == [
        "asymmetric lam=1.0", "asymmetric lam=0.6",
        "symmetric(N=8) lam=1.0", "symmetric(N=8) lam=0.6"]
    assert "fallback=-" in lines[0] and "fallback=0" in lines[2]
    assert all(line.count(" | ") == 8 for line in lines[::2])


@pytest.mark.parametrize("kernel", [
    symmetric_kernel(3), symmetric_kernel(20), symmetric_kernel(33), symmetric_kernel(64),
    asymmetric_kernel(), one_parameter_kernel(1e-5), dirichlet_kernel(4, 0.001, seed=4),
    dirichlet_kernel(10, 0.01, seed=3),
], ids=repr)
def test_one_block_solve_satisfies_the_system(kernel):
    # Checks (I - M) D = B through apply_m alone, so it runs at N = 64 with
    # no dense dim x dim matrix; dirichlet(4, 0.001) takes the fallback blocks.
    n = kernel.n_windows
    r = solve_r(kernel, 1.0)
    b = np.random.default_rng(n).normal(size=(2, n, n))
    b[:, np.arange(n), np.arange(n)] = 0.0
    system = _linearised(kernel.P, r.values)
    d = system.solve(b)
    defect = np.max(np.abs(d - _apply_m(kernel.P, r.values, d) - b))
    assert defect <= 1e-13 * (np.max(np.abs(b)) + np.max(np.abs(d)))


def test_singular_coupling_is_a_solver_error(monkeypatch):
    # The coupling is LU-solved inside each solve, so its failure is raised
    # there, named as the coupling.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    k = asymmetric_kernel()
    system = _linearised(k.P, solve_r(k, 1.0).values)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError, match="the 2N x 2N coupling of I - M is singular"):
        system.solve(np.ones((2, 3, 3)))


def test_solve_leaves_b_unwritten_and_returns_a_zero_diagonal():
    # The solve zeroes the diagonal of its own copy of B, and the block solve
    # spends that copy as scratch space; the caller's B must survive both.
    k = asymmetric_kernel()
    system = _linearised(k.P, solve_r(k, 1.0).values)
    b = np.random.default_rng(3).normal(size=(2, 3, 3))
    kept = b.copy()
    d = system.solve(b)
    assert np.array_equal(b, kept)
    assert np.all(np.diagonal(d, axis1=1, axis2=2) == 0.0)
    b[:, np.arange(3), np.arange(3)] = 0.0
    assert np.array_equal(d, system.solve(b))


@pytest.mark.parametrize("path", ["structured", "dense"])
def test_non_finite_newton_step_is_a_solver_error(monkeypatch, path):
    if path == "structured":
        monkeypatch.setattr(solver.LinearisedSystem, "solve",
                            lambda self, b: np.full_like(b, np.nan))
        kernel = symmetric_kernel(solver.DENSE_MAX_N + 1)
    else:
        monkeypatch.setattr(solver.np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        kernel = asymmetric_kernel()
    with pytest.raises(SolverError, match="not finite"):
        solve_r(kernel, 1.0)


def test_array_layout_does_not_change_the_solve():
    # The diagonals are written through strided views of C-ordered buffers;
    # a Fortran-ordered P or a transposed B must give the same bits.
    k = asymmetric_kernel()
    k_fortran = TransitionKernel(np.asfortranarray(k.P))
    r, r_fortran = solve_r(k, 1.0), solve_r(k_fortran, 1.0)
    assert np.array_equal(r.values, r_fortran.values)
    d2, d2_fortran = solve_r_derivatives(r).d2, solve_r_derivatives(r_fortran).d2
    assert np.array_equal(d2, d2_fortran)
    system = _linearised(k.P, r.values)
    b = np.random.default_rng(5).normal(size=(2, 3, 3)).transpose(0, 2, 1)
    assert np.array_equal(system.solve(b), system.solve(np.ascontiguousarray(b)))


# Kernels for the parity of the two Newton paths, with the relative bound on
# gamma and sigma^2 for each: the one-parameter family loses about eps/q.
PATH_PARITY_CASES = (
    [(asymmetric_kernel(), 1e-14)]
    + [(one_parameter_kernel(q), 1e-11) for q in (1e-5, 1e-3, 0.3)]
    + [(symmetric_kernel(n), 1e-14) for n in range(3, 7)]
    + [(dirichlet_kernel(n, concentration, seed=n), 1e-12)
       for n in range(3, 6) for concentration in (1.0, 0.1)]
)


def _both_paths(monkeypatch, run):
    """``run()`` on the structured path, then on the dense flat one."""
    out = []
    for dense_max_n in (0, 100):
        monkeypatch.setattr(solver, "DENSE_MAX_N", dense_max_n)
        out.append(run())
    return out


@pytest.mark.parametrize("kernel, rel", PATH_PARITY_CASES, ids=[repr(k) for k, _ in PATH_PARITY_CASES])
def test_dense_and_structured_newton_paths_agree(monkeypatch, kernel, rel):
    def solve():
        r = solve_r(kernel, 1.0)
        d = solve_r_derivatives(r)
        return r, d, [compute_limits(kernel, metric(kernel.n_windows))
                      for metric in (word_metric, fenced_metric)]

    (r_s, d_s, limits_s), (r_d, d_d, limits_d) = _both_paths(monkeypatch, solve)
    # d1 and d2 solve with I - M at R, so a rounding-level change of R reaches
    # them times beta = ||(I - M)^{-1}||_inf, about 2.1/sqrt(q) at small q: the
    # largest entry of the solve on the all-ones array, as (I - M)^{-1} >= 0.
    ones = np.ones_like(r_s.values)
    beta = _linearised(kernel.P, r_s.values).solve(ones).max()
    for structured, dense, scale in ((r_s.values, r_d.values, 1.0), (d_s.d1, d_d.d1, beta),
                                     (d_s.d2, d_d.d2, beta)):
        assert dense.shape == structured.shape
        assert np.all(np.diagonal(dense, axis1=1, axis2=2) == 0.0)
        assert np.max(np.abs(dense - structured)) <= 1e-13 * scale * np.max(np.abs(structured))
    assert r_d.residual <= 1e-13
    for structured, dense in zip(limits_s, limits_d):
        assert dense.gamma == pytest.approx(structured.gamma, rel=rel, abs=0)
        assert dense.sigma2 == pytest.approx(structured.sigma2, rel=rel, abs=0)


def test_dense_path_runs_up_to_dense_max_n(monkeypatch):
    # The crossover table in README puts the switch between N = 6 and N = 7.
    assert solver.DENSE_MAX_N == 6
    built = []

    class Counted(solver.LinearisedSystem):
        def __init__(self, *args, **kwargs):
            built.append(args[0].shape[-1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver, "LinearisedSystem", Counted)
    for n in (5, 6, 7):
        k = symmetric_kernel(n)
        solve_r_derivatives(solve_r(k, 1.0))
    assert set(built) == {7}


@pytest.mark.parametrize("dense_max_n", [0, 100], ids=["structured", "dense"])
def test_step_cap_and_rounding_floor_on_both_paths(monkeypatch, dense_max_n):
    monkeypatch.setattr(solver, "DENSE_MAX_N", dense_max_n)
    with monkeypatch.context() as capped:
        capped.setattr(solver, "DEFAULT_MAX_ITER", 2)
        with pytest.raises(SolverError, match="did not converge in 2 steps"):
            solve_r(asymmetric_kernel(), 1.0)
    k = one_parameter_kernel(1e-5)
    for tol in (1e-13, 1e-15, 1e-18):
        r = solve_r(k, 1.0, tol=tol)
        assert r.iterations < 30
        if tol < 1e-13:
            assert r.residual <= 1e-15


def test_singular_dense_system_is_a_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    k = asymmetric_kernel()
    r = solve_r(k, 1.0)
    monkeypatch.setattr(np.linalg, "solve", singular)
    for call in (lambda: solve_r(k, 1.0), lambda: solve_r_derivatives(r)):
        with pytest.raises(SolverError, match="I - M is singular"):
            call()


def test_structured_newton_step_forms_u_once(monkeypatch):
    # Each step's defect forms u = diag(P R), and the step's factorisation
    # reuses it: one product for the defect and one for the solve's a_k.
    # The derivatives' factorisation and their second right-hand side reuse
    # the u of the last defect, at the root: their three products are the two
    # solves' a_k and t1 = diag(P d1), which apply_m takes as it is.
    calls = []
    product = solver._diag_of_product

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(solver, "_diag_of_product", counted)
    r = solve_r(symmetric_kernel(solver.DENSE_MAX_N + 2), 1.0)
    assert len(calls) == 1 + 2 * r.iterations
    solve_r_derivatives(r)
    assert len(calls) == 1 + 2 * r.iterations + 3


def test_transience_root_forms_u_once(monkeypatch):
    # u = diag(P 1) is formed once per call; each power step forms only its
    # t = diag(P D).
    calls, steps = [], []
    product, apply = solver._diag_of_product, solver.apply_m

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    def stepped(*args):
        steps.append(1)
        return apply(*args)

    monkeypatch.setattr(solver, "_diag_of_product", counted)
    monkeypatch.setattr(solver, "apply_m", stepped)
    transience_root(dirichlet_kernel(6, 1.0, seed=1))
    assert len(steps) > 1
    assert len(calls) == len(steps) + 1


def test_dense_compute_limits_builds_one_flat_system(monkeypatch):
    # solve_r_derivatives differentiates the system solve_r stopped in, so
    # one compute_limits places the flat system's constant part once.
    built = []
    init = solver._FlatNewton.__init__

    def counted(self, *args):
        built.append(args[0].shape[-1])
        init(self, *args)

    monkeypatch.setattr(solver._FlatNewton, "__init__", counted)
    compute_limits(asymmetric_kernel(), word_metric(3))
    assert built == [3]
