"""Newton solver, structured linear solves and implicit derivatives."""

import inspect
import re

import numpy as np
import pytest

from windwalk import solver
from windwalk.cli import build_parser
from windwalk.chain import TransitionKernel, asymmetric_kernel, one_parameter_kernel, symmetric_kernel
from windwalk.groupoid import Arc, fenced_metric, word_metric
from windwalk.limits import compute_limits
from windwalk.oracle import closed_form_one_parameter, dp_hitting_series, dp_return_series
from windwalk.solver import (
    IndexMap,
    SolverError,
    apply_m,
    solution_to_json,
    solve_r,
    solve_r_derivatives,
    system_matrices,
    transience_root,
)

from helpers import dirichlet_kernel
from reference import build_m_matrix, direct_h, primitivity_pattern_ok, spectral_radius_k, to_flat


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
        d = solve_r_derivatives(symmetric_kernel(n), r)
        assert np.allclose(to_flat(d.d1), 2 / (n - 2), rtol=1e-10)
        assert np.allclose(to_flat(d.d2), 4 * (n**2 - 2) / (n - 2) ** 3, rtol=1e-9)


def test_one_parameter_closed_forms():
    for q in (0.1, 0.3, 0.45):
        k = one_parameter_kernel(q)
        r = solve_r(k, 1.0)
        d = solve_r_derivatives(k, r)
        cf = closed_form_one_parameter(q).r_values
        assert r.value(2, 1, 1) == pytest.approx(cf["R1"], abs=1e-11)
        assert r.value(1, 2, 1) == pytest.approx(cf["R2"], abs=1e-11)
        assert r.value(1, 3, 1) == pytest.approx(cf["R3"], abs=1e-11)
        assert d.first(2, 1, 1) == pytest.approx(cf["R1p"], rel=1e-9)
        assert d.first(1, 2, 1) == pytest.approx(cf["R2p"], rel=1e-9)
        assert d.first(1, 3, 1) == pytest.approx(cf["R3p"], rel=1e-9)
        # mirror symmetry of the kernel: both chambers solve identically
        assert r.value(1, 2, 1) == pytest.approx(r.value(1, 2, -1), abs=1e-12)


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
    d = solve_r_derivatives(k, r1)
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
    _, _, a1, c = system_matrices(k)
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
        solve_r_derivatives(k, r)


DIRICHLET_KERNELS = [
    dirichlet_kernel(n, concentration, seed=100 * n + idx)
    for n in range(3, 9)
    for idx, concentration in enumerate((1.0, 0.05))
]


@pytest.mark.parametrize("kernel", DIRICHLET_KERNELS, ids=repr)
def test_structured_solve_matches_flat_system(kernel):
    _, p, a1, c = system_matrices(kernel)
    r = solve_r(kernel, 1.0)
    q = to_flat(r.values)
    assert np.max(np.abs(q - (p + a1 @ q + (c @ q) * q))) <= 1e-13
    assert r.residual <= 1e-13
    d = solve_r_derivatives(kernel, r)
    m = build_m_matrix(kernel, 1.0, q)
    d1 = np.linalg.solve(np.eye(len(q)) - m, q)
    d2 = np.linalg.solve(np.eye(len(q)) - m, 2.0 * m @ d1 + 2.0 * (c @ d1) * d1)
    assert np.max(np.abs(to_flat(d.d1) - d1)) <= 1e-10 * np.max(np.abs(d1))
    assert np.max(np.abs(to_flat(d.d2) - d2)) <= 1e-10 * np.max(np.abs(d2))


def test_matrix_form_follows_index_map_order():
    n = 4
    matrix = np.arange(2 * n * n, dtype=float).reshape(2, n, n)
    values = to_flat(matrix)
    assert len(values) == len(IndexMap(n))
    for flat, (i, j, k) in enumerate(IndexMap(n).tuples):
        assert matrix[(1 - k) // 2, i - 1, j - 1] == values[flat]
    k = asymmetric_kernel()
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(k, r)
    for array in (r.values, d.d1, d.d2):
        assert array.shape == (2, 3, 3)
        assert np.all(np.diagonal(array, axis1=1, axis2=2) == 0.0)
    for flat, (i, j, sign) in enumerate(IndexMap(3).tuples):
        assert r.value(i, j, sign) == to_flat(r.values)[flat]
        assert d.first(i, j, sign) == to_flat(d.d1)[flat]
        assert d.second(i, j, sign) == to_flat(d.d2)[flat]


@pytest.mark.parametrize("arc", [(1, 1, 1), (0, 1, 1), (4, 1, 1), (1, 2, 0)])
def test_accessors_raise_for_a_triple_that_names_no_arc(arc):
    # The zero diagonal and a wrapped index (window 0 reads window N) must not
    # pass for a value.
    k = symmetric_kernel(3)
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(k, r)
    for accessor in (r.value, d.first, d.second):
        with pytest.raises(KeyError):
            accessor(*arc)


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

    def recorded(p, lam, r, d):
        md = apply_m(p, lam, r, d)
        ratios = md[:, arcs] / d[:, arcs]
        brackets.append((ratios.min(), ratios.max()))
        return md

    monkeypatch.setattr(solver, "apply_m", recorded)
    root = transience_root(kernel)
    lo, hi = brackets[-1]
    assert lo <= root <= hi
    assert hi - lo <= solver.POWER_TOL * lo
    # One product per step, and no earlier bracket was narrow enough to stop.
    assert all(h - l > solver.POWER_TOL * l for l, h in brackets[:-1])


def test_transience_root_refuses_with_its_bracket(monkeypatch):
    # Here the bracket narrows too slowly for the cap.  Its lower end still
    # certifies transience.  (Dense eigvals reads 2e-9 below the bracket on
    # this kernel, so it is no reference here.)
    monkeypatch.setattr(solver, "POWER_MAX_ITER", 2000)
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
    def refuse(*args, **kwargs):
        raise AssertionError("the dense reference was called")

    for name in ("system_matrices", "IndexMap"):
        monkeypatch.setattr(solver, name, refuse)
    k = asymmetric_kernel()
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(k, r)
    assert len(solution_to_json(r, d)["d2"]) == 12
    assert compute_limits(k, word_metric(3)).gamma > 0
    assert spectral_radius_k(k, word_metric(3), 0.9, 1.0) < 1
    assert abs(direct_h(k, word_metric(3), 1.0, 1.0)) < 1e-10
    assert transience_root(k) > 1
    assert dp_hitting_series(k, Arc(1, 2, 1), 10).total_mass() > 0
    assert dp_return_series(k, 1, 10).total_mass() > 1


def test_library_holds_no_test_only_route():
    # The cross-checks that only tests call live in tests/reference.py, and
    # the oracles share no code with the solve pipeline they check.
    import windwalk
    from windwalk import limits, oracle

    moved = ("build_m_matrix", "to_flat", "primitivity_pattern_ok", "b_matrix_values",
             "spectral_radius_k", "direct_h")
    for module in (windwalk, solver, limits, oracle):
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name, value in vars(oracle).items():
        assert getattr(value, "__module__", None) not in ("windwalk.solver", "windwalk.limits"), name


def test_library_holds_no_test_only_sampler():
    # The hitting-time sampler, the batch's top-letter read it alone used
    # and a truncated series' partial sum live in tests/reference.py too.
    from windwalk import _stepper, chain, oracle

    assert not hasattr(chain, "sample_hitting_times")
    assert not hasattr(_stepper._BatchState, "top")
    assert not hasattr(oracle.TruncatedSeries, "eval")
    assert oracle.TruncatedSeries(np.array([0.25, 0.5])).total_mass() == 0.75


@pytest.mark.parametrize("q, rel", [(1e-3, 1e-12), (1e-5, 1e-10)])
def test_newton_small_q_closed_forms(q, rel):
    k = one_parameter_kernel(q)
    r = solve_r(k, 1.0)
    d = solve_r_derivatives(k, r)
    cf = closed_form_one_parameter(q)
    for got, key in ((r.value(2, 1, 1), "R1"), (r.value(1, 2, 1), "R2"), (r.value(1, 3, 1), "R3"),
                     (d.first(2, 1, 1), "R1p"), (d.first(1, 2, 1), "R2p"),
                     (d.first(1, 3, 1), "R3p")):
        assert got == pytest.approx(cf.r_values[key], rel=rel), key
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
    system = solver.LinearisedSystem(k.P, 1.0, r.values)
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
    system = solver.LinearisedSystem(k.P, 1.0, r.values)
    assert system.fallback_columns > 0
    b = np.random.default_rng(4).normal(size=(2, 4, 4))
    b[:, np.arange(4), np.arange(4)] = 0.0
    got = to_flat(system.solve(b))
    want = np.linalg.solve(np.eye(24) - build_m_matrix(k, 1.0, to_flat(r.values)), to_flat(b))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


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
    system = solver.LinearisedSystem(kernel.P, 1.0, r.values)
    d = system.solve(b)
    defect = np.max(np.abs(d - apply_m(kernel.P, 1.0, r.values, d) - b))
    assert defect <= 1e-13 * (np.max(np.abs(b)) + np.max(np.abs(d)))


def test_singular_coupling_is_a_solver_error(monkeypatch):
    # The coupling is LU-solved inside each solve, so its failure is raised
    # there, named as the coupling.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    k = asymmetric_kernel()
    system = solver.LinearisedSystem(k.P, 1.0, solve_r(k, 1.0).values)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError, match="the 2N x 2N coupling of I - M is singular"):
        system.solve(np.ones((2, 3, 3)))


def test_solve_leaves_b_unwritten_and_returns_a_zero_diagonal():
    # The solve zeroes the diagonal of its own copy of B, and the block solve
    # spends that copy as scratch space; the caller's B must survive both.
    k = asymmetric_kernel()
    system = solver.LinearisedSystem(k.P, 1.0, solve_r(k, 1.0).values)
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
    d2, d2_fortran = solve_r_derivatives(k, r).d2, solve_r_derivatives(k_fortran, r_fortran).d2
    assert np.array_equal(d2, d2_fortran)
    system = solver.LinearisedSystem(k.P, 1.0, r.values)
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
        d = solve_r_derivatives(kernel, r)
        return r, d, [compute_limits(kernel, metric(kernel.n_windows))
                      for metric in (word_metric, fenced_metric)]

    (r_s, d_s, limits_s), (r_d, d_d, limits_d) = _both_paths(monkeypatch, solve)
    # d1 and d2 solve with I - M at R, so a rounding-level change of R reaches
    # them times beta = ||(I - M)^{-1}||_inf, about 2.1/sqrt(q) at small q: the
    # largest entry of the solve on the all-ones array, as (I - M)^{-1} >= 0.
    ones = np.ones_like(r_s.values)
    beta = solver.LinearisedSystem(kernel.P, 1.0, r_s.values).solve(ones).max()
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
        solve_r_derivatives(k, solve_r(k, 1.0))
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
    for call in (lambda: solve_r(k, 1.0), lambda: solve_r_derivatives(k, r)):
        with pytest.raises(SolverError, match="I - M is singular"):
            call()


def test_structured_newton_step_forms_u_once(monkeypatch):
    # Each step's defect forms u = diag(P R), and the step's factorisation
    # reuses it: one product for the defect and one for the solve's a_k.
    calls = []
    product = solver._diag_of_product

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(solver, "_diag_of_product", counted)
    r = solve_r(symmetric_kernel(solver.DENSE_MAX_N + 2), 1.0)
    assert len(calls) == 1 + 2 * r.iterations
