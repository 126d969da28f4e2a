"""Scaled-down statistical checks, and full-size LLN runs at N >= 7, where
the limits come from the structured Newton solve; the full-size runs at
N = 3 live in the acceptance suite."""

import numpy as np
import pytest

from windwalk.chain import _run_length_groups, asymmetric_kernel, run_length_paths, symmetric_kernel
from windwalk.groupoid import custom_metric, fenced_metric, unit, word_metric
from windwalk.limits import compute_limits
from windwalk.montecarlo import (_chi2_quantile, _default_initial, _ks_distance, _normal_cdf,
                                 verify_clt, verify_lln)

from helpers import dirichlet_kernel
from reference import verify_lazy_walk


def test_lln_smoke_symmetric():
    rep = verify_lln(symmetric_kernel(3), word_metric(3), 0.25,
                     n_steps=2000, n_paths=60, seed=4, sigma2_ref=11 / 16)
    assert rep.passed
    assert rep.gamma_hat == pytest.approx(0.25, abs=0.02)
    assert rep.gamma_se > 0


def test_lln_deterministic():
    args = (symmetric_kernel(3), word_metric(3), 0.25)
    kw = dict(n_steps=1000, n_paths=50, seed=10, sigma2_ref=11 / 16)
    a = verify_lln(*args, **kw)
    b = verify_lln(*args, **kw)
    assert a.to_json() == b.to_json()


def test_lln_negative_sigma2_ref_raises_before_stepping(monkeypatch):
    # A negative variance once gave NaN bands, a failed verdict and a
    # RuntimeWarning from the square root, after the whole batch had run.
    def refuse(*args, **kwargs):
        raise AssertionError("paths were stepped")

    monkeypatch.setattr("windwalk.montecarlo._run_length_groups", refuse)
    with pytest.raises(ValueError, match="sigma2_ref must be non-negative"):
        verify_lln(symmetric_kernel(3), word_metric(3), 0.25, n_steps=1000, n_paths=50,
                   seed=0, sigma2_ref=-1.0)


def test_lln_zero_sigma2_ref_is_valid():
    # A degenerate metric has variance 0: the band is then the sampling SE.
    rep = verify_lln(symmetric_kernel(3), word_metric(3), 0.25, n_steps=1000, n_paths=50,
                     seed=0, sigma2_ref=0.0)
    assert np.isfinite(rep.details["band_unit"]) and rep.details["band_unit"] > 0


def _second_seed(seed):
    # The master seed of verify_lln's run from the non-unit word.
    return int(np.random.SeedSequence(seed).generate_state(2)[1])


def _non_dyadic_metric(n):
    arcs = sorted((i, j, s) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
                  for s in (1, -1))
    return custom_metric(n, {arc: (0.1, 0.7, 1.3, 0.3)[c % 4] for c, arc in enumerate(arcs)})


@pytest.mark.parametrize("kernel", [asymmetric_kernel(), symmetric_kernel(5)],
                         ids=["asymmetric", "symmetric:5"])
@pytest.mark.parametrize("metric", ["word", "fenced", "custom"])
@pytest.mark.parametrize("n_steps, n_paths", [(0, 3), (1, 4), (200, 7), (1000, 50)])
def test_lln_batch_halves_equal_separate_runs(kernel, metric, n_steps, n_paths):
    # verify_lln steps both of its runs in one batch.  Each half must equal
    # its own run to the last bit: word lengths, and metric lengths summed
    # over the final words, at depths past the first stack capacity of 64.
    n = kernel.n_windows
    m = {"word": word_metric, "fenced": fenced_metric, "custom": _non_dyadic_metric}[metric](n)
    seed = 29
    wl, ml = _run_length_groups(kernel, m, n_steps, [
        (unit(1), seed, n_paths), (_default_initial(), _second_seed(seed), n_paths)])
    wl_unit, ml_unit = run_length_paths(kernel, m, n_steps, n_paths, seed)
    wl_word, ml_word = run_length_paths(kernel, m, n_steps, n_paths, _second_seed(seed),
                                        initial=_default_initial())
    assert wl.tolist() == wl_unit.tolist() + wl_word.tolist()
    assert ml.tolist() == ml_unit.tolist() + ml_word.tolist()
    assert n_steps < 200 or wl.max() > 64


# Reports of the two runs stepped one after the other, as verify_lln did
# before they shared a batch; gamma_ref and sigma2_ref are compute_limits'.
RECORDED_LLN = [
    (asymmetric_kernel(), fenced_metric(3), 0.33421184384537, 0.9162768152935068, 0, 50,
     "{'n_steps': 1000, 'n_paths': 50, 'seed': 0, 'gamma_hat': 0.3354600000000001, "
     "'gamma_se': 0.004213603818924739, 'sigma2_hat': 0.8877228571428573, "
     "'normality_stat': None, 'passes': {'lln_unit': True, 'lln_nonunit': True}, "
     "'details': {'gamma_hat_unit': 0.3354600000000001, "
     "'band_unit': np.float64(0.13793467396676762), 'gamma_hat_nonunit': 0.34176, "
     "'band_nonunit': np.float64(0.1408937762372042)}}"),
    (symmetric_kernel(5), word_metric(5), 0.37500000000000006, None, 1, 73,
     "{'n_steps': 1000, 'n_paths': 73, 'seed': 1, 'gamma_hat': 0.37456164383561646, "
     "'gamma_se': 0.0026973820600148975, 'sigma2_hat': 0.5311385083713851, "
     "'normality_stat': None, 'passes': {'lln_unit': True, 'lln_nonunit': True}, "
     "'details': {'gamma_hat_unit': 0.37456164383561646, "
     "'band_unit': np.float64(0.10297529793333797), 'gamma_hat_nonunit': 0.38363013698630133, "
     "'band_nonunit': np.float64(0.10247814894298923)}}"),
    (symmetric_kernel(3), fenced_metric(3), 0.333333333333333, 1.2962962962962965, 12345, 50,
     "{'n_steps': 1000, 'n_paths': 50, 'seed': 12345, 'gamma_hat': 0.33532000000000006, "
     "'gamma_se': 0.005296470908221119, 'sigma2_hat': 1.4026302040816325, "
     "'normality_stat': None, 'passes': {'lln_unit': True, 'lln_nonunit': True}, "
     "'details': {'gamma_hat_unit': 0.33532000000000006, "
     "'band_unit': np.float64(0.1652023435975036), 'gamma_hat_nonunit': 0.34043999999999996, "
     "'band_nonunit': np.float64(0.16031776979054466)}}"),
]


@pytest.mark.parametrize(
    "kernel, metric, gamma, sigma2, seed, n_paths, expected", RECORDED_LLN,
    ids=["asymmetric-fenced-0", "symmetric:5-word-1", "symmetric:3-fenced-12345"])
def test_lln_report_equals_recorded(kernel, metric, gamma, sigma2, seed, n_paths, expected):
    rep = verify_lln(kernel, metric, gamma, n_steps=1000, n_paths=n_paths, seed=seed,
                     sigma2_ref=sigma2)
    assert repr(rep.to_json()) == expected


@pytest.mark.parametrize("n, concentration, seed, metric", [
    (8, 1.0, 0, word_metric), (20, 1.0, 2, word_metric), (12, 0.1, 1, fenced_metric)])
def test_lln_agrees_with_compute_limits_on_the_structured_path(n, concentration, seed, metric):
    # Above solver.DENSE_MAX_N, gamma and sigma^2 come from the structured
    # Newton solve; the sampled walk is a route independent of it.
    kernel = dirichlet_kernel(n, concentration, seed=seed)
    lim = compute_limits(kernel, metric(n))
    rep = verify_lln(kernel, metric(n), lim.gamma, n_steps=2 * 10**4, n_paths=200, seed=5,
                     sigma2_ref=lim.sigma2)
    assert rep.passed, rep.to_json()


def test_lln_input_validation():
    with pytest.raises(ValueError):
        verify_lln(symmetric_kernel(3), word_metric(3), 0.25,
                   n_steps=10, n_paths=60, seed=0)


def test_clt_smoke_and_negative_control():
    k = symmetric_kernel(3)
    m = word_metric(3)
    rep = verify_clt(k, m, 0.25, 11 / 16, n_steps=10**4, n_paths=1000, seed=6)
    assert rep.passed
    bad = verify_clt(k, m, 0.30, 11 / 16, n_steps=10**4, n_paths=1000, seed=6)
    assert not bad.passes["ks"]


@pytest.mark.parametrize("n", [1000, 2000, 2001])
def test_ks_distance_equals_scipy_statistic(n):
    # Rounded normals put ties in the sample, and the odd size makes the
    # two tails of the KS distance uneven.  The CDF is computed here, not by
    # scipy's ndtr, so the distance may differ from kstest's in its last bit.
    stats = pytest.importorskip("scipy.stats")

    rng = np.random.default_rng(n)
    for sd in (0.5, 1.0, 1.7):
        z = np.round(rng.standard_normal(n) * 1.1, 1)
        assert len(np.unique(z)) < n
        expected = stats.kstest(z, "norm", args=(0.0, sd)).statistic
        assert abs(_ks_distance(z, sd) - expected) <= 4.5e-16


@pytest.mark.parametrize("n_paths, seed", [(1000, 1), (2000, 2), (2001, 3)])
def test_clt_bands_and_statistic_equal_scipy_stats(n_paths, seed):
    # Word lengths are whole numbers, so the simulated z sample has ties.
    # The bands and the KS distance agree with scipy.stats to rounding, and
    # the verdicts are the ones scipy's numbers give.
    stats = pytest.importorskip("scipy.stats")

    k, m, gamma, sigma2 = asymmetric_kernel(), word_metric(3), 0.2729136101879, 0.5876
    n_steps = 10**4
    rep = verify_clt(k, m, gamma, sigma2, n_steps=n_steps, n_paths=n_paths, seed=seed)
    _, ml = run_length_paths(k, m, n_steps, n_paths, seed)
    z = (ml - gamma * n_steps) / np.sqrt(n_steps)
    assert len(np.unique(z)) < n_paths
    dof = n_paths - 1
    var_lo = sigma2 * stats.chi2.ppf(0.005, dof) / dof
    var_hi = sigma2 * stats.chi2.ppf(0.995, dof) / dof
    ks = stats.kstest(z, "norm", args=(0.0, np.sqrt(sigma2))).statistic
    assert rep.details["var_lo"] == pytest.approx(var_lo, rel=6e-16, abs=0)
    assert rep.details["var_hi"] == pytest.approx(var_hi, rel=6e-16, abs=0)
    assert abs(rep.normality_stat - ks) <= 4.5e-16
    assert rep.passes == {"variance_band": bool(var_lo <= rep.sigma2_hat <= var_hi),
                          "ks": bool(ks < 1.63 / np.sqrt(n_paths))}


QUANTILE_DOFS = [*range(999, 1030), 1999, 2000, 2001, 4999, 2 * 10**4, 10**5, 10**6]


@pytest.mark.parametrize("q", [0.005, 0.995])
def test_chi2_quantile_matches_a_50_digit_root(q):
    # The root y of P(dof/2, y) = q, to 50 digits; the quantile is 2y.
    mpmath = pytest.importorskip("mpmath")

    with mpmath.workdps(50):
        for dof in QUANTILE_DOFS:
            a, got = mpmath.mpf(dof) / 2, _chi2_quantile(q, dof)
            y = mpmath.findroot(lambda y: mpmath.gammainc(a, 0, y, regularized=True) - q,
                                mpmath.mpf(got) / 2)
            assert abs(got / (2 * y) - 1) <= 4e-16, dof


def test_normal_cdf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")

    xs = np.random.default_rng(0).standard_normal(5000) * 1.7
    with mpmath.workdps(50):
        for x in xs.tolist():
            assert abs(_normal_cdf(x) - mpmath.ncdf(x)) <= 2.3e-16, x


def test_clt_input_validation():
    with pytest.raises(ValueError):
        verify_clt(symmetric_kernel(3), word_metric(3), 0.25, 11 / 16,
                   n_steps=100, n_paths=1000, seed=0)
    with pytest.raises(ValueError):
        verify_clt(symmetric_kernel(3), word_metric(3), 0.25, 0.0,
                   n_steps=10**4, n_paths=1000, seed=0)


def test_lazy_walk_frequencies():
    rep = verify_lazy_walk(symmetric_kernel(4), 50000, seed=2)
    assert rep.passed
    assert rep.expected == {"up": 0.5, "stay": 1 / 3, "down": 1 / 6}


def test_lazy_walk_rejects_non_symmetric():
    with pytest.raises(ValueError):
        verify_lazy_walk(asymmetric_kernel(), 1000, seed=0)


@pytest.mark.parametrize("n_steps", [0, 1])
def test_lazy_walk_rejects_too_few_steps(n_steps):
    # No move from a positive length is seen before the second step.
    with pytest.raises(ValueError, match="n_steps >= 2"):
        verify_lazy_walk(symmetric_kernel(4), n_steps, seed=0)
