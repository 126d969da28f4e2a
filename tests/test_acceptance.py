"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every criterion recomputes its quantities from scratch through the public
API and checks them against frozen reference values or independent oracles,
inside an explicit runtime budget.
"""

import sys
import time

import numpy as np

from windwalk.chain import (
    asymmetric_kernel,
    one_parameter_kernel,
    symmetric_kernel,
)
from windwalk.groupoid import (
    Arc,
    Word,
    append,
    arc_entry,
    compose,
    fenced_metric,
    inverse,
    unit,
    word_metric,
)
from windwalk.limits import build_b, compute_limits, det_h, kms_phi
from windwalk.montecarlo import verify_clt, verify_lln
from windwalk.oracle import (
    ASYMMETRIC_REFERENCE,
    closed_form_one_parameter,
    closed_form_symmetric,
    hitting_step_probabilities,
)
from windwalk.solver import (
    solve_r,
    solve_r_derivatives,
)

from helpers import fd_partials, printed_tolerance, random_word
from reference import (IndexMap, build_m_matrix, primitivity_pattern_ok, series_eval,
                       spectral_radius_k, to_flat, transience_root)

THREE_KERNELS = [
    ("symmetric N=3", symmetric_kernel(3)),
    ("one-parameter q=0.1", one_parameter_kernel(0.1)),
    ("asymmetric", asymmetric_kernel()),
]


def _verdict(num: int, label: str, failures: list, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:2d}] {status} — {label} ({elapsed:.1f}s)", file=sys.__stdout__)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_asymmetric_reference_tables():
    t0 = time.monotonic()
    failures = []
    k = asymmetric_kernel()
    r = solve_r(k, 1.0, tol=1e-14)
    d = solve_r_derivatives(r)
    for tag, array, table in (
        ("r", r.values, ASYMMETRIC_REFERENCE["r"]),
        ("d", d.d1, ASYMMETRIC_REFERENCE["d"]),
        ("v", d.d2, ASYMMETRIC_REFERENCE["v"]),
    ):
        for key, printed in table.items():
            got = arc_entry(array, *key)
            if abs(got - printed) > printed_tolerance(printed):
                failures.append(f"{tag}{key}: {got} vs printed {printed}")
    cw = compute_limits(k, word_metric(3))
    cf = compute_limits(k, fenced_metric(3))
    for name, got, ref in (
        ("gamma", cw.gamma, ASYMMETRIC_REFERENCE["gamma_word"]),
        ("sigma2", cw.sigma2, ASYMMETRIC_REFERENCE["sigma2_word"]),
        ("gamma_F", cf.gamma, ASYMMETRIC_REFERENCE["gamma_fenced"]),
        ("sigma2_F", cf.sigma2, ASYMMETRIC_REFERENCE["sigma2_fenced"]),
    ):
        if abs(got - ref) > 1e-5:
            failures.append(f"{name}: {got} vs {ref}")
    _verdict(1, "asymmetric kernel: 36 printed table values and 4 constants", failures, t0, 1.0)


def test_criterion_02_symmetric_family():
    t0 = time.monotonic()
    failures = []
    for n in range(3, 9):
        k = symmetric_kernel(n)
        c = closed_form_symmetric(n)
        cw = compute_limits(k, word_metric(n))
        cf = compute_limits(k, fenced_metric(n))
        checks = [
            ("gamma", cw.gamma, c.gamma_word),
            ("sigma2", cw.sigma2, c.sigma2_word),
            ("gamma_F", cf.gamma, c.gamma_fenced),
            ("sigma2_F", cf.sigma2, c.sigma2_fenced),
        ]
        r = solve_r(k, 1.0)
        d = solve_r_derivatives(r)
        checks += [
            ("R", arc_entry(r.values, 1, 2, 1), c.r_values["R"]),
            ("R'", arc_entry(d.d1, 1, 2, 1), c.r_values["R1"]),
            ("R''", arc_entry(d.d2, 1, 2, 1), c.r_values["R2"]),
        ]
        for name, got, ref in checks:
            if abs(got - ref) > 1e-10 * abs(ref):
                failures.append(f"N={n} {name}: {got} vs {ref}")
    _verdict(2, "symmetric family N=3..8: closed forms to 1e-10 relative", failures, t0, 1.0)


def _refine_max(f, lo, hi, rounds=6, pts=21):
    for _ in range(rounds):
        grid = np.linspace(lo, hi, pts)
        vals = [f(q) for q in grid]
        best = int(np.argmax(vals))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, pts - 1)]
    return 0.5 * (lo + hi), max(vals)


def test_criterion_03_one_parameter_family():
    t0 = time.monotonic()
    failures = []
    grid = [0.02] + [round(0.05 * i, 2) for i in range(1, 10)]
    for q in grid:
        k = one_parameter_kernel(q)
        c = closed_form_one_parameter(q)
        pw = compute_limits(k, word_metric(3))
        pf = compute_limits(k, fenced_metric(3))
        for name, got, ref in (
            ("gamma", pw.gamma, c.gamma_word),
            ("sigma2", pw.sigma2, c.sigma2_word),
            ("gamma_F", pf.gamma, c.gamma_fenced),
            ("sigma2_F", pf.sigma2, c.sigma2_fenced),
        ):
            if abs(got - ref) > 1e-9 * abs(ref):
                failures.append(f"q={q} {name}: {got} vs {ref}")

    def gamma_w(q):
        return compute_limits(one_parameter_kernel(q), word_metric(3)).gamma

    def gamma_f(q):
        return compute_limits(one_parameter_kernel(q), fenced_metric(3)).gamma

    def sigma_w(q):
        return compute_limits(one_parameter_kernel(q), word_metric(3)).sigma2

    for label, f, q_ref, v_ref in (
        ("gamma max", gamma_w, 0.25, 0.25),
        ("gamma_F max", gamma_f, (8 - np.sqrt(6)) / 29, (2 / 23) * (2 * np.sqrt(6) - 1)),
        ("sigma2 max", sigma_w, 0.25, 11 / 16),
    ):
        q_hat, v_hat = _refine_max(f, 0.02, 0.48)
        if abs(q_hat - q_ref) > 1e-5:
            failures.append(f"{label} location: {q_hat} vs {q_ref}")
        if abs(v_hat - v_ref) > 1e-9:
            failures.append(f"{label} value: {v_hat} vs {v_ref}")
    _verdict(3, "one-parameter family: grid to 1e-9 and figure-caption maxima", failures, t0, 5.0)


def test_criterion_04_jet_vs_finite_difference():
    t0 = time.monotonic()
    failures = []
    for name, k in THREE_KERNELS:
        for metric in (word_metric(3), fenced_metric(3)):
            r = solve_r(k, 1.0, tol=1e-15)
            d = solve_r_derivatives(r)
            w = metric.W
            h = det_h(build_b(r, d, w))
            jet = (h.d_lambda, h.d_z, h.d2_lambda, h.d_lambda_z, h.d2_z)
            fd = fd_partials(k, metric)
            labels = ("d_lambda", "d_z", "d2_lambda", "d_lambda_z", "d2_z")
            for lbl, a, b in zip(labels, jet, fd):
                if abs(a - b) > 1e-5 * max(abs(a), 1e-10):
                    failures.append(f"{name}/{metric.name} {lbl}: jet {a} vs fd {b}")
    _verdict(4, "five determinant partials vs finite differences, 1e-5", failures, t0, 30.0)


def test_criterion_05_dp_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    for name, k in (("symmetric N=3", symmetric_kernel(3)), ("asymmetric", asymmetric_kernel())):
        # One (2, N, N, 81) table serves every arc.
        table = hitting_step_probabilities(k, 80)
        series = {
            t: table[(1 - t[2]) // 2, t[0] - 1, t[1] - 1]
            for t in IndexMap(3).tuples
        }
        for lam in (0.5, 0.9):
            r = solve_r(k, lam, tol=1e-14)
            bound = lam**80 / (1 - lam) + 1e-8
            for t, s in series.items():
                gap = arc_entry(r.values, *t) - series_eval(s, lam)
                if not (-1e-10 <= gap <= bound):
                    failures.append(f"{name} {t} lam={lam}: gap {gap} vs bound {bound}")
    _verdict(5, "hitting-series DP vs solver within geometric tail bound, M=80", failures, t0, 30.0)


def test_criterion_06_spectral_facts():
    t0 = time.monotonic()
    failures = []
    for name, k in THREE_KERNELS:
        m = word_metric(3)
        rho_crit = spectral_radius_k(k, m, 1.0, 1.0)
        if abs(rho_crit - 1.0) > 1e-8:
            failures.append(f"{name}: rho(1,1) = {rho_crit}")
        rho_sub = spectral_radius_k(k, m, 0.9, 1.0)
        if not rho_sub < 1.0:
            failures.append(f"{name}: rho(0.9,1) = {rho_sub} not < 1")
        mu = transience_root(k)
        if not mu > 1.0:
            failures.append(f"{name}: transience root {mu} not > 1")
        r = solve_r(k, 1.0)
        if not primitivity_pattern_ok(build_m_matrix(k, 1.0, to_flat(r.values))):
            failures.append(f"{name}: cube of the linearised matrix not positive")
    _verdict(6, "critical spectral radius, transience root, primitivity", failures, t0, 30.0)


def test_criterion_07_monte_carlo_lln():
    t0 = time.monotonic()
    failures = []
    cases = [
        ("symmetric word", symmetric_kernel(3), word_metric(3), 1 / 4, 11 / 16),
        ("symmetric fenced", symmetric_kernel(3), fenced_metric(3), 1 / 3, 35 / 27),
        ("asymmetric word", asymmetric_kernel(), word_metric(3), 0.272913, 0.587598),
        ("asymmetric fenced", asymmetric_kernel(), fenced_metric(3), 0.334211, 0.916276),
    ]
    for idx, (name, k, m, gamma, sigma2) in enumerate(cases):
        rep = verify_lln(k, m, gamma, n_steps=2 * 10**4, n_paths=200,
                         seed=1000 + idx, sigma2_ref=sigma2)
        for flag, ok in rep.passes.items():
            if not ok:
                failures.append(f"{name} {flag}: gamma_hat {rep.gamma_hat} vs {gamma}")
    _verdict(7, "LLN 4-SE bands, unit and non-unit starts, 2e4 x 200", failures, t0, 120.0)


def test_criterion_08_monte_carlo_clt():
    t0 = time.monotonic()
    failures = []
    rep = verify_clt(symmetric_kernel(3), word_metric(3), 0.25, 11 / 16,
                     n_steps=2 * 10**4, n_paths=2000, seed=2024)
    if not rep.passes["variance_band"]:
        failures.append(f"variance {rep.sigma2_hat} outside 99% band around 11/16")
    if not rep.passes["ks"]:
        failures.append(f"KS {rep.normality_stat} above 1.63/sqrt(2000)")
    neg = verify_clt(symmetric_kernel(3), word_metric(3), 0.30, 11 / 16,
                     n_steps=2 * 10**4, n_paths=2000, seed=2024)
    if neg.passes["ks"]:
        failures.append("negative control (gamma + 0.05) did not fail the KS check")
    _verdict(8, "CLT chi-square band and KS distance, with negative control", failures, t0, 600.0)


def test_criterion_09_kms_recurrence():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(314159)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        x = float(rng.uniform(-2, 2))
        z = float(rng.uniform(0.05, 1.5))
        u = z ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        det = float(np.linalg.det(u - x * np.eye(n)))
        phi = kms_phi(n, x, z)
        if abs(phi - det) > 1e-10 * max(abs(det), 1e-30) + 1e-12:
            failures.append(f"n={n} x={x:.4f} z={z:.4f}: {phi} vs {det}")
    _verdict(9, "Toeplitz recurrence vs dense determinant, 100 random points", failures, t0, 10.0)


def _word_ok(w: Word) -> bool:
    prev = None
    for arc in w.letters:
        if prev is not None and (arc.i != prev.j or arc.k == prev.k):
            return False
        prev = arc
    return not w.letters or w.letters[0].i == w.source


def test_criterion_10_groupoid_properties():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(27)
    for trial in range(10**4):
        a = random_word(rng, 5, max_len=8)
        b = random_word(rng, 5, max_len=8, source=a.target)
        c = random_word(rng, 5, max_len=8, source=b.target)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        if left != right:
            failures.append(f"trial {trial}: associativity broken")
            break
        if compose(a, inverse(a)) != unit(a.source):
            failures.append(f"trial {trial}: inverse law broken")
            break
        if not (_word_ok(left) and _word_ok(right)):
            failures.append(f"trial {trial}: invariants broken on composite")
            break
        i = c.target
        j = int(rng.choice([x for x in range(1, 6) if x != i]))
        g = Arc(i, j, int(rng.choice([1, -1])))
        if abs(len(append(left, g)) - len(left)) > 1:
            failures.append(f"trial {trial}: append changed length by more than 1")
            break
    _verdict(10, "1e4 random triples: associativity, inverses, invariants", failures, t0, 60.0)
