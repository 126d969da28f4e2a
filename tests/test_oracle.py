"""Dynamic-programming oracles and closed-form example families."""

import numpy as np
import pytest

from windwalk import oracle
from windwalk.chain import asymmetric_kernel, one_parameter_kernel, symmetric_kernel
from windwalk.groupoid import Arc, fenced_metric, word_metric
from windwalk.oracle import (
    closed_form,
    closed_form_one_parameter,
    dp_hitting_series,
    dp_return_series,
    dp_truncated_G,
    hitting_step_probabilities,
)
from windwalk.solver import solve_r

from helpers import dirichlet_kernel, symmetric3_hitting_root
import reference
from reference import (IndexMap, StateSpaceExceeded, arc_entry, series_eval, word_hitting_series,
                       word_laws, word_return_series, word_truncated_G)


def test_first_coefficient_is_one_step_probability():
    k = asymmetric_kernel()
    for series in (dp_hitting_series, word_hitting_series):
        s = series(k, Arc(1, 2, 1), 3)
        assert s[0] == 0.0
        assert s[1] == pytest.approx(arc_entry(k.P, 1, 2, 1))


def test_convolution_and_word_dp_agree():
    # the two routes are fully independent: one sums path decompositions,
    # the other enumerates probability mass over reduced words
    for k in (symmetric_kernel(3), asymmetric_kernel()):
        for target in (Arc(1, 2, 1), Arc(2, 3, -1), Arc(3, 1, 1)):
            a = dp_hitting_series(k, target, 12)
            b = word_hitting_series(k, target, 12)
            assert np.allclose(a, b, atol=1e-15)
        for i in (1, 2):
            a = dp_return_series(k, i, 12)
            b = word_return_series(k, i, 12)
            assert np.allclose(a, b, atol=1e-15)


def test_partial_sums_increase_and_stay_below_one():
    k = asymmetric_kernel()
    s = dp_hitting_series(k, Arc(2, 1, 1), 60)
    partial = np.cumsum(s)
    assert np.all(np.diff(partial) >= 0)
    assert partial[-1] < 1.0  # transience


def test_partial_sum_against_scalar_cubic():
    s = dp_hitting_series(symmetric_kernel(3), Arc(1, 2, 1), 60)
    root = symmetric3_hitting_root(0.9)
    assert abs(series_eval(s, 0.9) - root) < 1e-6


def test_partial_sum_within_tail_bound_of_solver():
    # One table holds every arc's series; its zero diagonal meets R's.
    for k in (symmetric_kernel(3), asymmetric_kernel()):
        table = hitting_step_probabilities(k, 80)
        for lam in (0.5, 0.9):
            partial = table @ lam ** np.arange(81)
            exact = solve_r(k, lam).values
            assert np.all(partial <= exact + 1e-12)
            assert np.all(exact - partial <= lam**80 / (1 - lam) + 1e-8)


def _looped_hitting_table(kernel, max_steps):
    """The first-step decomposition of ``hitting_step_probabilities`` as a
    plain loop over the flat ``IndexMap`` arcs, one coefficient at a time."""
    index = IndexMap(kernel.n_windows)
    t = np.zeros((len(index), max_steps + 1))
    for row, (i, j, k) in enumerate(index.tuples):
        t[row, 1] = arc_entry(kernel.P, i, j, k)
    for m in range(2, max_steps + 1):
        for row, (i, j, k) in enumerate(index.tuples):
            for l in range(1, kernel.n_windows + 1):
                if l != i and l != j:
                    t[row, m] += arc_entry(kernel.P, i, l, k) * t[index.flat(l, j, k), m - 1]
                if l != i:
                    ret = t[index.flat(l, i, -k), 1:m - 1] @ t[row, m - 2:0:-1]
                    t[row, m] += arc_entry(kernel.P, i, l, -k) * ret
    return index, t


@pytest.mark.parametrize("kernel", [asymmetric_kernel(), dirichlet_kernel(6, 0.1, seed=3)],
                         ids=repr)
def test_hitting_table_matches_the_looped_recurrence(kernel):
    table = hitting_step_probabilities(kernel, 40)
    assert table.shape == (2, kernel.n_windows, kernel.n_windows, 41)
    assert np.all(np.diagonal(table, axis1=1, axis2=2) == 0.0)
    index, looped = _looped_hitting_table(kernel, 40)
    for row, (i, j, k) in enumerate(index.tuples):
        assert np.max(np.abs(table[(1 - k) // 2, i - 1, j - 1] - looped[row])) <= 1e-15


@pytest.mark.parametrize("n", [6, 10, 20])
@pytest.mark.parametrize("concentration", [1.0, 0.1])
def test_hitting_table_within_tail_bound_of_solver(n, concentration):
    # Every arc's partial sum at once, from one table: the steps beyond 60
    # carry at most lam^61 / (1 - lam) of R.  That tail lies below rounding
    # here, so the lower side allows the same 1e-12 as the upper one.
    k = dirichlet_kernel(n, concentration, seed=n)
    lam = 0.5
    partial = hitting_step_probabilities(k, 60) @ lam ** np.arange(61)
    gap = solve_r(k, lam).values - partial
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= lam**60 / (1 - lam) + 1e-12)


def test_zero_horizon_hitting_table_is_empty_of_hits():
    table = hitting_step_probabilities(asymmetric_kernel(), 0)
    assert table.shape == (2, 3, 3, 1)
    assert not table.any()


def test_return_series_start():
    s = dp_return_series(symmetric_kernel(3), 1, 6)
    assert s[0] == 1.0
    assert s[1] == 0.0  # one step always leaves the unit
    assert s[2] == pytest.approx(0.25)  # immediate backtrack
    assert np.all(s >= 0)


def test_return_series_decays_exponentially():
    s = dp_return_series(symmetric_kernel(3), 1, 40)
    logs = np.log(s[6:])
    slope = np.polyfit(np.arange(len(logs)), logs, 1)[0]
    assert slope < -1e-3


@pytest.mark.parametrize("lam", [0.5, 0.99])
def test_truncated_g_geometric_at_z_one(lam):
    k = asymmetric_kernel()
    for m in (0, 5, 12, 1000):
        g = dp_truncated_G(k, word_metric(3), 1, lam, 1.0, m)
        assert g == pytest.approx((1 - lam ** (m + 1)) / (1 - lam), rel=1e-13)


@pytest.mark.parametrize("lam, short, long", [
    (0.5, 10, 14), (0.5, 200, 400), (0.9, 200, 400), (0.99, 200, 400)])
def test_truncated_g_monotone_and_tail_bounded(lam, short, long):
    k = symmetric_kernel(3)
    m = word_metric(3)
    lo = dp_truncated_G(k, m, 1, lam, 0.9, short)
    hi = dp_truncated_G(k, m, 1, lam, 0.9, long)
    assert hi >= lo
    assert hi - lo <= lam ** (short + 1) / (1 - lam)


@pytest.mark.parametrize("kernel, horizon", [
    (asymmetric_kernel(), 9), (symmetric_kernel(3), 9), (symmetric_kernel(4), 7),
    (one_parameter_kernel(0.1), 9), (dirichlet_kernel(4, 1.0, seed=1), 6),
    (dirichlet_kernel(5, 0.1, seed=2), 5),
], ids=["asymmetric", "symmetric:3", "symmetric:4", "one_parameter:0.1", "dirichlet:4",
        "dirichlet:5"])
def test_truncated_g_matches_the_word_walk(kernel, horizon):
    # The word laws to at most 6559 words.  At symmetric:4, word metric,
    # horizon 7, lam 0.99 and z 0.8, a plain sum over each law lies 4.1e-14
    # (relative) from the exact rational value, the walk's fsum 1.2e-16 and
    # the convolution 4.2e-17.
    n = kernel.n_windows
    for metric in (word_metric(n), fenced_metric(n)):
        for lam, z in ((0.5, 1.0), (0.5, 0.9), (0.9, 0.3), (0.99, 0.8)):
            for m in range(horizon + 1):
                want = word_truncated_G(kernel, metric, 1, lam, z, m)
                got = dp_truncated_G(kernel, metric, 1, lam, z, m)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0), (metric.name, lam, z, m)


def test_truncated_g_domain():
    k = symmetric_kernel(3)
    with pytest.raises(ValueError):
        dp_truncated_G(k, word_metric(3), 1, 1.0, 0.9, 5)
    with pytest.raises(ValueError):
        dp_truncated_G(k, word_metric(3), 1, 0.5, 0.0, 5)


_CAPPED_WALKS = {
    "G": lambda: word_truncated_G(symmetric_kernel(3), word_metric(3), 1, 0.5, 0.9, 30),
    "hitting": lambda: word_hitting_series(symmetric_kernel(3), Arc(1, 2, 1), 40),
    "hitting-asymmetric": lambda: word_hitting_series(asymmetric_kernel(), Arc(1, 2, 1), 8),
    "return": lambda: word_return_series(symmetric_kernel(3), 1, 40),
}


@pytest.mark.parametrize("walk, cap, count", [
    ("G", 1000, 1021), ("hitting", 50, 94), ("hitting-asymmetric", 26, 30), ("return", 50, 61),
], ids=["G", "hitting", "hitting-asymmetric", "return"])
def test_state_cap_guard(monkeypatch, walk, cap, count):
    # The count is that of the first step whose kept words exceed the cap.
    monkeypatch.setattr(reference, "DEFAULT_STATE_CAP", cap)
    with pytest.raises(StateSpaceExceeded) as info:
        _CAPPED_WALKS[walk]()
    assert str(info.value) == f"word-state count {count} exceeds the cap {cap}"


@pytest.mark.parametrize("walk, cap, count", [
    ("G", 1021, 2045), ("hitting", 94, 190), ("hitting-asymmetric", 30, None),
    ("return", 61, 125),
], ids=["G", "hitting", "hitting-asymmetric", "return"])
def test_state_cap_admits_a_law_of_exactly_the_cap(monkeypatch, walk, cap, count):
    # With the cap at the count that test_state_cap_guard refuses, that step
    # passes: the walk refuses at a later step's count, or, on the asymmetric
    # kernel to horizon 8, ends with the series that the default cap gives.
    whole = _CAPPED_WALKS[walk]() if count is None else None
    monkeypatch.setattr(reference, "DEFAULT_STATE_CAP", cap)
    if count is None:
        assert _CAPPED_WALKS[walk]().tolist() == whole.tolist()
        return
    with pytest.raises(StateSpaceExceeded) as info:
        _CAPPED_WALKS[walk]()
    assert str(info.value) == f"word-state count {count} exceeds the cap {cap}"


@pytest.mark.parametrize("kernel, steps", [
    (asymmetric_kernel(), 11), (symmetric_kernel(4), 7), (symmetric_kernel(5), 6),
], ids=["asymmetric", "symmetric:4", "symmetric:5"])
def test_law_sizes_are_the_reduced_word_counts(kernel, steps):
    # The return walk to horizon M keeps the words of length at most
    # min(m, M - m) at step m, and the G walk those of length at most m.
    # There are 2 (N-1)^L reduced words of length L >= 1 from a window, each
    # reached as every arc has positive probability and a merge keeps a
    # word's length, and so is the empty word from step 2 on.
    b = kernel.n_windows - 1

    def count(m, r):
        return (m > 1) + 2 * b * (b**r - 1) // (b - 1)

    for horizon in range(1, steps + 1):
        laws = word_laws(kernel, 1, horizon, lambda m, word: len(word) <= horizon - m)
        assert [len(law) for law in laws] == [count(m, min(m, horizon - m))
                                              for m in range(1, horizon + 1)]
    laws = word_laws(kernel, 2, steps)
    assert [len(law) for law in laws] == [count(m, m) for m in range(1, steps + 1)]


# What ``oracle-dp --method words`` printed before the hitting and return
# series kept one route: the coefficients with their total mass.  The walks
# live on as the tests' reference.
WORDS_CLI_SERIES = {
    "oracle-dp-hitting-words": (
        lambda: word_hitting_series(asymmetric_kernel(), Arc(2, 3, -1), 10),
        [0.0, 0.25, 0.017857142857142856, 0.09959325396825397, 0.021732390873015872,
         0.04770501307004284, 0.017167436784775086, 0.025585634849050725,
         0.012567038294837473, 0.015073841984612263, 0.00907757537485816],
        0.5163593280565894),
    "oracle-dp-return-words": (
        lambda: word_return_series(asymmetric_kernel(), 1, 12),
        [1.0, 0.0, 0.3138492063492063, 0.04721726190476191, 0.15564973623708742,
         0.04665904549319728, 0.08804205935215428, 0.039462293486193734, 0.0549336650757394,
         0.03183377296508704, 0.03696247563142335, 0.025244009405190327, 0.02629403292811058],
        1.8661475588281515),
}
@pytest.mark.parametrize("name", WORDS_CLI_SERIES)
def test_reference_walks_reproduce_the_words_cli_series(name):
    call, coeffs, total_mass = WORDS_CLI_SERIES[name]
    got = call()
    assert got.tolist() == coeffs
    assert float(got.sum()) == total_mass


# Word-space results at 8 steps, recorded as exact reprs.  Each word's
# probability adds up in a fixed order (words as first reached, arcs as
# ``reference.arcs_from`` lists them), and the G walk sums each law by
# ``math.fsum``, so any change to that order, to the pruning or to the sum
# shows up under ``==``.
WORD_SPACE_RECORD = {
    "asymmetric": {
        "hitting": {
            (1, 2, 1): [0.0, 0.6142857142857143, 0.059722222222222225, 0.03242063492063492,
                        0.011467919343663391, 0.009947851428931362, 0.006694827097115117,
                        0.005715257453465379, 0.004327314982658966],
            (2, 3, -1): [0.0, 0.25, 0.017857142857142856, 0.09959325396825397,
                         0.021732390873015872, 0.04770501307004284, 0.017167436784775086,
                         0.025585634849050725, 0.012567038294837473],
        },
        "return": {
            1: [1.0, 0.0, 0.3138492063492063, 0.04721726190476191, 0.15564973623708742,
                0.04665904549319728, 0.08804205935215428, 0.039462293486193734,
                0.0549336650757394],
            2: [1.0, 0.0, 0.4296230158730159, 0.04721726190476191, 0.21636790162824387,
                0.05330264668367347, 0.1214754669427382, 0.04792765175858462,
                0.07489033270848232],
        },
        "G": {("word", 1.0): 1.99609375, ("word", 0.9): 1.8805498589839649,
              ("fenced", 1.0): 1.99609375, ("fenced", 0.9): 1.8728787877634998},
    },
    "symmetric:4": {
        "hitting": {
            (1, 2, 1): [0.0, 0.16666666666666666, 0.05555555555555555, 0.032407407407407406,
                        0.020061728395061727, 0.01363168724279835, 0.009687928669410149,
                        0.007140917924096935, 0.005402425316262763],
            (2, 3, -1): [0.0, 0.16666666666666666, 0.05555555555555555, 0.032407407407407406,
                         0.020061728395061727, 0.013631687242798354, 0.009687928669410149,
                         0.007140917924096935, 0.005402425316262763],
        },
        "return": {
            i: [1.0, 0.0, 0.16666666666666669, 0.05555555555555555, 0.06018518518518519,
                0.038580246913580245, 0.032150205761316865, 0.02460562414266117,
                0.019979566758116137]
            for i in (1, 2)
        },
        "G": {("word", 1.0): 1.99609375, ("word", 0.9): 1.8663722535318183,
              ("fenced", 1.0): 1.99609375, ("fenced", 0.9): 1.8185979345720895},
    },
}


@pytest.mark.parametrize("name", sorted(WORD_SPACE_RECORD))
def test_word_space_oracles_match_the_record_exactly(name):
    kernel = asymmetric_kernel() if name == "asymmetric" else symmetric_kernel(4)
    record = WORD_SPACE_RECORD[name]
    for target, coeffs in record["hitting"].items():
        assert word_hitting_series(kernel, Arc(*target), 8).tolist() == coeffs
    for i, coeffs in record["return"].items():
        assert word_return_series(kernel, i, 8).tolist() == coeffs
    metrics = {"word": word_metric(kernel.n_windows), "fenced": fenced_metric(kernel.n_windows)}
    for (metric, z), value in record["G"].items():
        assert word_truncated_G(kernel, metrics[metric], 2, 0.5, z, 8) == value


def test_closed_form_symmetric():
    c = closed_form("symmetric", N=3)
    assert c.gamma_word == pytest.approx(0.25)
    assert c.sigma2_word == pytest.approx(11 / 16)
    assert c.gamma_fenced == pytest.approx(1 / 3)
    c6 = closed_form("symmetric", N=6)
    assert c6.gamma_fenced == pytest.approx(7 * 4 / (6 * 5))
    with pytest.raises(ValueError):
        closed_form("symmetric", N=2)


@pytest.mark.parametrize("entry", [lambda n: closed_form("symmetric", N=n),
                                   oracle.closed_form_symmetric],
                         ids=["closed_form", "closed_form_symmetric"])
def test_closed_form_symmetric_takes_a_whole_n_only(entry):
    # int(3.5) would answer for N = 3, and 3.5 itself for no kernel at all.
    with pytest.raises(ValueError, match="3.5 is not a whole number"):
        entry(3.5)
    for n in (4, 4.0, "4"):
        c = entry(n)
        assert c.to_json() == closed_form("symmetric", N=4).to_json()
        assert type(c.params["N"]) is int


def test_closed_form_one_parameter_landmarks():
    c = closed_form("one_parameter", q=0.25)
    assert c.gamma_word == pytest.approx(0.25, abs=1e-14)
    assert c.sigma2_word == pytest.approx(11 / 16, abs=1e-13)
    # the fenced-variance maximum sits near q = 0.00205319 at 2.01584
    cmax = closed_form_one_parameter(0.00205319)
    assert cmax.sigma2_fenced == pytest.approx(2.01584, abs=5e-6)
    with pytest.raises(ValueError):
        closed_form("one_parameter", q=0.5)


def test_closed_form_asymmetric_table():
    c = closed_form("asymmetric")
    assert c.gamma_word == 0.272913
    assert c.sigma2_fenced == 0.916276
    assert len(c.r_values) == 12


@pytest.mark.parametrize("family, params", [("symmetric", {"N": 5}), ("asymmetric", {}),
                                            ("one_parameter", {"q": 0.1})])
def test_closed_form_constants_by_metric_name(family, params):
    c = closed_form(family, **params)
    assert c.constants("word") == (c.gamma_word, c.sigma2_word)
    assert c.constants("fenced") == (c.gamma_fenced, c.sigma2_fenced)
    assert c.constants("custom") is None


def test_unknown_family():
    with pytest.raises(ValueError):
        closed_form("mystery")


def test_convolution_above_its_work_cap_is_refused_before_the_table(monkeypatch):
    # The tests run the convolution to at most 60 steps at N = 20.
    assert oracle.CONVOLUTION_WORK_CAP >= 100 * 60**2 * 20**2
    # A table of 134 GiB: refused, not left to numpy's allocation failure.
    with pytest.raises(ValueError, match=r"a 144000000144-byte table with work max_steps\^2 N\^2 "
                                         r"= 9000000000000000000, above the cap"):
        dp_hitting_series(symmetric_kernel(3), Arc(1, 2, 1), 10**9)
    monkeypatch.setattr(oracle, "CONVOLUTION_WORK_CAP", 40**2 * 3**2)
    assert len(dp_return_series(symmetric_kernel(3), 1, 40)) == 41
    with pytest.raises(ValueError, match="at N=3 fills a 6048-byte table with work "
                                         r"max_steps\^2 N\^2 = 15129, above the cap 14400"):
        dp_return_series(symmetric_kernel(3), 1, 41)
    with pytest.raises(ValueError, match=r"max_steps\^2 N\^2 = 15129, above the cap 14400"):
        dp_truncated_G(symmetric_kernel(3), word_metric(3), 1, 0.5, 0.9, 41)
