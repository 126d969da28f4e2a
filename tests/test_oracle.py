"""Dynamic-programming oracles and closed-form example families."""

import numpy as np
import pytest

from windwalk import oracle
from windwalk.chain import asymmetric_kernel, one_parameter_kernel, symmetric_kernel
from windwalk.groupoid import (Arc, Word, arc_entry, compose, fenced_metric, inverse,
                               word_metric)
from windwalk.oracle import (
    StateSpaceExceeded,
    closed_form,
    closed_form_one_parameter,
    dp_hitting_series,
    dp_return_series,
    dp_truncated_G,
    hitting_step_probabilities,
)
from windwalk.solver import solve_r

from helpers import dirichlet_kernel, symmetric3_hitting_root
from reference import (IndexMap, hitting_law_floor, series_eval, word_hitting_series,
                       word_return_series)


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


def test_truncated_g_geometric_at_z_one():
    k = asymmetric_kernel()
    for m in (0, 5, 12):
        g = dp_truncated_G(k, word_metric(3), 1, 0.5, 1.0, m)
        assert g == pytest.approx((1 - 0.5 ** (m + 1)) / 0.5, rel=1e-13)


def test_truncated_g_monotone_and_tail_bounded():
    k = symmetric_kernel(3)
    m = word_metric(3)
    lo = dp_truncated_G(k, m, 1, 0.5, 0.9, 10)
    hi = dp_truncated_G(k, m, 1, 0.5, 0.9, 14)
    assert hi >= lo
    assert hi - lo <= 0.5**11 / 0.5


def test_truncated_g_domain():
    k = symmetric_kernel(3)
    with pytest.raises(ValueError):
        dp_truncated_G(k, word_metric(3), 1, 1.0, 0.9, 5)
    with pytest.raises(ValueError):
        dp_truncated_G(k, word_metric(3), 1, 0.5, 0.0, 5)


@pytest.mark.parametrize("call, cap, count", [
    (lambda: dp_truncated_G(symmetric_kernel(3), word_metric(3), 1, 0.5, 0.9, 30), 1000, 1021),
    (lambda: word_hitting_series(symmetric_kernel(3), Arc(1, 2, 1), 40), 50, 90),
    (lambda: word_return_series(symmetric_kernel(3), 1, 40), 50, 61),
], ids=["G", "hitting", "return"])
def test_state_cap_guard(monkeypatch, call, cap, count):
    # The count is that of the first step whose kept words exceed the cap.
    monkeypatch.setattr(oracle, "DEFAULT_STATE_CAP", cap)
    with pytest.raises(StateSpaceExceeded) as info:
        call()
    assert info.value.count == count


@pytest.mark.parametrize("kernel, steps", [
    (asymmetric_kernel(), 11), (symmetric_kernel(4), 7), (symmetric_kernel(5), 6),
], ids=["asymmetric", "symmetric:4", "symmetric:5"])
def test_law_sizes_are_the_reduced_word_counts(kernel, steps):
    # The return walk to horizon M keeps the words of length at most
    # min(m, M - m) at step m, and the G walk those of length at most m.
    n = kernel.n_windows
    for horizon in range(1, steps + 1):
        sizes = [oracle._law_size(n, m, min(m, horizon - m)) for m in range(1, horizon + 1)]
        laws = oracle._word_laws(kernel, 1, horizon, lambda m: sizes[m - 1],
                                 lambda m, word: len(word) <= horizon - m)
        assert [len(law) for law in laws] == sizes
    sizes = [oracle._law_size(n, m, m) for m in range(1, steps + 1)]
    laws = oracle._word_laws(kernel, 2, steps, lambda m: sizes[m - 1])
    assert [len(law) for law in laws] == sizes


def test_whole_word_balls_are_refused_before_the_first_step(monkeypatch):
    # At the default cap and horizon, the law passes the cap at step 18: the
    # running count stepped there for about 50 s before it refused.
    def step(*args):
        raise AssertionError("the word laws were stepped")

    monkeypatch.setattr(oracle, "append", step)
    kernel = symmetric_kernel(3)
    for call in (lambda: word_return_series(kernel, 1, 40),
                 lambda: dp_truncated_G(kernel, word_metric(3), 1, 0.5, 1.0, 40)):
        with pytest.raises(StateSpaceExceeded) as info:
            call()
        assert (info.value.count, info.value.cap) == (2**20 - 3, oracle.DEFAULT_STATE_CAP)


@pytest.mark.parametrize("cap, count, stepped", [(26, 30, True), (25, 26, False)],
                         ids=["count", "floor"])
def test_hitting_walk_refuses_by_its_count_where_the_floor_passes(monkeypatch, cap, count,
                                                                  stepped):
    # Toward (1,2,+) on asymmetric at horizon 8 the floors peak at 26, and
    # the law after step 4 holds 30 words: at cap 26 only the count after a
    # step refuses the walk, and at cap 25 the floor does before any step.
    def step(*args):
        raise AssertionError("the word laws were stepped")

    monkeypatch.setattr(oracle, "DEFAULT_STATE_CAP", cap)
    if not stepped:
        monkeypatch.setattr(oracle, "append", step)
    with pytest.raises(StateSpaceExceeded,
                       match=f"^word-state count {count} exceeds the cap {cap}$"):
        word_hitting_series(asymmetric_kernel(), Arc(1, 2, 1), 8)


# What ``oracle-dp --method words`` printed before the hitting and return
# series kept one route: the coefficients with their total mass, or the
# refusal at the cap (None: the default).  The walks live on as the tests'
# reference.
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
WORDS_CLI_REFUSALS = {
    "oracle-dp-hitting-words-refused": (
        lambda: word_hitting_series(symmetric_kernel(3), Arc(1, 2, 1), 40), 50,
        "word-state count 90 exceeds the cap 50"),
    "oracle-dp-return-words-refused": (
        lambda: word_return_series(symmetric_kernel(3), 1, 40), 50,
        "word-state count 61 exceeds the cap 50"),
    "oracle-dp-hitting-words-refused-mid-walk": (
        lambda: word_hitting_series(asymmetric_kernel(), Arc(1, 2, 1), 8), 26,
        "word-state count 30 exceeds the cap 26"),
    "oracle-dp-hitting-words-default": (
        lambda: word_hitting_series(symmetric_kernel(3), Arc(1, 2, 1), 40), None,
        "word-state count 1572858 exceeds the cap 800000"),
    "oracle-dp-return-words-default": (
        lambda: word_return_series(symmetric_kernel(3), 1, 40), None,
        "word-state count 1048573 exceeds the cap 800000"),
}


@pytest.mark.parametrize("name", WORDS_CLI_SERIES)
def test_reference_walks_reproduce_the_words_cli_series(name):
    call, coeffs, total_mass = WORDS_CLI_SERIES[name]
    got = call()
    assert got.tolist() == coeffs
    assert float(got.sum()) == total_mass


@pytest.mark.parametrize("name", WORDS_CLI_REFUSALS)
def test_reference_walks_reproduce_the_words_cli_refusals(monkeypatch, name):
    call, cap, message = WORDS_CLI_REFUSALS[name]
    if cap is not None:
        monkeypatch.setattr(oracle, "DEFAULT_STATE_CAP", cap)
    with pytest.raises(StateSpaceExceeded) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n, horizon", [(3, 12), (4, 8), (5, 6)])
@pytest.mark.parametrize("target", [Arc(1, 2, 1), Arc(2, 3, -1)], ids=str)
def test_hitting_law_floor_is_below_the_true_sizes(n, horizon, target):
    # The floor counts the words of length 2 and more that the walk must
    # hold; the rest of a law is its unit and its one-letter words.
    kernel = dirichlet_kernel(n, 1.0, seed=n)
    target_word = Word(target.i, (target,))
    for m_max in range(1, horizon + 1):
        laws = oracle._word_laws(
            kernel, target.i, m_max, lambda m: hitting_law_floor(n, m, m_max),
            lambda m, word: m + len(compose(inverse(word), target_word)) <= m_max)
        for m, law in enumerate(laws, start=1):
            law.pop(target_word, None)
            floor = hitting_law_floor(n, m, m_max)
            assert len(law) - 2 * (n - 1) <= floor <= len(law), (m_max, m)


# Word-space results at 8 steps, recorded as exact reprs.  Each law is summed
# in a fixed order (words as first reached, arcs as ``arcs_from`` lists them),
# so any change to that order or to the pruning shows up under ``==``.
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
        "G": {("word", 1.0): 1.9960937499999982, ("word", 0.9): 1.866372253531822,
              ("fenced", 1.0): 1.9960937499999982, ("fenced", 0.9): 1.81859793457209},
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
        assert dp_truncated_G(kernel, metrics[metric], 2, 0.5, z, 8) == value


def test_closed_form_symmetric():
    c = closed_form("symmetric", N=3)
    assert c.gamma_word == pytest.approx(0.25)
    assert c.sigma2_word == pytest.approx(11 / 16)
    assert c.gamma_fenced == pytest.approx(1 / 3)
    c6 = closed_form("symmetric", N=6)
    assert c6.gamma_fenced == pytest.approx(7 * 4 / (6 * 5))
    with pytest.raises(ValueError):
        closed_form("symmetric", N=2)


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
