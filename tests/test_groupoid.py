"""Word algebra: reduction, composition laws, metrics, parsing."""

import re

import numpy as np
import pytest

from windwalk.chain import asymmetric_kernel, simulate, symmetric_kernel
from windwalk.groupoid import (
    Arc,
    CompositionError,
    Metric,
    Word,
    append,
    chamber_array,
    compose,
    custom_metric,
    fenced_metric,
    inverse,
    metric_length,
    unit,
    word_from_str,
    word_metric,
)

from helpers import random_word
from reference import arc_entry


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(2, 2, 1)
    with pytest.raises(ValueError):
        Arc(0, 1, 1)
    with pytest.raises(ValueError):
        Arc(1, 2, 0)


def test_word_invariants_enforced():
    # not chained
    with pytest.raises(ValueError):
        Word(1, (Arc(1, 2, 1), Arc(3, 1, -1)))
    # sign alternation broken
    with pytest.raises(ValueError):
        Word(1, (Arc(1, 2, 1), Arc(2, 3, 1)))
    # wrong source
    with pytest.raises(ValueError):
        Word(2, (Arc(1, 2, 1),))


def test_append_cases():
    w = unit(1)
    w = append(w, Arc(1, 2, 1))
    assert w.letters == (Arc(1, 2, 1),)
    # opposite sign: plain push
    w2 = append(w, Arc(2, 3, -1))
    assert len(w2) == 2
    # same sign, same source: cancellation back to the unit
    assert append(w, Arc(2, 1, 1)) == unit(1)
    # same sign, new target: merge
    assert append(w, Arc(2, 3, 1)) == Word(1, (Arc(1, 3, 1),))


def test_append_endpoint_mismatch():
    with pytest.raises(CompositionError):
        append(unit(1), Arc(2, 3, 1))


def test_compose_endpoint_mismatch():
    with pytest.raises(CompositionError, match="target 1 of the left word differs from source 2"):
        compose(unit(1), unit(2))


def test_units_at_distinct_windows_differ():
    assert unit(1) != unit(2)
    assert unit(3).target == 3


def test_compose_cancellation_then_merge():
    left = word_from_str("A(1,2,+)A(2,5,-)")
    right = word_from_str("A(5,2,-)A(2,3,+)")
    assert compose(left, right) == word_from_str("A(1,3,+)")


def test_compose_inverse_roundtrip():
    w = word_from_str("A(1,2,+)A(2,5,-)A(5,1,+)")
    assert compose(w, inverse(w)) == unit(1)
    assert compose(inverse(w), w) == unit(w.target)


def test_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = random_word(rng, 5)
        b = random_word(rng, 5, source=a.target)
        c = random_word(rng, 5, source=b.target)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_metrics():
    wm = word_metric(4)
    fm = fenced_metric(4)
    w = word_from_str("A(1,4,+)A(4,2,-)")
    assert metric_length(w, wm) == 2
    assert metric_length(w, fm) == 3 + 2
    assert metric_length(unit(2), fm) == 0


@pytest.mark.parametrize("metric", [
    word_metric(4),
    fenced_metric(4),
    custom_metric(4, {(1, 2, 1): 2.5, (3, 1, -1): 0.75, (2, 2, 1): 9.0}),
], ids=["word", "fenced", "custom"])
def test_weight_array_matches_metric(metric):
    w = metric.W
    assert w.shape == (2, 4, 4)
    for i in range(1, 5):
        for j in range(1, 5):
            for s, k in enumerate((1, -1)):
                want = 0.0 if i == j else arc_entry(metric.W, i, j, k)
                assert w[s, i - 1, j - 1] == want
    if metric.name == "custom":
        assert w[0, 0, 1] == 2.5 and w[1, 2, 0] == 0.75 and w[0, 1, 1] == 0.0


@pytest.mark.parametrize("key", [(1, 2, 2), (1, 9, 1), (0, 1, 1), (1, 2, 0)])
def test_custom_metric_rejects_keys_that_name_no_arc(key):
    with pytest.raises(ValueError, match=f"entry 1, {re.escape(str(key))}, names no arc"):
        custom_metric(3, {(2, 1, 1): 1.0, key: 5.0})


@pytest.mark.parametrize("key", [(1, 2, 1), (2, 1, -1)])
def test_custom_metric_rejects_negative(key):
    with pytest.raises(ValueError) as err:
        custom_metric(3, {key: -0.5})
    assert str(err.value) == f"negative weight -0.5 for arc {key}"


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_custom_metric_rejects_non_finite(weight):
    with pytest.raises(ValueError, match="is not finite"):
        custom_metric(3, {(1, 2, 1): weight})


@pytest.mark.parametrize("shape", [(), (3, 3), (3, 3, 3), (2, 3, 4), (2, 2, 3, 3)], ids=str)
def test_metric_of_another_shape_is_value_error(shape):
    with pytest.raises(ValueError) as err:
        Metric("flat", np.ones(shape))
    assert str(err.value) == f"metric 'flat' weights must have shape (2, N, N), got {shape}"


def _chamber_array_reference(table, n):
    out = np.zeros((2, n, n))
    for (i, j, k), value in table.items():
        if i != j:
            out[(1 - k) // 2, i - 1, j - 1] = value
    return out


def _arc_table(array):
    """The arcs of a (2, N, N) array as a table keyed by (i, j, k)."""
    n = array.shape[-1]
    return {(i, j, k): array[s, i - 1, j - 1].item()
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j
            for s, k in enumerate((1, -1))}


def _shuffled(table, seed):
    items = list(table.items())
    order = np.random.default_rng(seed).permutation(len(items))
    return {items[n][0]: items[n][1] for n in order}


CHAMBER_TABLES = [
    ("empty", {}, 3),
    ("diagonal-keys", {(1, 1, 1): 9.0, (2, 2, -1): 7.0, (1, 3, -1): 0.5, (3, 2, 1): 1.5}, 3),
    ("shuffled", _shuffled(_arc_table(fenced_metric(5).W), seed=5), 5),
    ("partial-custom", {(2, 1, 1): 0.25, (3, 1, -1): 0.75, (1, 4, 1): 3.0}, 4),
] + [
    (f"{name}-{n}", table_of(n), n)
    for n in (3, 33)
    for name, table_of in (("word", lambda n: _arc_table(word_metric(n).W)),
                           ("fenced", lambda n: _arc_table(fenced_metric(n).W)),
                           ("kernel", lambda n: _arc_table(symmetric_kernel(n).P)))
]


@pytest.mark.parametrize("table, n", [(table, n) for _, table, n in CHAMBER_TABLES],
                         ids=[name for name, _, _ in CHAMBER_TABLES])
def test_chamber_array_matches_loop_reference(table, n):
    got, given = chamber_array(table, n)
    assert got.shape == (2, n, n)
    assert np.array_equal(got, _chamber_array_reference(table, n))
    assert sorted(zip(*np.nonzero(given))) == sorted(
        ((1 - k) // 2, i - 1, j - 1) for i, j, k in table)


def test_parser_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        w = random_word(rng, 6)
        assert word_from_str(str(w)) == w
    with pytest.raises(ValueError):
        word_from_str("A(1,2,*)")
    with pytest.raises(ValueError):
        word_from_str("")


def test_metric_length_additive_under_append():
    fm = fenced_metric(5)
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = random_word(rng, 5)
        i = w.target
        j = int(rng.choice([x for x in range(1, 6) if x != i]))
        g = Arc(i, j, int(rng.choice([1, -1])))
        before = metric_length(w, fm)
        after = metric_length(append(w, g), fm)
        # any single append changes the word length by -1, 0 or +1
        assert abs(len(append(w, g)) - len(w)) <= 1
        assert np.isfinite(after) and after >= 0
        assert isinstance(before, float)


def test_equal_words_from_different_routes_hash_equal():
    # Words equal by value must hash equal however they were built, before
    # and after the first call.
    text = "A(1,3,+)A(3,2,-)A(2,4,+)"
    parsed = word_from_str(text)
    grown = unit(1)
    for arc in (Arc(1, 2, 1), Arc(2, 3, 1), Arc(3, 2, -1), Arc(2, 4, 1)):
        grown = append(grown, arc)
    composed = compose(word_from_str("A(1,3,+)"), word_from_str("A(3,2,-)A(2,4,+)"))
    direct = Word(1, (Arc(1, 3, 1), Arc(3, 2, -1), Arc(2, 4, 1)))
    hash(parsed)
    for word in (grown, composed, direct):
        assert word == parsed
        assert hash(word) == hash(parsed) == hash((1, parsed.letters))
    assert len({parsed, grown, composed, direct}) == 1
    assert {parsed: 1.0}[grown] == 1.0


def test_word_and_metric_hold_only_their_fields():
    # Hashing, measuring and simulating leave no cache on either object.
    word = word_from_str("A(1,2,+)A(2,3,-)A(3,1,+)")
    metric = fenced_metric(3)
    hash(word)
    assert metric_length(word, metric) == 4.0
    traj = simulate(word, asymmetric_kernel(), 20, seed=3, metric=metric)
    assert traj.metric_lens[0] == 4.0
    assert set(vars(word)) == {"source", "letters"}
    assert set(vars(metric)) == {"name", "W"}
    assert hash(word) == hash((word.source, word.letters))


def test_metric_length_adds_weights_left_to_right():
    # Weights with no exact binary sum: the length must be the bits of the
    # left-to-right sum of the per-letter weights, from 0.
    rng = np.random.default_rng(11)
    n = 5
    metric = custom_metric(n, {(i, j, k): float(rng.uniform(0.1, 3.0)) / 3.0
                               for i in range(1, n + 1) for j in range(1, n + 1) for k in (1, -1)
                               if i != j})
    for _ in range(200):
        w = random_word(rng, n, max_len=30)
        want = 0
        for arc in w.letters:
            want += arc_entry(metric.W, arc.i, arc.j, arc.k)
        assert metric_length(w, metric).hex() == float(want).hex()


def test_metric_length_refuses_a_letter_past_the_metric():
    w = append(unit(1), Arc(1, 4, -1))
    with pytest.raises(KeyError, match=r"\(1, 4, -1\)"):
        metric_length(w, word_metric(3))
    assert metric_length(w, word_metric(4)) == 1.0
