"""Kernel validation, stepping statistics, determinism, hitting times."""

import cProfile
import inspect
import re
import tracemalloc
import warnings
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windwalk import _stepper
from windwalk._stepper import _BatchState, _RewriteTables, _spawn_generators
from windwalk.chain import (
    ASYMMETRIC_PROBS,
    ROW_SUM_TOL,
    KernelError,
    TransitionKernel,
    _row_blocks,
    asymmetric_kernel,
    kernel_to_json,
    one_parameter_kernel,
    run_length_paths,
    simulate,
    symmetric_kernel,
    validate_kernel,
)
from windwalk.groupoid import (Arc, Metric, Word, append, chamber_array, custom_metric,
                               fenced_metric, metric_length, unit, word_metric)
from windwalk.groupoid import word_from_str
from windwalk.limits import compute_limits
from windwalk.montecarlo import verify_clt, verify_lln
from windwalk.oracle import (dp_hitting_series, dp_return_series, dp_truncated_G,
                             hitting_step_probabilities)

from helpers import dirichlet_kernel, symmetric3_hitting_root
from reference import (Replay, arc_entry, arcs_from, batch_top, sample_hitting_times,
                       word_hitting_series)


def test_symmetric_kernel_valid():
    k = symmetric_kernel(5)
    assert arc_entry(k.P, 1, 2, 1) == pytest.approx(1 / 8)
    row = sum(arc_entry(k.P, 3, j, s) for j in range(1, 6) if j != 3 for s in (1, -1))
    assert row == pytest.approx(1.0)


def test_one_parameter_bounds():
    one_parameter_kernel(0.25)
    with pytest.raises(KernelError):
        one_parameter_kernel(0.5)
    with pytest.raises(KernelError):
        one_parameter_kernel(0.0)


def test_asymmetric_rows_sum_to_one():
    k = asymmetric_kernel()
    for i in (1, 2, 3):
        row = sum(arc_entry(k.P, i, j, s) for j in (1, 2, 3) if j != i for s in (1, -1))
        assert row == pytest.approx(1.0, abs=1e-15)


def test_asymmetric_probs_are_the_nearest_floats_of_their_rationals():
    # The values are quotients n / d; each is float(Fraction(n, d)), and the
    # kernel's array holds the bits it held when they were Fractions.
    published = {
        (2, 1, 1): (17, 40), (2, 3, 1): (1, 5), (2, 1, -1): (1, 8), (2, 3, -1): (1, 4),
        (1, 2, 1): (43, 70), (3, 2, 1): (43, 72), (1, 2, -1): (1, 7), (3, 2, -1): (1, 8),
        (1, 3, 1): (1, 10), (3, 1, 1): (1, 9), (1, 3, -1): (1, 7), (3, 1, -1): (1, 6),
    }
    assert ASYMMETRIC_PROBS.keys() == published.keys()
    for arc, (n, d) in published.items():
        assert type(ASYMMETRIC_PROBS[arc]) is float
        assert ASYMMETRIC_PROBS[arc] == float(Fraction(n, d)), arc
    hexes = ["0x0.0p+0", "0x1.3a83a83a83a84p-1", "0x1.999999999999ap-4", "0x1.b333333333333p-2",
             "0x0.0p+0", "0x1.999999999999ap-3", "0x1.c71c71c71c71cp-4", "0x1.31c71c71c71c7p-1",
             "0x0.0p+0", "0x0.0p+0", "0x1.2492492492492p-3", "0x1.2492492492492p-3",
             "0x1.0000000000000p-3", "0x0.0p+0", "0x1.0000000000000p-2", "0x1.5555555555555p-3",
             "0x1.0000000000000p-3", "0x0.0p+0"]
    assert asymmetric_kernel().P.ravel().tolist() == list(map(float.fromhex, hexes))


def test_chain_entries_are_the_names_the_tracer_patches():
    # perfbench's tracer patches every module attribute that is
    # `chain.run_length_paths` and binds its `n_paths` and `n_steps` by name;
    # the entries stay in `chain` while their bodies live in `_stepper`.
    import windwalk
    from windwalk import chain, montecarlo

    assert montecarlo.run_length_paths is chain.run_length_paths
    assert windwalk.simulate is chain.simulate
    call = inspect.signature(chain.run_length_paths).bind(
        asymmetric_kernel(), word_metric(3), n_steps=5, n_paths=2, seed=0).arguments
    assert (call["n_steps"], call["n_paths"]) == (5, 2)


def test_validation_collects_all_violations():
    p = {(i, j, k): 1 / 8 for i in range(1, 4) for j in range(1, 4) if i != j for k in (1, -1)}
    p[(1, 2, 1)] = 0.99  # breaks both the range-by-row-sum and nothing else
    del p[(2, 3, -1)]
    with pytest.raises(KernelError) as err:
        validate_kernel({"N": 3, "p": [
            {"i": i, "j": j, "k": k, "value": v} for (i, j, k), v in p.items()
        ]})
    text = "; ".join(err.value.violations)
    assert "missing" in text and "sums to" in text


def test_probability_one_rejected():
    p = {(i, j, k): 1e-12 for i in range(1, 4) for j in range(1, 4) if i != j for k in (1, -1)}
    p[(1, 2, 1)] = 1.0
    with pytest.raises(KernelError) as err:
        validate_kernel({"N": 3, "p": [
            {"i": i, "j": j, "k": k, "value": v} for (i, j, k), v in p.items()
        ]})
    assert any("outside (0, 1)" in v for v in err.value.violations)


def test_probability_zero_rejected():
    # The open interval's lower end: the row still sums to 1, so the zero
    # arc is the one refusal.
    P = np.array(symmetric_kernel(3).P)
    P[0, 0, 1], P[1, 0, 1] = 0.0, 0.5
    with pytest.raises(KernelError) as err:
        TransitionKernel(P)
    assert err.value.violations == ["probability 0.0 for arc (1,2,+1) outside (0, 1)"]


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_one_parameter_q_is_refused_at_both_ends(q):
    # The family's own check names q before the kernel refuses the zero arc
    # that either end makes.
    with pytest.raises(KernelError) as err:
        one_parameter_kernel(q)
    assert err.value.violations == [f"one-parameter q must lie in (0, 1/2), got {q}"]


def test_array_kernel_names_every_violated_arc():
    # An explicit NaN is a value outside (0, 1), not a missing arc; an arc
    # outside ``given`` is missing; a diagonal entry is a degenerate arc.
    P = np.array(symmetric_kernel(3).P)
    P[0, 0, 1], P[1, 2, 0], P[1, 1, 1] = np.nan, 0.0, 0.5
    given = np.broadcast_to(~np.eye(3, dtype=bool), (2, 3, 3)).copy()
    given[1, 2, 0] = False
    with pytest.raises(KernelError) as err:
        TransitionKernel(P, given=given)
    assert err.value.violations == [
        "probability nan for arc (1,2,+1) outside (0, 1)",
        "missing probability for arc (3,1,-1)",
        "row for window 3 sums to 0.75 (deficit +2.500e-01)",
        "entries for degenerate arcs not allowed: [(2, 2, -1)]",
    ]


@pytest.mark.parametrize("delta, refusal", [
    (9e-13, None),
    (1.1e-12, "row for window 1 sums to 1.0000000000011 (deficit -1.100e-12)"),
])
def test_row_sum_tolerance_is_1e_minus_12(delta, refusal):
    # Either side of ROW_SUM_TOL: a tolerance ten times larger would take the
    # second row, and one ten times smaller would refuse the first.
    P = np.array(symmetric_kernel(3).P)
    P[0, 0, 1] += delta
    if refusal is None:
        TransitionKernel(P)
    else:
        with pytest.raises(KernelError) as err:
            TransitionKernel(P)
        assert err.value.violations == [refusal]


def _violations_reference(n, p):
    """Kernel validation as a plain loop over a dict of arcs."""
    violations = []
    for i in range(1, n + 1):
        row = 0.0
        for j in range(1, n + 1):
            for k in (1, -1):
                if i == j:
                    continue
                if (i, j, k) not in p:
                    violations.append(f"missing probability for arc ({i},{j},{k:+d})")
                    continue
                value = p[(i, j, k)]
                if not (0.0 < value < 1.0):
                    violations.append(
                        f"probability {value} for arc ({i},{j},{k:+d}) outside (0, 1)")
                row += value
        if abs(row - 1.0) > ROW_SUM_TOL:
            violations.append(f"row for window {i} sums to {row!r} (deficit {1.0 - row:+.3e})")
    extra = sorted(key for key in p if key[0] == key[1])
    if extra:
        violations.append(f"entries for degenerate arcs not allowed: {extra}")
    return violations


@pytest.mark.parametrize("n, seed", [(3, 0), (5, 1), (8, 2), (300, 3)])
def test_array_validation_matches_loop_reference(n, seed):
    # Rows summed in another order would differ in the last bits of the
    # printed sum and could flip a row across ROW_SUM_TOL.  At N=300 the
    # windows are validated in two blocks, and the broken arcs fall in both.
    rng = np.random.default_rng(seed)
    k = dirichlet_kernel(n, 1.0, seed=seed)
    p = {(e["i"], e["j"], e["k"]): e["value"] for e in kernel_to_json(k)["p"]}
    arcs = list(p)
    for index in rng.choice(len(arcs), size=3, replace=False):
        p[arcs[index]] *= 1.0 + 1e-11 * rng.standard_normal()
    del p[arcs[-1]]
    p[arcs[0]], p[arcs[1]] = float("nan"), 1.25
    p[(2, 2, -1)] = 0.1
    entries = [{"i": i, "j": j, "k": s, "value": v} for (i, j, s), v in p.items()]
    with pytest.raises(KernelError) as err:
        validate_kernel({"N": n, "p": entries})
    assert err.value.violations == _violations_reference(n, p)


def test_n_windows_minimum():
    with pytest.raises(KernelError):
        symmetric_kernel(2)


@pytest.mark.parametrize("shape", [(), (3, 3), (3, 3, 3), (2, 3, 4), (2, 2, 3, 3)], ids=str)
def test_kernel_array_of_another_shape_is_named(shape):
    with pytest.raises(KernelError) as err:
        TransitionKernel(np.full(shape, 0.25))
    assert err.value.violations == [f"the chamber array must have shape (2, N, N), got {shape}"]


def test_kernel_json_roundtrip():
    k = asymmetric_kernel()
    k2 = validate_kernel(kernel_to_json(k))
    assert np.array_equal(k2.P, k.P)


def test_step_frequencies_uniform():
    k = symmetric_kernel(3)
    arc_rows, _ = _RewriteTables(3).rows(k.P, word_metric(3))
    sums = arc_rows[1][3]
    rng = np.random.default_rng(42)
    counts = {}
    n = 4000
    for _ in range(n):
        arc = arcs_from(k, 1)[bisect_left(sums, rng.random())][0]
        counts[arc] = counts.get(arc, 0) + 1
    p = 1 / 4
    se = np.sqrt(p * (1 - p) / n)
    for arc, c in counts.items():
        assert abs(c / n - p) < 3 * se, arc


def test_simulate_streaming_matches_replayed_words():
    # The replay draws the same uniforms through its own arc sums and
    # rewrites each word with groupoid.append.
    k = asymmetric_kernel()
    fm = fenced_metric(3)
    traj = simulate(unit(2), k, 300, seed=9, metric=fm)
    words = list(Replay(k).words(unit(2), 300, seed=9))
    assert len(words) == len(traj.word_lens) == 301
    for n, w in enumerate(words):
        assert traj.word_lens[n] == len(w)
        assert traj.metric_lens[n] == pytest.approx(metric_length(w, fm))
    assert words[-1] == traj.final


def test_simulate_deterministic():
    k = symmetric_kernel(4)
    a = simulate(unit(1), k, 500, seed=77)
    b = simulate(unit(1), k, 500, seed=77)
    c = simulate(unit(1), k, 500, seed=78)
    assert np.array_equal(a.word_lens, b.word_lens)
    assert not np.array_equal(a.word_lens, c.word_lens)


def test_simulate_from_nontrivial_word():
    k = symmetric_kernel(3)
    start = Word(1, (Arc(1, 2, 1), Arc(2, 3, -1)))
    traj = simulate(start, k, 50, seed=1)
    assert traj.word_lens[0] == 2
    assert traj.final.source == 1


def test_run_length_paths_deterministic_and_per_path_seeded():
    k = symmetric_kernel(3)
    wm = word_metric(3)
    w1, m1 = run_length_paths(k, wm, 200, 40, seed=5)
    w2, m2 = run_length_paths(k, wm, 200, 40, seed=5)
    assert np.array_equal(w1, w2) and np.array_equal(m1, m2)
    # the first paths depend only on (seed, path index), not on n_paths
    w3, _ = run_length_paths(k, wm, 200, 10, seed=5)
    assert np.array_equal(w1[:10], w3)


def test_batch_matches_scalar_simulation():
    # the vectorised stepper and the scalar one consume the same per-path
    # child streams, so their length traces must coincide
    k = asymmetric_kernel()
    wm = word_metric(3)
    n_steps, n_paths = 150, 8
    wl, ml = run_length_paths(k, wm, n_steps, n_paths, seed=21)
    children = np.random.SeedSequence(21).spawn(n_paths)
    for p in range(n_paths):
        traj = simulate(unit(1), k, n_steps, seed=children[p])
        assert wl[p] == traj.word_lens[-1]
        assert ml[p] == pytest.approx(traj.metric_lens[-1])


def test_hitting_time_expectation_matches_generating_function():
    # E[lam^T] (censored contributions vanish) equals the solved R at lam
    k = symmetric_kernel(3)
    lam = 0.9
    root = symmetric3_hitting_root(lam)
    times = sample_hitting_times(Arc(1, 2, 1), k, cap=300, seed=123, n_samples=6000)
    vals = np.where(times > 0, lam ** np.where(times > 0, times, 1), 0.0)
    est = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(est - root) < 4 * se


def test_hitting_time_censoring():
    k = symmetric_kernel(3)
    (one,) = sample_hitting_times(Arc(1, 2, 1), k, cap=1, seed=3, n_samples=1)
    assert one in (-1, 1)
    many = sample_hitting_times(Arc(1, 2, 1), k, cap=2000, seed=8, n_samples=500)
    # transient chain: a positive fraction of paths never hits
    assert (many == -1).any()
    assert (many[many > 0] >= 1).all()


def test_zero_hitting_samples_take_no_step(monkeypatch):
    # With no path to run there is nothing to step, however long the cap.
    def advance(self):
        raise AssertionError("a batch of no paths was stepped")

    monkeypatch.setattr(_BatchState, "advance", advance)
    times = sample_hitting_times(Arc(1, 2, 1), symmetric_kernel(3), cap=10**6, seed=0, n_samples=0)
    assert times.dtype == np.int64 and times.shape == (0,)


def _first_hits(kernel, target, cap, seeds):
    """Per seed, the first n in 1..cap at which the replayed scalar chain
    from unit(target.i) is the one-letter word ``target``, or -1."""
    replay, goal = Replay(kernel), Word(target.i, (target,))
    return [next((n for n, w in enumerate(replay.words(unit(target.i), cap, seed))
                  if n and w == goal), -1) for seed in seeds]


@pytest.mark.parametrize("kernel", [
    asymmetric_kernel(), one_parameter_kernel(0.01), symmetric_kernel(5), symmetric_kernel(9),
], ids=["asymmetric", "one_parameter:0.01", "symmetric:5", "symmetric:9"])
@pytest.mark.parametrize("initial", ["e1", "e2", "A(1,2,+)A(2,3,-)"])
def test_batch_equals_scalar_exactly(kernel, initial):
    # Same child streams, so every path's final word length and fenced metric
    # length equal the scalar chain's to the last bit.  600 steps take some
    # paths past the first stack capacity of 64 letters.  At N=9 the stack
    # codes run to 380 and no longer fit one byte.
    start = word_from_str(initial)
    fm = fenced_metric(kernel.n_windows)
    n_steps, n_paths = 600, 6
    wl, ml = run_length_paths(kernel, fm, n_steps, n_paths, seed=17, initial=start)
    assert wl.max() > 64
    children = np.random.SeedSequence(17).spawn(n_paths)
    for p in range(n_paths):
        traj = simulate(start, kernel, n_steps, seed=children[p], metric=fm)
        assert wl[p] == traj.word_lens[-1] == len(traj.final)
        assert ml[p] == traj.metric_lens[-1]


def test_batch_metric_is_metric_length_of_final_word():
    # Weights with no short binary form: a running sum of per-step changes
    # drifts from the sum over the final word in the last bits, and the
    # batch must return the latter, as groupoid.metric_length adds it.
    k = asymmetric_kernel()
    arcs = sorted((i, j, s) for i in (1, 2, 3) for j in (1, 2, 3) if i != j for s in (1, -1))
    m = custom_metric(3, {arc: (0.1, 0.7, 1.3, 0.3)[n % 4] for n, arc in enumerate(arcs)})
    start = word_from_str("A(1,2,+)A(2,3,-)")
    n_steps, n_paths = 2000, 8
    wl, ml = run_length_paths(k, m, n_steps, n_paths, seed=4, initial=start)
    children = np.random.SeedSequence(4).spawn(n_paths)
    for p in range(n_paths):
        traj = simulate(start, k, n_steps, seed=children[p], metric=m)
        assert wl[p] == len(traj.final)
        assert ml[p] == metric_length(traj.final, m)


def _one_letter_per_step_kernel():
    # The favoured arcs alternate in sign round the cycle 1 2 3 4, so the
    # word grows by one letter on almost every step.
    favoured = {(1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 1, -1)}
    p = {(i, j, k): 1 - 5e-9 if (i, j, k) in favoured else 1e-9
         for i in range(1, 5) for j in range(1, 5) if i != j for k in (1, -1)}
    return TransitionKernel(chamber_array(p, 4)[0])


@pytest.mark.parametrize("n_steps", [0, 1, 63, 64, 65, 200])
def test_batch_word_growing_every_step_fills_stack(n_steps):
    # The deepest slot the stack can hold is reached when a capacity runs
    # out.
    k, fm = _one_letter_per_step_kernel(), fenced_metric(4)
    wl, ml = run_length_paths(k, fm, n_steps, 3, seed=1)
    children = np.random.SeedSequence(1).spawn(3)
    for q in range(3):
        traj = simulate(unit(1), k, n_steps, seed=children[q], metric=fm)
        assert wl[q] == len(traj.final) == n_steps
        assert ml[q] == metric_length(traj.final, fm)


def test_batch_word_growing_every_step_through_many_growths(monkeypatch):
    # A word one letter deeper each step outruns every capacity: the stack
    # grows each 64 + depth // 16 steps or so, and each growth reallocates
    # it under paths that must still equal the scalar chain.
    sizes = []
    grow = _BatchState._grow

    def counted(self):
        grow(self)
        sizes.append(self.stack.shape[0])

    monkeypatch.setattr(_BatchState, "_grow", counted)
    k, fm, n_steps = _one_letter_per_step_kernel(), fenced_metric(4), 2000
    wl, ml = run_length_paths(k, fm, n_steps, 3, seed=1)
    assert len(set(sizes)) >= 15 and sizes[-1] <= n_steps + 66 + n_steps // 16
    children = np.random.SeedSequence(1).spawn(3)
    for q in range(3):
        traj = simulate(unit(1), k, n_steps, seed=children[q], metric=fm)
        assert wl[q] == len(traj.final) == n_steps
        assert ml[q] == metric_length(traj.final, fm)


def test_batch_from_a_deep_word_starts_with_the_grown_stack_size():
    # A new stack gets the slots a grown one would: 200 letters, the
    # sentinel and a margin of 64 + 200 // 16, not 2 * 201 by doubling.
    k, fm = asymmetric_kernel(), fenced_metric(3)
    initial = unit(1)
    for n in range(200):  # signs alternate, so every arc is pushed
        initial = append(initial, Arc(initial.target, initial.target % 3 + 1, 1 - 2 * (n % 2)))
    assert len(initial) == 200
    state = _BatchState(k, [(initial, 9, 0, 5)], max_steps=300)
    assert state.stack.shape[0] == 200 + 65 + 200 // 16
    wl, ml = run_length_paths(k, fm, 300, 5, 9, initial=initial)
    children = np.random.SeedSequence(9).spawn(5)
    for q in range(5):
        traj = simulate(initial, k, 300, seed=children[q], metric=fm)
        assert wl[q] == len(traj.final)
        assert ml[q] == metric_length(traj.final, fm)


@pytest.mark.parametrize("n_paths, n_steps", [(400, 3000), (500, 4000)])
def test_batch_stack_follows_the_depth_reached(n_paths, n_steps):
    # The deepest word gains about 0.3 letters a step here, so a stack
    # sized by the steps taken would hold two to three times the slots any
    # path uses.
    state = _BatchState(asymmetric_kernel(), [(unit(1), 5, 0, n_paths)], max_steps=n_steps)
    for _ in range(n_steps):
        state.advance()
    state.metric_lengths(fenced_metric(3))
    depth = int(state.depth.max())
    assert state.stack.shape[0] <= depth + 65 + depth // 16


def _one_shard(monkeypatch):
    # A batch stepped in one process, whatever its size, so that this
    # process sees all of it.
    monkeypatch.setattr("windwalk._stepper._shard_count", lambda n_paths, n_steps: 1)


def test_clt_batch_frees_its_draws_before_the_metric_pass(monkeypatch):
    # When the metric pass starts, the uniform buffer, its block and the
    # generators are spent and gone, and the stack holds about 1/16 more
    # slots than the deepest of 2000 words.
    _one_shard(monkeypatch)
    seen = []
    metric_lengths = _BatchState.metric_lengths

    def wrapped(self, metric):
        seen.append([name for name in ("_buf", "_block", "rngs") if hasattr(self, name)])
        lengths = metric_lengths(self, metric)
        seen.append((int(self.depth.max()), self.stack.shape[0]))
        return lengths

    monkeypatch.setattr(_BatchState, "metric_lengths", wrapped)
    run_length_paths(asymmetric_kernel(), fenced_metric(3), 10**4, 2000, seed=0)
    held, (depth, slots) = seen
    assert held == []
    assert depth > 2000 and slots <= depth + 66 + depth // 16


def test_batch_stack_grows_under_a_profiler():
    # A profiler holds one more reference to the stack while `resize` runs,
    # which its reference check once refused with a ValueError.
    k, m = symmetric_kernel(3), word_metric(3)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = run_length_paths(k, m, 1000, 200, seed=1)
    finally:
        profiler.disable()
    plain = run_length_paths(k, m, 1000, 200, seed=1)
    assert int(profiled[0].max()) > 64
    for got, want in zip(profiled, plain):
        np.testing.assert_array_equal(got, want)


def test_hitting_times_past_a_stack_growth_equal_scalar_first_hits():
    # Paths that hit stay in the batch, masked, and keep stepping, so the
    # stack grows under words whose first hits are already recorded.
    target, cap, n_samples = Arc(1, 2, 1), 400, 40
    k = asymmetric_kernel()
    times = sample_hitting_times(target, k, cap=cap, seed=8, n_samples=n_samples)
    children = np.random.SeedSequence(8).spawn(n_samples)
    assert times.tolist() == _first_hits(k, target, cap, children)
    # Every hit comes before a 64-slot stack could fill; censored paths run on.
    assert 0 < times.max() < 64 and (times == -1).any()


def test_batch_of_128_paths_equals_scalar_at_n130():
    # Slot moves of ±128 paths need int16; an int8 table cannot hold them.
    # The 129 hitting-time samples step as one batch of 129 to the end; the
    # first hit is one path's alone, the next comes later.
    k, fm = symmetric_kernel(130), fenced_metric(130)
    n_steps, n_paths = 20, 128
    wl, ml = run_length_paths(k, fm, n_steps, n_paths, seed=3)
    children = np.random.SeedSequence(3).spawn(n_paths)
    for p in range(n_paths):
        traj = simulate(unit(1), k, n_steps, seed=children[p], metric=fm)
        assert wl[p] == len(traj.final) and ml[p] == traj.metric_lens[-1]
    target, cap, n_samples = Arc(1, 2, 1), 30, 129
    times = sample_hitting_times(target, k, cap=cap, seed=0, n_samples=n_samples)
    children = np.random.SeedSequence(0).spawn(n_samples)
    assert times.tolist() == _first_hits(k, target, cap, children)
    hits = np.sort(times[times >= 0])
    assert len(hits) >= 2 and hits[0] < hits[1]


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_clt_batch_peaks_near_its_stack(monkeypatch):
    # 2000 paths of 10**4 steps reach depth 2989.  A stack doubled on a
    # count of one letter per step reached 8192 slots, and each growth held
    # the old stack, a zero pad and their copy at once: a peak of 41 MiB.
    # Doubling on the depth reached left 4096 slots and 18.9 MiB; a margin of
    # depth // 16, and the draws freed before the metric pass, 3218 and 15.7.
    _one_shard(monkeypatch)
    k, fm = asymmetric_kernel(), fenced_metric(3)
    peak = _traced_peak(lambda: run_length_paths(k, fm, 10**4, 2000, seed=0))
    assert peak <= 17.3 * 2**20


def test_batch_at_n1000_peaks_near_its_tables():
    # Full-size int64 temporaries for the arc sums and the rewrite tables,
    # and a weight table tiled twice over, made 127 MiB of peak here.
    kernel, metric = symmetric_kernel(1000), fenced_metric(1000)
    for _ in range(2):
        assert _traced_peak(lambda: run_length_paths(kernel, metric, 10, 2, 0)) <= 64 * 2**20


def test_batch_tables_stay_quadratic_in_n():
    # Every table the stepper builds is O(N^2): at N=100 a (top letter, arc)
    # table would hold 2 * 101 * 19800 entries, some 30 MB even as int8.
    # One step builds the arc tables too.
    k = symmetric_kernel(100)
    _BatchState(k, [(unit(1), 0, 0, 1)], max_steps=10).advance()
    tracemalloc.start()
    try:
        _BatchState(k, [(unit(1), 0, 0, 1)], max_steps=10).advance()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kernel_at_n1000_holds_little_beyond_its_array():
    # Per-window arc tables of 2N - 2 int64 entries each held twice as much
    # as P here; the tables the chains step through are built per call.
    tracemalloc.start()
    try:
        kernel = symmetric_kernel(1000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.2 * kernel.P.nbytes


def test_kernel_construction_at_n1000_peaks_near_its_array():
    # Validation once held several (2, N, N) temporaries at a time, a peak
    # of 4.8 times P; it now works through blocks of windows.
    n = 1000
    arcs = np.broadcast_to((1.0 - np.eye(n)) / (2 * n - 2), (2, n, n))
    tracemalloc.start()
    try:
        kernel = TransitionKernel(arcs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * kernel.P.nbytes


def test_simulate_at_n1000_reads_visited_rows_only():
    # Rewrite and arc-sum tables of every window and top code would take
    # hundreds of MiB here; ten steps visit at most eleven windows.
    kernel, metric = symmetric_kernel(1000), fenced_metric(1000)
    simulate(unit(1), symmetric_kernel(3), 10, seed=0)
    tracemalloc.start()
    try:
        traj = simulate(unit(1), kernel, 10, seed=0, metric=metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.word_lens) == 11
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [3, 4, 6])
def test_rewrite_tables_match_append_on_every_top_state(n):
    # Every top state, the empty word at each window or a last letter
    # (a, b, s) above a letter of the other sign, against every arc leaving
    # its target window: the move and the new codes from the tables are what
    # groupoid.append does to that word, and so is the change in a metric
    # length with non-dyadic weights.  The weights' diagonal names no arc
    # and must not enter that change: Metric zeroes the diagonal given here,
    # and the tables take that zero from it.
    rules, kernel = _RewriteTables(n), symmetric_kernel(n)
    metric = custom_metric(n, {(i, j, k): 0.1 * i + 0.7 * j + 0.3 * k for i in range(1, n + 1)
                               for j in range(1, n + 1) if i != j for k in (1, -1)})
    metric = Metric("diagonal", metric.W + np.eye(n))
    *tables, _ = rules.tables(kernel.P)
    ends, keys, push, moves, weights = (table.tolist() for table in (
        *tables, rules.weights(metric)))
    # The scalar chain's lazy rows are the same tables, row by row.
    arc_rows, letters = rules.rows(kernel.P, metric)
    words = [unit(i) for i in range(1, n + 1)]
    words += [Word(a % n + 1, (Arc(a % n + 1, a, -k), Arc(a, b, k)))
              for a in range(1, n + 1) for b in range(1, n + 1) if a != b for k in (1, -1)]
    for word in words:
        codes = [0] + [rules.code(arc.i, arc.k) for arc in word.letters]
        i = word.target
        top = codes[-1]
        assert letters[top] == (moves[top : top + 2 * n + 2], weights[top // rules.m], top)
        f0 = i * rules.width
        row_ends, row_keys, row_letters, _ = arc_rows[i]
        assert (row_ends, row_keys) == (ends[f0 : f0 + rules.width], keys[f0 : f0 + rules.width])
        assert [letter[2] for letter in row_letters] == push[f0 : f0 + rules.width]
        for a, (arc, _) in enumerate(arcs_from(kernel, i)):
            f = i * rules.width + a
            assert (ends[f], keys[f]) == (arc.j, (1 - arc.k) // 2 * (n + 1) + arc.j)
            move = moves[codes[-1] + keys[f]]
            new = append(word, arc)
            assert move == len(new) - len(word)
            row = codes[-1] if move <= 0 else push[f]
            stepped = codes + [row] if move > 0 else codes[:len(codes) + move]
            assert stepped == [0] + [rules.code(g.i, g.k) for g in new.letters]
            assert rules.word(word.source, stepped[1:], arc.j) == new
            change = weights[row // rules.m][arc.j] - weights[row // rules.m][i]
            assert change == pytest.approx(metric_length(new, metric) - metric_length(word, metric),
                                           rel=1e-12, abs=1e-12)


def test_kernel_and_metric_at_n300_hold_arrays_only():
    # One (2, N, N) array per kernel and metric: per-arc dicts held 57.7 MiB here.
    tracemalloc.start()
    try:
        kernel, metric = symmetric_kernel(300), fenced_metric(300)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.n_windows == metric.W.shape[-1] == 300
    assert held < 20 * 2**20


@pytest.mark.parametrize("k", [asymmetric_kernel(), symmetric_kernel(9)],
                         ids=["asymmetric", "symmetric:9"])
@pytest.mark.parametrize("target", [Arc(1, 2, 1), Arc(2, 3, -1)])
def test_hitting_times_equal_scalar_first_hits(k, target):
    # Paths that hit keep stepping, masked; every path keeps its own stream.
    cap, n_samples = 40, 60
    times = sample_hitting_times(target, k, cap=cap, seed=31, n_samples=n_samples)
    children = np.random.SeedSequence(31).spawn(n_samples)
    expected = _first_hits(k, target, cap, children)
    assert times.tolist() == expected
    assert -1 in expected and any(t > 1 for t in expected)


@pytest.mark.parametrize("kernel", [
    asymmetric_kernel(), one_parameter_kernel(0.01), symmetric_kernel(5),
    dirichlet_kernel(6, 1.0, seed=6),
], ids=["asymmetric", "one_parameter:0.01", "symmetric:5", "dirichlet:6"])
def test_chamber_array_matches_prob(kernel):
    n = kernel.n_windows
    assert kernel.P.shape == (2, n, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for s, k in enumerate((1, -1)):
                want = 0.0 if i == j else arc_entry(kernel.P, i, j, k)
                assert kernel.P[s, i - 1, j - 1] == want
    assert not kernel.P.flags.writeable


@pytest.mark.parametrize("kernel", [asymmetric_kernel(), symmetric_kernel(3)],
                         ids=["asymmetric", "symmetric:3"])
def test_arc_rule_at_exact_boundaries(kernel):
    # A uniform equal to the running sum cum[m] of a row picks arc m.  The
    # scalar rule, the batched count, the arc list of `arcs_from` and one
    # batched step must agree there, or a path's stream would drive the
    # scalar and batched chains apart.
    n = kernel.n_windows
    rules = _RewriteTables(n)
    arc_rows, _ = rules.rows(kernel.P, word_metric(n))
    cum = rules.tables(kernel.P)[4]
    for i in range(1, n + 1):
        arcs = [arc for arc, _ in arcs_from(kernel, i)]
        bounds = np.cumsum([prob for _, prob in arcs_from(kernel, i)])[:-1]
        us = np.concatenate(([0.0], bounds))
        picked = [0] + list(range(len(bounds)))
        ends, keys, _, sums = arc_rows[i]
        assert [bisect_left(sums, float(u)) for u in us] == picked
        assert (us > cum[:, i, None]).sum(axis=0).tolist() == picked
        stepped = [Arc(i, ends[m], 1 - 2 * (keys[m] // rules.n1)) for m in picked]
        assert stepped == [arcs[m] for m in picked]
        state = _BatchState(kernel, [(unit(i), 0, 0, len(us))], max_steps=1)
        state._buf[0] = us
        state._ptr = 0
        state.advance()
        assert state.target.tolist() == [arcs[m].j for m in picked]
        assert batch_top(state).tolist() == [rules.code(i, arcs[m].k) for m in picked]


@pytest.mark.parametrize("n", [3, 4, 6, 300])
def test_arc_sums_table_equals_scalar_rows(n):
    # The batched draw reads column i of the sums table and the scalar draw
    # window i's row list; both come from `_RewriteTables._arcs`, and both
    # equal the running sums of `arcs_from`'s probabilities.  At N=300 the
    # table is filled over several blocks of windows.
    kernel, rules = dirichlet_kernel(n, 1.0, seed=n), _RewriteTables(n)
    cum = rules.tables(kernel.P)[4]
    arc_rows, _ = rules.rows(kernel.P, word_metric(n))
    assert cum.shape == (2 * n - 3, n + 1)
    assert (n == 300) == (len(_row_blocks(n + 1, rules.width)) > 1)
    for i in range(1, n + 1):
        sums = np.cumsum([prob for _, prob in arcs_from(kernel, i)])[:-1].tolist()
        assert cum[:, i].tolist() == arc_rows[i][3] == sums


def test_runs_write_nothing_on_the_kernel():
    kernel, metric = symmetric_kernel(5), fenced_metric(5)
    attrs = set(vars(kernel))
    simulate(unit(1), kernel, 200, seed=0, metric=metric)
    run_length_paths(kernel, metric, 200, 10, seed=0)
    sample_hitting_times(Arc(1, 2, 1), kernel, cap=50, seed=0, n_samples=10)
    verify_lln(kernel, metric, 0.5, n_steps=1000, n_paths=50, seed=0)
    assert set(vars(kernel)) == attrs


def test_runs_at_n300_leave_no_memory_behind():
    # The kernel once cached the scalar rule's row lists and the batch's
    # sums table after the first run: 7 MiB here, 77 MiB at N=1000.
    kernel, metric = symmetric_kernel(300), fenced_metric(300)
    # Warm-up runs load `numpy.random`, whose modules stay.
    simulate(unit(1), symmetric_kernel(3), 10, seed=0)
    run_length_paths(symmetric_kernel(3), word_metric(3), 10, 2, seed=0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        simulate(unit(1), kernel, 4000, seed=0, metric=metric)
        run_length_paths(kernel, metric, 10, 2, seed=0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before < 2**19


def test_named_kernels_carry_their_family():
    assert symmetric_kernel(4).family == ("symmetric", {"N": 4})
    assert one_parameter_kernel(0.125).family == ("one_parameter", {"q": 0.125})
    assert asymmetric_kernel().family == ("asymmetric", {})
    assert validate_kernel({"symmetric": {"N": 5}}).family == ("symmetric", {"N": 5})
    assert validate_kernel({"one_parameter_q": {"q": 0.3}}).family == ("one_parameter", {"q": 0.3})
    assert validate_kernel({"asymmetric": {}}).family == ("asymmetric", {})
    assert validate_kernel(kernel_to_json(symmetric_kernel(3))).family is None


_N3 = symmetric_kernel(3)


@pytest.mark.parametrize("call", [
    lambda: simulate(word_from_str("e7"), _N3, 5, 0),
    lambda: simulate(word_from_str("A(1,5,+)"), _N3, 5, 0),
    lambda: run_length_paths(_N3, word_metric(3), 5, 3, 0, initial=word_from_str("e7")),
    lambda: dp_hitting_series(asymmetric_kernel(), Arc(1, 9, 1), 5),
    lambda: word_hitting_series(asymmetric_kernel(), Arc(1, 9, 1), 5),
    lambda: dp_return_series(asymmetric_kernel(), 0, 5),
    lambda: dp_return_series(asymmetric_kernel(), 9, 5),
    lambda: dp_return_series(asymmetric_kernel(), 4, 5),
    lambda: dp_truncated_G(asymmetric_kernel(), word_metric(3), 9, 0.5, 1.0, 3),
    lambda: sample_hitting_times(Arc(1, 9, 1), asymmetric_kernel(), cap=20, seed=0,
                                 n_samples=4),
], ids=["simulate-e7", "simulate-A(1,5,+)", "run_length_paths-e7", "hitting-Arc(1,9,1)",
        "hitting-words-Arc(1,9,1)", "return-0", "return-9", "return-4", "G-9",
        "hitting-times-Arc(1,9,1)"])
def test_window_beyond_n_is_value_error(call):
    with pytest.raises(ValueError, match="outside 1..3"):
        call()


@pytest.mark.parametrize("kernel_n, metric_n", [(3, 4), (4, 3)])
@pytest.mark.parametrize("call", [
    lambda k, m: simulate(unit(1), k, 50, 0, metric=m),
    lambda k, m: run_length_paths(k, m, 50, 3, 0),
    lambda k, m: verify_lln(k, m, 0.3, 1000, 50, 0),
    lambda k, m: compute_limits(k, m),
    lambda k, m: dp_truncated_G(k, m, 1, 0.5, 0.9, 3),
], ids=["simulate", "run_length_paths", "verify_lln", "compute_limits", "G"])
def test_metric_for_another_n_is_value_error(call, kernel_n, metric_n):
    with pytest.raises(ValueError, match=f"sized for N={metric_n} windows, the kernel for N={kernel_n}"):
        call(symmetric_kernel(kernel_n), fenced_metric(metric_n))


def test_work_caps_sit_far_above_what_runs():
    # README's mc-clt default is 2000 paths of 20000 steps, and the longest
    # walk of a test takes 50000 steps.
    assert _stepper.MAX_PATH_STEPS >= 100 * 2000 * 20000
    assert _stepper.MAX_WALK_STEPS >= 100 * 50000


def test_batch_above_the_work_cap_is_refused_before_a_step(monkeypatch):
    monkeypatch.setattr(_stepper, "MAX_PATH_STEPS", 10**5)
    # At the cap: 1000 paths of 100 steps, and verify_lln's two groups of 50
    # paths of 1000 steps.
    run_length_paths(_N3, word_metric(3), 100, 1000, 0)
    verify_lln(_N3, word_metric(3), 0.25, 1000, 50, 0)

    def stepped(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(_stepper, "_run_shard", stepped)
    monkeypatch.setattr(_stepper, "run_forked", stepped)
    for call, work in ((lambda: run_length_paths(_N3, word_metric(3), 101, 1000, 0), 101000),
                       (lambda: verify_lln(_N3, word_metric(3), 0.25, 1001, 50, 0), 100100),
                       (lambda: verify_clt(_N3, word_metric(3), 0.25, 11 / 16, 10**4, 10**3, 0),
                        10**7)):
        with pytest.raises(ValueError, match=f"are {work} path-steps, above the cap 100000"):
            call()


def test_walk_above_its_step_cap_is_refused(monkeypatch):
    with pytest.raises(ValueError, match=f"above the cap {_stepper.MAX_WALK_STEPS}"):
        simulate(unit(1), _N3, 10**12, seed=0)
    monkeypatch.setattr(_stepper, "MAX_WALK_STEPS", 10)
    assert len(simulate(unit(1), _N3, 10, seed=0).word_lens) == 11
    with pytest.raises(ValueError, match="n_steps=11 is above the cap 10 on one walk's steps"):
        simulate(unit(1), _N3, 11, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: run_length_paths(_N3, word_metric(3), -3, 3, 0), "n_steps must be non-negative"),
    (lambda: run_length_paths(_N3, word_metric(3), 5, -1, 0), "n_paths must be non-negative"),
    (lambda: sample_hitting_times(Arc(1, 2, 1), _N3, cap=0, seed=0, n_samples=4),
     "cap must be >= 1"),
    (lambda: sample_hitting_times(Arc(1, 2, 1), _N3, cap=20, seed=0, n_samples=-1),
     "n_samples must be non-negative"),
    (lambda: hitting_step_probabilities(_N3, -1), "max_steps must be >= 0"),
], ids=["run_length_paths-n_steps", "run_length_paths-n_paths", "hitting-times-cap",
        "hitting-times-n_samples", "hitting-table-max_steps"])
def test_bad_count_is_named_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _assert_spawned_like_numpy(seed, count):
    # numpy warns when a uint32 scalar product overflows; the one-pass
    # seeding must multiply in arrays only, so any warning fails.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rngs = _spawn_generators(seed, count)
        children = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]
    assert len(rngs) == count
    for rng, child in zip(rngs, children):
        assert rng.bit_generator.state == child.bit_generator.state
        assert np.array_equal(rng.random(3), child.random(3))
        assert np.array_equal(rng.integers(2**63, size=2), child.integers(2**63, size=2))


@pytest.mark.parametrize("count", [0, 1, 2, 129, 2000])
@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**200 - 1,
                                  [1, 2], [2**40, 7, 9], ["0x1ffffffffff", "12", 3]], ids=repr)
def test_spawned_generators_equal_numpy_spawn(seed, count):
    _assert_spawned_like_numpy(seed, count)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**256), st.integers(0, 40))
def test_spawned_generators_equal_numpy_spawn_for_any_int_seed(seed, count):
    _assert_spawned_like_numpy(seed, count)


def test_spawned_seed_serves_pcg64_alone():
    seed_seq = _spawn_generators(3, 1)[0].bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).dtype == np.uint64
    with pytest.raises(ValueError, match="only generate_state"):
        seed_seq.generate_state(8)


@pytest.mark.parametrize("seed", [-1, 1.5, [3, -2]], ids=repr)
def test_bad_seed_raises_as_numpy_spawn(seed):
    with pytest.raises(Exception) as expected:
        np.random.SeedSequence(seed).spawn(3)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        run_length_paths(_N3, word_metric(3), 5, 3, seed)


def test_decoded_word_equals_appended_word_and_shares_arcs():
    k = symmetric_kernel(4)
    traj = simulate(unit(2), k, 3000, seed=12)
    *_, last = Replay(k).words(unit(2), 3000, seed=12)
    assert traj.final == last
    assert len(traj.final) > 100
    # Arcs are frozen, so the decode builds each distinct arc once.
    assert len({id(arc) for arc in traj.final.letters}) == len(set(traj.final.letters))
