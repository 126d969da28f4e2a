"""A batch stepped in forked path shards equals the batch stepped in one
process, bit for bit, and the shard processes never outlive the call."""

import os
import subprocess
import sys

import numpy as np
import pytest

from windwalk import _stepper
from windwalk._stepper import SHARD_PATH_STEPS, _shard_count, _shards
from windwalk.chain import _run_length_groups, asymmetric_kernel, run_length_paths, symmetric_kernel
from windwalk.cli import main
from windwalk.groupoid import Arc, Word, fenced_metric, unit, word_metric
from windwalk.limits import compute_limits
from windwalk.montecarlo import verify_clt, verify_lln


@pytest.fixture
def shards(monkeypatch):
    """``shards(k)`` plans k shards for every batch from then on and returns
    the list of the pids forked since, which stays empty for k = 1."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def plan(k):
        monkeypatch.setattr(_stepper, "_shard_count", lambda n_paths, n_steps: k)
        forked.clear()
        return forked

    return plan


def _two_letter_word():
    return Word(1, (Arc(1, 2, 1), Arc(2, 3, -1)))


@pytest.mark.parametrize("k, n_steps, n_paths, forks", [
    (2, 0, 5, 1),       # no step taken
    (2, 300, 7, 1),     # shards of 3 and 4 paths
    (3, 1000, 50, 2),   # 16, 17 and 17 paths, past the first stack growth
    (3, 200, 2, 1),     # fewer paths than shards: one path each
    (3, 200, 1, 0),     # one path: one shard, no fork
])
def test_sharded_run_length_paths_equal_one_shard(shards, k, n_steps, n_paths, forks):
    kernel, metric = asymmetric_kernel(), fenced_metric(3)
    shards(1)
    want = run_length_paths(kernel, metric, n_steps, n_paths, seed=11)
    forked = shards(k)
    got = run_length_paths(kernel, metric, n_steps, n_paths, seed=11)
    assert len(forked) == forks
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


@pytest.mark.parametrize("k, cuts", [(2, [0, 4, 9]), (3, [0, 3, 6, 9]), (4, [0, 2, 4, 6, 9])])
def test_shard_cuts_fall_inside_groups(shards, k, cuts):
    # Groups of 5 and 4 paths: every cut but 9 // 2 lies inside a group, and
    # each shard seeds its own part of a group from its first child on.
    starts = [(unit(1), 3, 5), (_two_letter_word(), 8, 4)]
    plan = _shards(starts, k)
    assert [sum(n for *_, n in shard) for shard in plan] == np.diff(cuts).tolist()
    kernel, metric = symmetric_kernel(4), word_metric(4)
    shards(1)
    want = _run_length_groups(kernel, metric, 400, starts)
    forked = shards(k)
    got = _run_length_groups(kernel, metric, 400, starts)
    assert len(forked) == k - 1
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


def test_shards_of_a_group_start_at_its_cut():
    plan = _shards([(unit(1), 3, 5), (unit(2), 8, 0), (_two_letter_word(), 8, 4)], 3)
    assert plan == [[(unit(1), 3, 0, 3)],
                    [(unit(1), 3, 3, 2), (_two_letter_word(), 8, 0, 1)],
                    [(_two_letter_word(), 8, 1, 3)]]
    assert _shards([(unit(1), 3, 0)], 2) == []


def test_a_batch_of_no_paths_is_empty():
    word_lens, metric_lens = run_length_paths(symmetric_kernel(3), word_metric(3), 10, 0, 1)
    assert word_lens.dtype == np.int64 and word_lens.shape == (0,)
    assert metric_lens.dtype == np.float64 and metric_lens.shape == (0,)


def test_an_empty_group_leaves_the_batch_unchanged():
    kernel, metric = symmetric_kernel(4), word_metric(4)
    want = _run_length_groups(kernel, metric, 300, [(unit(1), 3, 4), (_two_letter_word(), 8, 5)])
    got = _run_length_groups(kernel, metric, 300,
                             [(unit(1), 3, 4), (unit(2), 5, 0), (_two_letter_word(), 8, 5)])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


def test_sharded_verify_lln_report_equals_one_shard(shards):
    kernel, metric = asymmetric_kernel(), fenced_metric(3)
    shards(1)
    want = verify_lln(kernel, metric, 0.334, 1000, 50, seed=4, sigma2_ref=0.92).to_json()
    forked = shards(3)
    got = verify_lln(kernel, metric, 0.334, 1000, 50, seed=4, sigma2_ref=0.92).to_json()
    assert len(forked) == 2
    assert repr(got) == repr(want)


def test_sharded_verify_clt_report_equals_one_shard(shards):
    kernel, metric = symmetric_kernel(3), word_metric(3)
    limits = compute_limits(kernel, metric)
    shards(1)
    want = verify_clt(kernel, metric, limits.gamma, limits.sigma2, 10**4, 1000, seed=2).to_json()
    forked = shards(2)
    got = verify_clt(kernel, metric, limits.gamma, limits.sigma2, 10**4, 1000, seed=2).to_json()
    assert len(forked) == 1
    assert repr(got) == repr(want)


def test_sharded_mc_clt_prints_the_same(shards, capsys):
    argv = ["mc-clt", "--kernel", "asymmetric", "--metric", "fenced", "--n-steps", "10000",
            "--n-paths", "1000", "--seed", "7"]
    shards(1)
    want = main(argv), capsys.readouterr()
    forked = shards(2)
    got = main(argv), capsys.readouterr()
    assert len(forked) == 1
    assert got == want


class _TwoArgError(Exception):
    # Pickled with its message alone, so it cannot be rebuilt from its args.
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("raised, shard, expected, message", [
    (ValueError("no uniforms"), 1, ValueError, "^no uniforms$"),
    (MemoryError("no room for the stack"), 2, MemoryError, "^no room for the stack$"),
    (_TwoArgError("bad step", "path 3"), 1, RuntimeError, "^_TwoArgError: bad step at path 3$"),
    (ValueError("no uniforms here"), 0, ValueError, "^no uniforms here$"),
    (KeyboardInterrupt(), 0, KeyboardInterrupt, "^$"),
], ids=["child", "last-child", "unpicklable", "parent", "interrupted-parent"])
def test_shard_exception_is_raised_with_its_type_and_message(shards, monkeypatch, raised, shard,
                                                             expected, message):
    # Shard s seeds paths from 4 s on.  Whichever shard raises, the call
    # raises that exception, and every child is reaped (conftest).
    spawn = _stepper._spawn_generators

    def failing(seed, count, first=0):
        if first == 4 * shard:
            raise raised
        return spawn(seed, count, first)

    monkeypatch.setattr(_stepper, "_spawn_generators", failing)
    forked = shards(3)
    with pytest.raises(expected, match=message):
        run_length_paths(symmetric_kernel(3), word_metric(3), 50, 12, seed=0)
    assert len(forked) == 2


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"), key=int)


def test_a_failed_fork_is_raised_and_closes_its_pipe(shards, monkeypatch):
    # The second of two forks fails: the call raises its error, closes both
    # pipes and reaps the first child (conftest).
    forked = shards(3)
    fork, calls = os.fork, []

    def failing():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError("no process left to fork")
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    before = _open_descriptors()
    with pytest.raises(BlockingIOError, match="no process left to fork"):
        run_length_paths(symmetric_kernel(3), word_metric(3), 50, 12, seed=0)
    assert _open_descriptors() == before
    assert len(forked) == 1


def test_a_child_that_sends_no_result_is_refused_with_its_exit_code(shards, monkeypatch):
    forked = shards(2)
    monkeypatch.setattr(_stepper, "_shard_child", lambda *args: os._exit(7))
    before = _open_descriptors()
    with pytest.raises(ChildProcessError, match="exit code 7 and sent no result"):
        run_length_paths(symmetric_kernel(3), word_metric(3), 50, 12, seed=0)
    assert _open_descriptors() == before
    assert len(forked) == 1


def test_batches_below_the_threshold_never_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    kernel, metric = symmetric_kernel(3), word_metric(3)
    # verify_lln at the benchmark's size steps 2 x 200 paths of 1000 steps.
    assert verify_lln(kernel, metric, 0.25, 1000, 200, seed=0, sigma2_ref=0.5).n_paths == 200
    assert run_length_paths(kernel, metric, 5000, 50, seed=0)[0].shape == (50,)


def test_shard_count_follows_the_cpus_paths_and_path_steps(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1
    assert _shard_count(2000, 10**4) == min(cpus, 10**4 * 2000 // SHARD_PATH_STEPS)
    assert _shard_count(1, 10**9) == 1
    assert _shard_count(0, 10**9) == 1
    assert _shard_count(400, 1000) == 1
    # Two shards need two SHARD_PATH_STEPS, three need three.
    assert _shard_count(1000, 2 * SHARD_PATH_STEPS // 1000 - 1) == 1
    assert _shard_count(1000, 2 * SHARD_PATH_STEPS // 1000) == min(cpus, 2)
    assert _shard_count(1000, 3 * SHARD_PATH_STEPS // 1000) == min(cpus, 3)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert _shard_count(2000, 10**4) == 1


def test_output_written_before_a_sharded_run_is_written_once():
    # Buffered output of the parent is flushed before the fork, and a child
    # leaves through os._exit, so the parent's text appears once.
    script = (
        "import sys\n"
        "from windwalk import _stepper, chain\n"
        "from windwalk.groupoid import word_metric\n"
        "_stepper._shard_count = lambda n_paths, n_steps: 3\n"
        "sys.stdout.write('before ')\n"
        "sys.stderr.write('err ')\n"
        "wl, _ = chain.run_length_paths(chain.symmetric_kernel(3), word_metric(3), 20, 9, 0)\n"
        "print(len(wl))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == ("before 9\n", "err ")
