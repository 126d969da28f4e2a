"""The chain's steppers: the rewrite tables, the scalar ``simulate``, the
seeding of many paths, the batched ``_BatchState``, and the plan and the
forked runner of its path shards.

``chain`` keeps the kernel and the entries ``simulate``,
``run_length_paths`` and ``_run_length_groups``; each imports this module
on its first run, so a process that runs no chain, such as every
``windwalk limits`` call, neither loads nor compiles it.

A step draws an arc leaving the word's target window and rewrites the
reduced word by the rule of ``groupoid.append``: push the drawn arc, pop the
last letter, or merge with it.  ``_RewriteTables`` holds the draw's running
arc sums and that rule as flat tables, built per run from the kernel's
``P``, and the scalar ``simulate`` and the batched ``_BatchState`` both step
through them.  The tests check both against ``groupoid.append``.  The
kernel keeps nothing of a run.

Randomness comes from numpy's PCG64 generator.  Every multi-path routine
gives path p the generator of the p-th child of
``numpy.random.SeedSequence(master).spawn``, so runs are reproducible from
``(seed, path index)`` alone.  ``_spawn_generators`` seeds a whole batch's
children in one vectorised pass over the path indices; its generators equal
``default_rng`` of those children bit for bit, and the tests pin this.
``numpy.random`` is imported with this module, so only when a chain runs,
and always before a fork.

A large batch is stepped on every CPU the process may use.  On Linux,
``run_length_groups`` cuts the batch's path range into contiguous shards,
and ``run_forked``, which steps every batch, steps the first itself and
each other one in a forked child, and joins their results in path order.
Path p still draws only from child p of its group's seed, so the shards
change no bit of any result, and the memory of the batch is spread over the
processes.  A batch of fewer than ``SHARD_PATH_STEPS`` path-steps per extra
shard, and every batch off Linux, stays in one process and never forks.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, NoReturn, Optional, Sequence, Tuple

import numpy as np
# Every chain run draws from numpy.random; imported here, before any fork,
# it is not imported again in every child.
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .chain import TransitionKernel, _row_blocks
from .groupoid import Arc, Metric, Word, metric_length, word_metric

#: Path-steps each shard of a batch must hold before ``run_length_groups``
#: forks a process for it.  On a shared 2-vCPU host, two shards of a batch
#: of 2*10**6 path-steps took 0.78-1.03 times as long as one, and of 8*10**6
#: 0.63-0.93 times (1.0 for 50 paths of 160000 steps, whose time is per-step
#: overhead); 400 paths of 1000 steps, ``verify_lln``'s benchmark size, took
#: 1.14 times as long.
SHARD_PATH_STEPS = 4 * 10**6
#: Path-steps, paths times steps summed over the groups, that one batch of
#: ``run_length_groups`` may take.  README's ``mc-clt`` default of 2000
#: paths of 20000 steps took 1.6 s as a whole process on a shared 2-vCPU
#: host, so a batch at the cap takes minutes.
MAX_PATH_STEPS = 5 * 10**9
#: Steps one ``simulate`` walk may take.  It keeps two 8-byte lengths per
#: step, 160 MB at the cap, and 10**6 steps took 3.7 s as a whole
#: ``windwalk simulate`` process on a shared 2-vCPU host.
MAX_WALK_STEPS = 10**7

# The hash constants of numpy's SeedSequence, which `_spawn_generators`
# replays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass
class Trajectory:
    """One realisation of the chain: its final word, and in ``word_lens``
    and ``metric_lens`` the two lengths after every step."""

    final: Word
    word_lens: np.ndarray
    metric_lens: np.ndarray

    def to_csv(self) -> str:
        lines = ["n,word_len,metric_len"]
        for n, (wl, ml) in enumerate(zip(self.word_lens, self.metric_lens)):
            lines.append(f"{n},{int(wl)},{float(ml)!r}")
        return "\n".join(lines) + "\n"


class _RewriteTables:
    """The rewrite rule of ``groupoid.append`` as tables over the arcs of N
    windows.  ``_BatchState`` steps through the numpy arrays of ``tables``;
    ``simulate`` reads the same rule as Python lists, one row per window or
    top code it visits (``rows``).

    Signs alternate along a reduced word, so a word is fixed by the sign and
    the source window of each letter and by its target window.  A letter
    that leaves window i with sign k has the code
    ``code(i, k) = (s (N+1) + i) * 2 (N+1)``, s = 0 for k = +1 and 1 for
    k = -1; the empty word has the sentinel code 0.

    ``f = i * width + a`` names arc a leaving window i, in the order k = +1,
    then -1; j ascending.  ``_arcs`` is the one place that order is built,
    for the draw and the rewrite alike.  A step draws arc a for a
    uniform u when ``sums[a-1] < u <= sums[a]``, ``sums`` being the running
    sums of window i's arc probabilities: ``simulate`` bisects them and
    ``_BatchState`` counts the sums below u.  ``ends[f]`` is the arc's end
    j, ``keys[f]`` its column ``s (N+1) + j`` and ``push[f]`` the code of
    the letter (i, k).  ``moves[top + keys[f]]`` is the move of the
    top of a word whose top code is ``top``: +1 (push) when the word is
    empty or the signs differ, -1 (pop) when the last letter starts at j,
    and 0 (merge) otherwise.  A merge keeps the last letter's sign and
    source, so its code stays; a pop exposes the letter below.
    """

    def __init__(self, n_windows: int):
        self.n1 = n_windows + 1
        self.m = 2 * self.n1
        self.width = 2 * n_windows - 2
        # A top code plus a column stays below m * m.
        self.dtype = np.min_scalar_type(self.m * self.m - 1)

    def _arcs(self, i, P):
        """(ends, keys, push, sums) of the arcs leaving window ``i``, an int
        or a column of windows, along the last axis.  ``sums`` runs over the
        arcs' probabilities in ``P``; its last entry would be 1.0 up to
        round-off and lies above every uniform, so it is left out."""
        # Arc numbers in the code type keep the ends and keys of a block of
        # windows narrow; the sign k = 1 - 2 s needs a signed s.
        s, b = np.divmod(np.arange(self.width, dtype=self.dtype), self.n1 - 2)
        ends = b + 1 + (b + 1 >= i)
        sums = np.cumsum(P[s, i - 1, ends - 1], axis=-1)[..., :-1]
        return ends, s * self.n1 + ends, self.code(i, 1 - 2 * s.astype(int)), sums

    def _moves(self, row):
        """Moves of a top letter in ``row`` (an int or a column) for every
        column ``s' (N+1) + j``.  Row s (N+1) + i is the top letter; a row
        with window 0 is the empty word."""
        s, i = np.divmod(row, self.n1)
        cs, j = np.divmod(np.arange(self.m), self.n1)
        same = (s == cs) & (i != 0)
        return (~same).astype(np.int8) - (same & (i == j))

    def tables(self, P) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The flat tables ``(ends, keys, push, moves)`` of the batch and the
        ``(2N-3, N+1)`` table ``cum`` whose column i holds window i's arc
        sums; row 0 of the first three and column 0 of ``cum`` are padding.
        Each is filled one block of rows at a time, the first three in the
        code type and the moves in int8."""
        ends, keys, push = (np.empty((self.n1, self.width), dtype=self.dtype) for _ in range(3))
        cum = np.empty((self.width - 1, self.n1))
        moves = np.empty((self.m, self.m), dtype=np.int8)
        windows = np.arange(self.m)[:, None]
        for rows in _row_blocks(self.n1, self.width):
            ends[rows], keys[rows], push[rows], cum.T[rows] = self._arcs(windows[rows], P)
        for rows in _row_blocks(self.m, self.m):
            moves[rows] = self._moves(windows[rows])
        return ends.reshape(-1), keys.reshape(-1), push.reshape(-1), moves.reshape(-1), cum

    def code(self, i, k):
        """The code of a letter that leaves window ``i`` with sign ``k``."""
        return ((1 - k) // 2 * self.n1 + i) * self.m

    def weights(self, metric: Metric) -> np.ndarray:
        """Table whose entry ``[code(i, k) // m, j]`` is the weight of arc
        (i, j, k): ``W`` padded with window 0.  Window 0 weighs nothing, and
        so does the diagonal, which ``Metric`` keeps at zero, so a push reads
        its letter's weight less 0 and a pop 0 less its letter's weight."""
        return np.pad(metric.W, ((0, 0), (1, 0), (1, 0))).reshape(self.m, self.n1)

    def rows(self, P, metric: Metric):
        """Lazy rows for the scalar chain.  ``letters[c]`` is the letter of
        code c as ``(moves, weights, c)``: its moves by column and its
        weights by end window, as in ``weights``, with the zero at its own
        window from ``Metric``.  ``arcs[i]`` holds the lists ``(ends, keys,
        letters, sums)`` of window i's arcs, ``letters[f]`` being the letter
        row of ``push[f]``.  Each row is built on its first lookup."""

        def letter(c):
            s, i = divmod(c // self.m, self.n1)
            weights = [0.0] * self.n1
            if i:
                weights[1:] = metric.W[s, i - 1].tolist()
            return self._moves(c // self.m).tolist(), weights, c

        def arc_row(i):
            ends, keys, push, sums = (part.tolist() for part in self._arcs(i, P))
            return ends, keys, [letters[c] for c in push], sums

        letters = _LazyRows(letter)
        return _LazyRows(arc_row), letters

    def word(self, source: int, codes: Sequence[int], target: int) -> Word:
        """The word from ``source`` whose letters have ``codes`` and whose
        last letter ends at ``target``.  Each distinct arc is built once;
        arcs are frozen, so the letters share them."""
        rows = np.array(codes, dtype=np.int64) // self.m
        # A letter is its row s (N+1) + i and its end j, the next source.
        ends = np.append(rows[1:] % self.n1, target)[: len(rows)]
        keys, letters = np.unique(rows * self.n1 + ends, return_inverse=True)
        rows, j = np.divmod(keys, self.n1)
        s, i = np.divmod(rows, self.n1)
        arcs = list(map(Arc, i.tolist(), j.tolist(), (1 - 2 * s).tolist()))
        return Word(source, tuple(map(arcs.__getitem__, letters.tolist())))


class _LazyRows(dict):
    """Rows built by ``build(key)`` on their first lookup."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        row = self[key] = self._build(key)
        return row


def simulate(
    start: Word,
    kernel: TransitionKernel,
    n_steps: int,
    seed: int,
    metric: Optional[Metric] = None,
) -> Trajectory:
    """The body of ``chain.simulate``.  The word is a list of letter codes
    stepped through ``_RewriteTables``, slot 0 the sentinel."""
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if n_steps > MAX_WALK_STEPS:
        raise ValueError(f"n_steps={n_steps} is above the cap {MAX_WALK_STEPS} on one walk's steps")
    kernel.check_windows(start.source, *(arc.j for arc in start.letters))
    metric = metric or word_metric(kernel.n_windows)
    kernel.check_metric(metric)
    rng = np.random.default_rng(seed)
    rules = _RewriteTables(kernel.n_windows)
    arcs, letters = rules.rows(kernel.P, metric)
    stack = [letters[c] for c in [0] + [rules.code(arc.i, arc.k) for arc in start.letters]]
    target = start.target
    mlen = metric_length(start, metric)
    word_lens = np.empty(n_steps + 1, dtype=np.int64)
    metric_lens = np.empty(n_steps + 1, dtype=np.float64)
    word_lens[0] = len(start.letters)
    metric_lens[0] = mlen
    for n in range(1, n_steps + 1):
        ends, keys, push, cum = arcs[target]
        a = bisect_left(cum, rng.random())
        top = stack[-1]
        move = top[0][keys[a]]
        if move > 0:
            top = push[a]
            stack.append(top)
        elif move:
            stack.pop()
        # `top` is now the last letter after a push or a merge, the one
        # removed by a pop: the letter whose end moves from target to j.
        j = ends[a]
        wt = top[1]
        mlen += wt[j] - wt[target]
        word_lens[n] = len(stack) - 1
        metric_lens[n] = mlen
        target = j
    final = rules.word(start.source, [row[2] for row in stack[1:]], target)
    return Trajectory(final, word_lens, metric_lens)


def _spawn_generators(seed, count: int, first: int = 0) -> list:
    """``[default_rng(s) for s in SeedSequence(seed).spawn(first + count)[first:]]``,
    stream for stream: the ``count`` children from index ``first`` on, seeded
    in one pass over a uint32 array of their path indices p.

    ``SeedSequence(seed)`` validates the seed and mixes its entropy into its
    pool.  Child p mixes the same entropy, padded to at least 4 words, and
    then one more word, p: ``mix`` each pool word with ``hashmix(p)``, the
    hash constant continuing after the parent's ``4 + 12 + 4 max(0, L - 4)``
    hashmix calls (L = the entropy's uint32 word count).  Only that round and
    ``generate_state(4, np.uint64)``'s hash of the child's pool run here;
    each PCG64 still seeds itself from those words, through ``_ChildSeed``.
    The arrays hold every product, since numpy warns when a uint32 scalar
    product overflows; scalar constants are Python ints reduced mod 2**32.
    """
    parent = SeedSequence(seed)
    calls = 4 + 12 + 4 * max(0, _entropy_words(parent.entropy) - 4)
    hash_const = _INIT_A * pow(_MULT_A, calls, 2**32) % 2**32
    p = np.arange(first, first + count, dtype=np.uint32)
    pool = np.empty((4, count), dtype=np.uint32)
    for word, row in zip(parent.pool.tolist(), pool):
        # row = mix(word, hashmix(p))
        h = p ^ hash_const
        hash_const = hash_const * _MULT_A % 2**32
        h *= hash_const
        h ^= h >> 16
        row[:] = _MIX_MULT_L * word % 2**32 - _MIX_MULT_R * h
        row ^= row >> 16
    state = np.empty((count, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        word = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B % 2**32
        word *= hash_const
        word ^= word >> 16
        state[:, i] = word
    # Word pairs read as little-endian uint64, as generate_state reads them.
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [Generator(PCG64(_ChildSeed(row))) for row in state]


def _entropy_words(entropy) -> int:
    """The uint32 word count of an entropy that ``SeedSequence`` accepted: an
    int, or a sequence of ints and numeral strings, each int taking at least
    one word."""
    if isinstance(entropy, str):
        entropy = int(entropy, 16) if entropy.startswith("0x") else int(entropy)
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(map(_entropy_words, entropy))


class _ChildSeed:
    """The seed source of one spawned child's PCG64: a
    ``numpy.random.bit_generator.ISeedSequence`` that holds the child's
    ``generate_state(4, np.uint64)`` words, the one request PCG64 makes."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("a spawned child's seed holds only generate_state(4, np.uint64)")
        return self._state


ISeedSequence.register(_ChildSeed)


class _BatchState:
    """Vectorised reduced words for ``n_paths`` independent paths of the
    chain, stepped through the tables of ``_RewriteTables``.  The width
    ``n_paths`` is fixed for the batch's life: no path ever leaves it.

    ``stack`` is depth-major, shape ``(cap, n_paths)``: slot ``d`` of a path
    holds the code of its ``d``-th letter, and slot 0 the sentinel code 0 of
    the empty word.  Per path the state keeps ``pos``, the flat index of its
    top slot (``depth * n_paths + path``), and its ``target`` window.
    ``depth`` is derived from these.

    The capacity follows the depth the paths reach, not the steps taken.
    A depth rises by at most one per step, so ``cap - 1 - depth.max()``
    steps fit for sure, and the state counts them down.  When the count
    runs out it reads that room again; most words rise far slower than one
    letter per step, so there is often room left.  Only when fewer than 64
    steps fit does the stack grow, in place.  A new stack and a grown one
    alike get ``_capacity(d)`` slots for a deepest word of d letters: d plus
    ``65 + d // 16``, at most the slots ``max_steps`` could fill.  So the
    stack holds at most that many for its deepest word, unless that word has
    since shrunk.  A margin that scales with the depth keeps growths, each a
    reallocation, few as words deepen; doubling would leave up to twice the
    slots any path uses.

    One step draws an arc from the target window, by counting the arc sums
    in column ``target`` of the table ``cum`` that lie below the path's
    uniform, and rewrites the word with no branch per case: the move table
    shifts ``pos`` by a slot row, and every path writes the arc's push code
    into the slot above its top, which for a merge or a pop is free.
    ``metric_lengths`` then sums the weights of each path's final word once,
    letter by letter, exactly as ``groupoid.metric_length`` does.

    ``starts`` lists (initial word, master seed, first child, path count)
    per group; the groups' paths follow each other.  The q-th path of a
    group starts at its word and draws from child ``first + q`` of its seed,
    whatever shares the batch, so a group's paths can be split between
    batches.  ``_spawn_generators`` seeds a group's children in one
    vectorised pass; its generators equal ``default_rng`` of
    ``SeedSequence(seed).spawn``'s children, stream for stream, and the
    tests pin this.
    """

    def __init__(self, kernel, starts: Sequence[Tuple[Word, int, int, int]], max_steps):
        self.rules = rules = _RewriteTables(kernel.n_windows)
        self._ends, self._keys, self._push, moves, self._cum = rules.tables(kernel.P)
        self.n_paths = n_paths = sum(count for *_, count in starts)
        d0 = max((len(initial.letters) for initial, *_ in starts), default=0)
        # Slots needed: the sentinel, one per letter, and the free slot above
        # the top that every step writes.
        self._slots = d0 + max_steps + 2
        cap0 = self._capacity(d0)
        self.stack = np.zeros((cap0, n_paths), dtype=rules.dtype)
        depth = np.empty(n_paths, dtype=np.int64)
        self.target = np.empty(n_paths, dtype=self._ends.dtype)
        # One child stream per path, split from its group's master seed, so
        # path p's randomness depends on (seed, p) alone.  Uniforms are
        # pre-drawn in chunks to keep stepping vectorised.
        self.rngs = []
        p0 = 0
        for initial, seed, first, count in starts:
            paths = slice(p0, p0 + count)
            for d, arc in enumerate(initial.letters, 1):
                self.stack[d, paths] = rules.code(arc.i, arc.k)
            depth[paths] = len(initial.letters)
            self.target[paths] = initial.target
            self.rngs += _spawn_generators(seed, count, first)
            p0 += count
        self.pos = depth * n_paths + np.arange(n_paths)
        # Steps that fit before the deepest path could outgrow the stack.
        self._room = cap0 - 1 - d0
        self._views()
        # The moves in whole slot rows, the steps of `pos`, in the smallest
        # type that holds -n_paths - 1 and so +n_paths too.
        self._table = moves * np.min_scalar_type(-n_paths - 1).type(n_paths)
        # `_buf` is step-major, (chunk, n_paths), so each step reads one
        # contiguous row.  Paths draw their chunks into the rows of a small
        # block, which is copied into `_buf` one block of columns at a time.
        # Block rows are one longer than the chunk: a row stride of 4 KiB
        # would make that transposing copy alias in the cache.
        self._chunk = 512
        self._block = np.empty((64, self._chunk + 1))[:, : self._chunk]
        self._buf = np.empty((self._chunk, n_paths))
        self._ptr = self._chunk

    def _views(self) -> None:
        # `_above` is the stack shifted down one slot, so `_above[pos]` is
        # the slot above the top.
        self._flat = self.stack.reshape(-1)
        self._above = self._flat[self.n_paths :]

    @property
    def depth(self) -> np.ndarray:
        return self.pos // max(self.n_paths, 1)

    def _next_uniforms(self) -> np.ndarray:
        if self._ptr >= self._chunk:
            step = len(self._block)
            for start in range(0, self.n_paths, step):
                rngs = self.rngs[start : start + step]
                block = self._block[: len(rngs)]
                for rng, row in zip(rngs, block):
                    rng.random(out=row)
                self._buf[:, start : start + len(rngs)] = block.T
            self._ptr = 0
        u = self._buf[self._ptr]
        self._ptr += 1
        return u

    def _capacity(self, depth: int) -> int:
        return min(self._slots, depth + 65 + depth // 16)

    def _grow(self) -> None:
        cap = self.stack.shape[0]
        depth = int(self.depth.max(initial=0))
        room = cap - 1 - depth
        new_cap = cap if room >= 64 else self._capacity(depth)
        if new_cap > cap:
            # `resize` extends the buffer with zeroed slot rows by realloc,
            # not by a second array and a copy.  Its reference check would
            # refuse while a view of the stack is alive, but it counts
            # references, and a profiler hook holds one more to the array
            # during the call.  The only views, `_flat` and `_above`, are
            # dropped here and rebuilt after, and no other object keeps the
            # buffer, so the check is skipped.
            del self._flat, self._above
            self.stack.resize((new_cap, self.n_paths), refcheck=False)
            self._views()
        self._room = room + new_cap - cap

    def advance(self) -> None:
        if self._room <= 0:
            self._grow()
        self._room -= 1
        target = self.target
        # Arc a is drawn when cum[a-1] < u <= cum[a]: a counts the sums below u.
        u = self._next_uniforms()
        drawn = (u > self._cum.take(target, axis=1)).sum(axis=0, dtype=target.dtype)
        arc = target * self.rules.width + drawn
        pos = self.pos
        top = self._flat.take(pos)
        self._above[pos] = self._push.take(arc)
        pos += self._table.take(top + self._keys.take(arc))
        self.target = self._ends.take(arc)

    def metric_lengths(self, metric: Metric) -> np.ndarray:
        """``groupoid.metric_length`` of each path's word, to the last bit:
        the letter weights are added from the first letter on, and
        ``np.add.accumulate`` adds one slot row at a time."""
        if self._room <= 0:
            self._grow()
        m, n1, n_paths = self.rules.m, self.rules.n1, self.n_paths
        # pair[c // 2 + c' // m % n1] is the weight of the letter with code
        # c that ends at the window of the code c' in the slot above it.
        pair = self.rules.weights(metric).reshape(-1)
        # The slot above the top gets the code of the target window, so the
        # last letter ends there like the others.
        self._above[self.pos] = self.rules.code(self.target, 1)
        depth = self.depth
        lengths = np.zeros(n_paths)
        # Blocks of about 2**16 weights (512 KiB) of the slot rows 1..top.
        top = int(depth.max(initial=0))
        for rows in _row_blocks(top, max(n_paths, 1)):
            d0, d1 = rows.start + 1, rows.stop + 1
            index = self.stack[d0 + 1 : d1 + 1] // m
            # index %= n1, which numpy runs many times slower on small ints.
            index -= index // n1 * n1
            index += self.stack[d0:d1] // 2
            weights = pair.take(index)
            weights[np.arange(d0, d1)[:, None] > depth] = 0.0
            weights[0] += lengths
            lengths = np.add.accumulate(weights, axis=0, out=weights)[-1].copy()
        return lengths


def run_length_groups(
    kernel: TransitionKernel,
    metric: Metric,
    n_steps: int,
    starts: Sequence[Tuple[Word, int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The body of ``chain._run_length_groups``: the batch cut by
    ``_shards`` into ``_shard_count`` shards, read at call time, and every
    batch, an empty one too, stepped by ``run_forked``, which forks only
    for the shards after the first."""
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    kernel.check_metric(metric)
    for initial, _, n_paths in starts:
        if n_paths < 0:
            raise ValueError("n_paths must be non-negative")
        kernel.check_windows(initial.source, *(arc.j for arc in initial.letters))
    total = sum(n_paths for *_, n_paths in starts)
    if total * n_steps > MAX_PATH_STEPS:
        raise ValueError(f"{total} paths of {n_steps} steps are {total * n_steps} path-steps, "
                         f"above the cap {MAX_PATH_STEPS}")
    return run_forked(kernel, metric, n_steps, _shards(starts, _shard_count(total, n_steps)) or [[]])


def _shard_count(n_paths: int, n_steps: int) -> int:
    """How many processes step a batch: one per CPU this process may run on,
    at most one per path and one per ``SHARD_PATH_STEPS`` path-steps, and
    one off Linux, where ``fork`` is not used."""
    if not sys.platform.startswith("linux"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_paths, n_paths * n_steps // SHARD_PATH_STEPS))


def _shards(starts: Sequence[Tuple[Word, int, int]], k: int) -> List[List[Tuple[Word, int, int, int]]]:
    """The path range of ``starts`` cut into ``k`` contiguous shards, paths
    ``total * s // k`` up to ``total * (s + 1) // k`` for shard s, each as
    the (initial word, seed, first path, count) of its parts of the groups.
    Empty shards are left out."""
    total = sum(n_paths for *_, n_paths in starts)
    cuts = sorted({total * s // k for s in range(k + 1)})
    shards = []
    for lo, hi in zip(cuts, cuts[1:]):
        shard, p0 = [], 0
        for initial, seed, n_paths in starts:
            first, stop = max(lo - p0, 0), min(hi - p0, n_paths)
            if first < stop:
                shard.append((initial, seed, first, stop - first))
            p0 += n_paths
        shards.append(shard)
    return shards


def _run_shard(kernel, metric, n_steps, starts) -> Tuple[np.ndarray, np.ndarray]:
    """Final (word_len, metric_len) arrays of one batch, in this process."""
    state = _BatchState(kernel, starts, max_steps=n_steps)
    for _ in range(n_steps):
        state.advance()
    # The uniforms and generators are spent: free them before the metric
    # pass adds its own blocks.
    del state._buf, state._block, state.rngs
    return state.depth, state.metric_lengths(metric)


def run_forked(kernel, metric, n_steps, shards) -> Tuple[np.ndarray, np.ndarray]:
    """Shard 0 stepped here and every other shard in a forked child.

    It starts no thread, and a child runs only the stepper and one write
    to its pipe before ``os._exit``.  stdout and stderr are flushed before
    each fork, so no child holds a copy of output still to be written.
    ``children`` maps the pid of each child not yet reaped to the read end
    of its pipe; the ``finally`` kills and reaps every child left in it."""
    children = {}
    parts = []
    try:
        for shard in shards[1:]:
            read, write = os.pipe()
            try:
                for stream in (sys.stdout, sys.stderr):
                    if stream is not None:
                        stream.flush()
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                inherited = [read] + [pipe.fileno() for pipe in children.values()]
                _shard_child(kernel, metric, n_steps, shard, write, inherited)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        parts.append(_run_shard(kernel, metric, n_steps, shards[0]))
        for pid, pipe in list(children.items()):
            with pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if not message:
                raise ChildProcessError(f"a path shard's process ended with exit code "
                                        f"{os.waitstatus_to_exitcode(status)} and sent no result")
            ok, value = pickle.loads(message)
            if not ok:
                raise pickle.loads(value)
            parts.append(value)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _shard_child(kernel, metric, n_steps, shard, write: int, inherited: List[int]) -> NoReturn:
    """The body of a forked child: step ``shard`` and write ``(True,
    arrays)``, or ``(False, pickled exception)``, to the pipe ``write``.  It
    leaves only through ``os._exit``, so no ``finally``, handler or exit
    hook of the frames it inherited runs twice.  An exception that does not
    survive pickling is sent as a ``RuntimeError`` naming its type and
    message."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            result = (True, _run_shard(kernel, metric, n_steps, shard))
        except BaseException as exc:  # raised again in the parent
            try:
                value = pickle.dumps(exc)
                pickle.loads(value)
            except Exception:
                value = pickle.dumps(RuntimeError(f"{type(exc).__qualname__}: {exc}"))
            result = (False, value)
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)
