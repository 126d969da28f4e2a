"""The Markov chain on the arrow set: kernel validation, trajectory
generation and hitting-time sampling.

A step draws an arc leaving the word's target window and rewrites the
reduced word by the rule of ``groupoid.append``: push the drawn arc, pop the
last letter, or merge with it.  ``_RewriteTables`` holds the draw's running
arc sums and that rule as flat tables, built per run from the kernel's
``P``, and the scalar ``simulate`` and the batched ``_BatchState`` both step
through them; ``groupoid.append`` itself builds only the words ``simulate``
records.  The kernel keeps nothing of a run.

Randomness comes from numpy's PCG64 generator.  Every multi-path routine
gives path p the generator of the p-th child of
``numpy.random.SeedSequence(master).spawn``, so runs are reproducible from
``(seed, path index)`` alone.  ``_spawn_generators`` seeds a whole batch's
children in one vectorised pass over the path indices; its generators equal
``default_rng`` of those children bit for bit, and the tests pin this.
``numpy.random`` is imported only when a chain runs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groupoid import (Arc, InputError, Metric, Word, append, arc_entries, arc_entry, arc_table,
                       chamber_array, unit, whole_number, word_metric)

ROW_SUM_TOL = 1e-12

# The hash constants of numpy's SeedSequence, which `_spawn_generators`
# replays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class KernelError(InputError):
    """Invalid transition kernel; ``violations`` lists every broken constraint."""


class TransitionKernel:
    """Validated jump probabilities for all ordered window pairs.  A copy of
    the (2, N, N) chamber array ``P`` (``groupoid.chamber_array``) is the one
    store, validated on the array; ``KernelError`` names every violated arc.
    ``given`` masks the entries the caller supplied, by default every arc: an
    arc outside it is missing, and a diagonal entry in it, or nonzero in
    ``P``, is a degenerate arc.

    The kernel is immutable: ``P`` is read-only and nothing is written after
    construction.  ``family`` is the ``(name, params)`` of a family with a
    closed form, else ``None``.
    """

    def __init__(self, P: np.ndarray, name: str = "custom",
                 family: Optional[Tuple[str, dict]] = None,
                 given: Optional[np.ndarray] = None):
        P = np.array(P, dtype=float)
        _check_size(P.shape[-1])
        violations = _violations(P, given)
        if violations:
            raise KernelError(violations)
        self.n_windows = P.shape[-1]
        self.P = P
        self.name = name
        self.family = family
        P.flags.writeable = False

    def check_windows(self, *windows: int) -> None:
        """Raise ``ValueError`` unless every window lies in 1..N."""
        for w in windows:
            if not 1 <= w <= self.n_windows:
                raise ValueError(f"window {w} is outside 1..{self.n_windows}")

    def check_metric(self, metric: Metric) -> None:
        """Raise ``ValueError`` unless ``metric`` weighs the arcs of N windows."""
        if metric.W.shape[-1] != self.n_windows:
            raise ValueError(f"metric {metric.name!r} is sized for N={metric.W.shape[-1]} "
                             f"windows, the kernel for N={self.n_windows}")

    def prob(self, i: int, j: int, k: int) -> float:
        return arc_entry(self.P, i, j, k)

    def arcs_from(self, i: int) -> List[Tuple[Arc, float]]:
        """The arcs leaving window i and their probabilities, in the order
        that the arc draw counts them (``_RewriteTables._arcs``): k = +1,
        then -1; j ascending.  The word-space oracles read the kernel only
        through this list."""
        return [(Arc(i, j, k), self.P.item((1 - k) // 2, i - 1, j - 1))
                for k in (1, -1) for j in range(1, self.n_windows + 1) if j != i]

    def __repr__(self) -> str:
        return f"TransitionKernel(N={self.n_windows}, name={self.name!r})"


def _row_blocks(n_rows: int, row_size: int) -> List[slice]:
    """Slices of whole rows, about 2**16 entries each, that cover n_rows."""
    step = max(1, 2**16 // row_size)
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _check_size(n_windows: int) -> None:
    if n_windows < 3:
        raise KernelError([f"N must be at least 3, got {n_windows}"])


def _violations(P: np.ndarray, given: Optional[np.ndarray]) -> List[str]:
    """Every arc outside (0, 1) or missing, row whose sum is off 1 by more
    than ``ROW_SUM_TOL``, and degenerate entry of a chamber array, N >= 3."""
    n = P.shape[-1]
    violations = []
    # Blocks of windows keep each (2, rows, N) temporary near 1 MiB at any N.
    for rows in _row_blocks(n, n):
        i0 = rows.start
        part = P[:, rows]
        arcs = np.arange(n) != np.arange(n)[rows, None]
        supplied = np.broadcast_to(arcs, part.shape) if given is None else given[:, rows]
        # Window i's arcs in the order (i, j, s): j ascending, then k = +1, -1.
        by_row = np.where(arcs & supplied, part, 0.0).transpose(1, 2, 0)
        missing = (arcs & ~supplied).transpose(1, 2, 0)
        flagged = missing | (arcs & supplied & ~((part > 0.0) & (part < 1.0))).transpose(1, 2, 0)
        # The running sum of each row's given arcs, from j = 1 on.
        sums = np.add.accumulate(by_row.reshape(len(arcs), -1), axis=1)[:, -1].tolist()
        for i, row in enumerate(sums):
            for j, s in np.argwhere(flagged[i]).tolist():
                arc = f"({i0 + i + 1},{j + 1},{1 - 2 * s:+d})"
                violations.append(
                    f"missing probability for arc {arc}" if missing[i, j, s] else
                    f"probability {by_row[i, j, s].item()} for arc {arc} outside (0, 1)")
            if abs(row - 1.0) > ROW_SUM_TOL:
                violations.append(f"row for window {i0 + i + 1} sums to {row!r} "
                                  f"(deficit {1.0 - row:+.3e})")
    diagonal = np.einsum("kii->ik", P) != 0.0
    if given is not None:
        diagonal |= np.einsum("kii->ik", given)
    if diagonal.any():
        extra = sorted((i + 1, i + 1, 1 - 2 * s) for i, s in np.argwhere(diagonal).tolist())
        violations.append(f"entries for degenerate arcs not allowed: {extra}")
    return violations


def symmetric_kernel(n_windows: int) -> TransitionKernel:
    """The totally symmetric family: every arc has probability 1/(2N-2)."""
    _check_size(n_windows)
    arcs = (1.0 - np.eye(n_windows)) / (2 * n_windows - 2)
    return TransitionKernel(np.broadcast_to(arcs, (2, n_windows, n_windows)),
                            name=f"symmetric(N={n_windows})",
                            family=("symmetric", {"N": n_windows}))


def one_parameter_kernel(q: float) -> TransitionKernel:
    """The N=3 one-parameter family with mirror symmetry, 0 < q < 1/2."""
    if not (0.0 < q < 0.5):
        raise KernelError([f"one-parameter q must lie in (0, 1/2), got {q}"])
    chamber = [[0.0, q, 0.5 - q], [0.25, 0.0, 0.25], [0.5 - q, q, 0.0]]
    return TransitionKernel([chamber, chamber], name=f"one_parameter(q={q})",
                            family=("one_parameter", {"q": q}))


#: The arbitrary fixed N=3 kernel used as a built-in asymmetric test case.
ASYMMETRIC_PROBS: Dict[Tuple[int, int, int], Fraction] = {
    (2, 1, 1): Fraction(17, 40),
    (2, 3, 1): Fraction(1, 5),
    (2, 1, -1): Fraction(1, 8),
    (2, 3, -1): Fraction(1, 4),
    (1, 2, 1): Fraction(43, 70),
    (3, 2, 1): Fraction(43, 72),
    (1, 2, -1): Fraction(1, 7),
    (3, 2, -1): Fraction(1, 8),
    (1, 3, 1): Fraction(1, 10),
    (3, 1, 1): Fraction(1, 9),
    (1, 3, -1): Fraction(1, 7),
    (3, 1, -1): Fraction(1, 6),
}


def asymmetric_kernel() -> TransitionKernel:
    P, given = chamber_array(ASYMMETRIC_PROBS, 3)
    return TransitionKernel(P, name="asymmetric", family=("asymmetric", {}), given=given)


#: The named families of the kernel JSON and the keys each family's object takes.
FAMILY_KEYS = {"symmetric": ("N",), "one_parameter_q": ("q",), "asymmetric": ()}


def validate_kernel(raw: dict) -> TransitionKernel:
    """Build a kernel from its JSON form, collecting every violation at once.

    Accepted shapes::

        {"symmetric": {"N": 4}}
        {"one_parameter_q": {"q": 0.25}}
        {"asymmetric": {}}
        {"N": 3, "p": [{"i": 1, "j": 2, "k": 1, "value": 0.25}, ...]}

    Numbers may be numeral text, as in the CLI's ``symmetric:3``.  A value
    of the wrong shape or type, a key that no shape reads, or more than one
    named family raises ``KernelError`` naming it.  ``groupoid.arc_table``
    reads the ``p`` entries, so each entry with a boolean value, an unknown
    key or an arc already given is a violation of its own.
    """
    if not isinstance(raw, dict):
        raise KernelError([f"kernel JSON must be an object, got {raw!r}"])
    families = [key for key in raw if key in FAMILY_KEYS]
    if len(families) > 1:
        raise KernelError([f"kernel JSON names more than one family: {families!r}"])
    violations = [f"unknown kernel key {key!r}" for key in raw if key not in (families or ("N", "p"))]
    for family in families:
        if not isinstance(raw[family], dict):
            violations.append(f"{family!r} must be an object, got {raw[family]!r}")
        else:
            violations += [f"unknown key {key!r} in {family!r}"
                           for key in raw[family] if key not in FAMILY_KEYS[family]]
    if violations:
        raise KernelError(violations)
    try:
        if "symmetric" in raw:
            return symmetric_kernel(whole_number(raw["symmetric"]["N"]))
        if "one_parameter_q" in raw:
            return one_parameter_kernel(float(raw["one_parameter_q"]["q"]))
        if "asymmetric" in raw:
            return asymmetric_kernel()
        if "N" not in raw or "p" not in raw:
            raise KernelError(["kernel JSON must contain 'N' and 'p' (or a named family)"])
        n = whole_number(raw["N"])
        _check_size(n)
    except KernelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise KernelError([f"malformed kernel JSON ({exc!r}): {raw!r}"]) from exc
    try:
        p = arc_table(raw["p"], "value", "'p'")
    except InputError as exc:
        raise KernelError(exc.violations) from exc
    try:
        P, given = chamber_array(p, n)
    except InputError as exc:
        raise KernelError([f"in 'p': {v}" for v in exc.violations]) from exc
    return TransitionKernel(P, given=given)


def kernel_to_json(kernel: TransitionKernel) -> dict:
    return {"N": kernel.n_windows, "p": arc_entries(kernel.P)}


@dataclass
class Trajectory:
    """One realisation of the chain.  ``word_lens``/``metric_lens`` hold the
    two lengths after every step; full words are kept only on request."""

    initial: Word
    seed: int
    final: Word
    word_lens: np.ndarray
    metric_lens: np.ndarray
    states: Optional[List[Word]] = None

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

    ``f = i * width + a`` names arc a leaving window i, in the order of
    ``TransitionKernel.arcs_from``; ``_arcs`` is the one place that order
    is built, for the draw and the rewrite alike.  A step draws arc a for a
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
        (i, j, k): ``W`` padded with window 0.  Window 0 and the diagonal
        weigh nothing, so a push reads its letter's weight less 0 and a pop
        0 less its letter's weight."""
        w = np.pad(metric.W, ((0, 0), (1, 0), (1, 0)))
        np.einsum("kii->ki", w)[...] = 0.0
        return w.reshape(self.m, self.n1)

    def rows(self, P, metric: Metric):
        """Lazy rows for the scalar chain.  ``letters[c]`` is the letter of
        code c as ``(moves, weights, c)``: its moves by column and its
        weights by end window, as in ``weights``.  ``arcs[i]`` holds the
        lists ``(ends, keys, letters, sums)`` of window i's arcs,
        ``letters[f]`` being the letter row of ``push[f]``.  Each row is
        built on its first lookup."""

        def letter(c):
            s, i = divmod(c // self.m, self.n1)
            weights = [0.0] * self.n1
            if i:
                weights[1:] = metric.W[s, i - 1].tolist()
                weights[i] = 0.0
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
    record_words: bool = False,
) -> Trajectory:
    """Run the chain for ``n_steps`` steps from ``start``.

    In the default streaming mode only the word and metric lengths are kept
    per step, so memory stays proportional to the current word length.  The
    word is a list of letter codes stepped through ``_RewriteTables``, slot
    0 the sentinel; recorded words are built by ``groupoid.append``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    kernel.check_windows(start.source, *(arc.j for arc in start.letters))
    metric = metric or word_metric(kernel.n_windows)
    kernel.check_metric(metric)
    rng = np.random.default_rng(seed)
    rules = _RewriteTables(kernel.n_windows)
    arcs, letters = rules.rows(kernel.P, metric)
    stack = [letters[c] for c in [0] + [rules.code(arc.i, arc.k) for arc in start.letters]]
    target = start.target
    mlen = sum(metric.weight(arc) for arc in start.letters)
    word_lens = np.empty(n_steps + 1, dtype=np.int64)
    metric_lens = np.empty(n_steps + 1, dtype=np.float64)
    word_lens[0] = len(start.letters)
    metric_lens[0] = mlen
    states = [start] if record_words else None
    word = start
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
        if record_words:
            word = append(word, Arc(target, j, 1 - 2 * (keys[a] // rules.n1)))
            states.append(word)
        target = j
    final = rules.word(start.source, [row[2] for row in stack[1:]], target)
    return Trajectory(start, seed, final, word_lens, metric_lens, states)


def sample_hitting_times(
    target: Arc,
    kernel: TransitionKernel,
    cap: int,
    seed: int,
    n_samples: int,
) -> np.ndarray:
    """I.i.d. first times the chain from the unit of ``target.i`` is the
    one-letter word ``target``; -1 marks censoring at ``cap``, which a
    positive fraction of samples reach, as the chain is transient.

    Every path stays in the batch to the end.  A path that hits leaves the
    ``running`` mask and keeps stepping, its later steps ignored, and the
    loop stops once no path is running."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    kernel.check_windows(target.i, target.j)
    state = _BatchState(kernel, [(unit(target.i), seed, n_samples)], max_steps=cap)
    # Every path starts at window target.i, so its first letter leaves
    # target.i, and a one-letter word is the target arc exactly when that
    # letter's code and the end window match.  A top position below
    # 2 * n_samples means a depth of at most 1, and the empty word's sentinel
    # code never equals `first`.
    first = state.rules.code(target.i, target.k)
    times = np.full(n_samples, -1, dtype=np.int64)
    running = np.ones(n_samples, dtype=bool)
    for n in range(1, cap + 1):
        if not running.any():
            break
        state.advance()
        hit = running & (state.top() == first) & (state.pos < 2 * n_samples) & (state.target == target.j)
        times[hit] = n
        running &= ~hit
    return times


def _spawn_generators(seed, count: int) -> list:
    """``[default_rng(s) for s in SeedSequence(seed).spawn(count)]``, stream
    for stream, with the children seeded in one pass over a uint32 array of
    the path indices p.

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
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_ChildSeed)
    parent = SeedSequence(seed)
    calls = 4 + 12 + 4 * max(0, _entropy_words(parent.entropy) - 4)
    hash_const = _INIT_A * pow(_MULT_A, calls, 2**32) % 2**32
    p = np.arange(count, dtype=np.uint32)
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
    steps fit does the stack double, in place, at most to the slots
    ``max_steps`` could fill.  So it holds at most ``2 * depth.max() + 128``
    slots, unless the deepest word has since shrunk.

    One step draws an arc from the target window, by counting the arc sums
    in column ``target`` of the table ``cum`` that lie below the path's
    uniform, and rewrites the word with no branch per case: the move table
    shifts ``pos`` by a slot row, and every path writes the arc's push code
    into the slot above its top, which for a merge or a pop is free.
    ``metric_lengths`` then sums the weights of each path's final word once,
    letter by letter, exactly as ``groupoid.metric_length`` does.

    ``starts`` lists (initial word, master seed, path count) per group; the
    groups' paths follow each other.  Path p of a group starts at its word
    and draws from the p-th child of its seed, whatever shares the batch.
    ``_spawn_generators`` seeds a group's children in one vectorised pass;
    its generators equal ``default_rng`` of ``SeedSequence(seed).spawn``'s
    children, stream for stream, and the tests pin this.
    """

    def __init__(self, kernel, starts: Sequence[Tuple[Word, int, int]], max_steps):
        self.rules = rules = _RewriteTables(kernel.n_windows)
        self._ends, self._keys, self._push, moves, self._cum = rules.tables(kernel.P)
        self.n_paths = n_paths = sum(count for _, _, count in starts)
        d0 = max(len(initial.letters) for initial, _, _ in starts)
        # Slots needed: the sentinel, one per letter, and the free slot above
        # the top that every step writes.
        self._slots = d0 + max_steps + 2
        cap0 = min(self._slots, max(64, 2 * (d0 + 1)))
        self.stack = np.zeros((cap0, n_paths), dtype=rules.dtype)
        depth = np.empty(n_paths, dtype=np.int64)
        self.target = np.empty(n_paths, dtype=self._ends.dtype)
        # One child stream per path, split from its group's master seed, so
        # path p's randomness depends on (seed, p) alone.  Uniforms are
        # pre-drawn in chunks to keep stepping vectorised.
        self.rngs = []
        p0 = 0
        for initial, seed, count in starts:
            paths = slice(p0, p0 + count)
            for d, arc in enumerate(initial.letters, 1):
                self.stack[d, paths] = rules.code(arc.i, arc.k)
            depth[paths] = len(initial.letters)
            self.target[paths] = initial.target
            self.rngs += _spawn_generators(seed, count)
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

    def top(self) -> np.ndarray:
        return self._flat.take(self.pos)

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

    def _grow(self) -> None:
        cap = self.stack.shape[0]
        room = cap - 1 - int(self.depth.max(initial=0))
        new_cap = cap if room >= 64 else min(self._slots, 2 * cap)
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


def run_length_paths(
    kernel: TransitionKernel,
    metric: Metric,
    n_steps: int,
    n_paths: int,
    seed: int,
    initial: Optional[Word] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Final (word_len, metric_len) arrays over ``n_paths`` independent paths.

    Path p follows ``simulate`` on the p-th child of ``seed``; its metric
    length is ``groupoid.metric_length`` of its final word, bit for bit.
    """
    initial = unit(1) if initial is None else initial
    return _run_length_groups(kernel, metric, n_steps, [(initial, seed, n_paths)])


def _run_length_groups(
    kernel: TransitionKernel,
    metric: Metric,
    n_steps: int,
    starts: Sequence[Tuple[Word, int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``run_length_paths`` for several groups of paths in one batch.

    ``starts`` lists (initial word, seed, n_paths) per group, and the paths
    of the groups follow each other in the result.  Each group's paths equal
    ``run_length_paths(kernel, metric, n_steps, n_paths, seed, initial)``
    bit for bit: the batch shares only the stepping.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    kernel.check_metric(metric)
    for initial, _, n_paths in starts:
        if n_paths < 0:
            raise ValueError("n_paths must be non-negative")
        kernel.check_windows(initial.source, *(arc.j for arc in initial.letters))
    state = _BatchState(kernel, starts, max_steps=n_steps)
    for _ in range(n_steps):
        state.advance()
    return state.depth, state.metric_lengths(metric)
