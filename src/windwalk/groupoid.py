"""Word algebra for the arrow set of the N-window two-chamber groupoid.

Arrows connect window midpoints through the upper (sign +1) or lower
(sign -1) chamber.  Every arrow has a unique reduced representation as an
alternating-sign sequence of arcs; this module implements that normal form
together with composition, inversion and metric lengths.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


class CompositionError(ValueError):
    """Raised when two arrows with mismatched endpoints are composed."""


class InputError(ValueError):
    """Invalid input; ``violations`` lists every problem found, in order."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Arc:
    """A single generating arc from window ``i`` to window ``j``.

    ``k`` is +1 for the upper chamber and -1 for the lower one.  Arcs with
    ``i == j`` are unit arrows and are never stored as letters.
    """

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"degenerate arc ({self.i}, {self.j}): i must differ from j")
        if self.i < 1 or self.j < 1:
            raise ValueError(f"window indices are 1-based, got ({self.i}, {self.j})")
        if self.k not in (1, -1):
            raise ValueError(f"chamber sign must be +1 or -1, got {self.k}")

    def inverse(self) -> "Arc":
        return Arc(self.j, self.i, self.k)

    def __str__(self) -> str:
        return f"A({self.i},{self.j},{'+' if self.k == 1 else '-'})"


@dataclass(frozen=True)
class Word:
    """A reduced word: a unit arrow or a chained, sign-alternating arc sequence."""

    source: int
    letters: Tuple[Arc, ...] = ()

    def __post_init__(self) -> None:
        if self.source < 1:
            raise ValueError("source window index must be >= 1")
        prev = None
        for arc in self.letters:
            if prev is None:
                if arc.i != self.source:
                    raise ValueError(f"first letter {arc} does not start at window {self.source}")
            else:
                if arc.i != prev.j:
                    raise ValueError(f"letters {prev} and {arc} are not chained")
                if arc.k == prev.k:
                    raise ValueError(f"letters {prev} and {arc} violate sign alternation")
            prev = arc

    def __hash__(self) -> int:
        # The dataclass hash would rehash every letter on each dict lookup.
        # It is kept on first use, not at construction: the chain's final
        # word runs to 10^5 letters and is never hashed.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.source, self.letters))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def target(self) -> int:
        return self.letters[-1].j if self.letters else self.source

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return f"e{self.source}"
        return "".join(str(arc) for arc in self.letters)


def unit(i: int) -> Word:
    """The unit arrow at window ``i``.  Units at distinct windows differ."""
    return Word(i)


def append(w: Word, g: Arc) -> Word:
    """Right-compose ``w`` with a single arc and return the reduced result.

    At most one local rewrite is needed: a same-sign pair (last letter, g)
    merges into one arc, or cancels entirely when it backtracks.  No cascade
    is possible: after a merge or a cancellation the exposed neighbour pair
    has opposite signs (the letter preceding the old last letter alternated
    with it), so it is already reduced.
    """
    if w.target != g.i:
        raise CompositionError(f"cannot append {g} to word targeting window {w.target}")
    if not w.letters:
        return Word(w.source, (g,))
    last = w.letters[-1]
    if last.k != g.k:
        return Word(w.source, w.letters + (g,))
    if last.i == g.j:  # backtrack: the pair cancels
        return Word(w.source, w.letters[:-1])
    return Word(w.source, w.letters[:-1] + (Arc(last.i, g.j, g.k),))


def compose(w1: Word, w2: Word) -> Word:
    """Compose two arrows, reducing letter by letter."""
    if w1.target != w2.source:
        raise CompositionError(
            f"target {w1.target} of the left word differs from source {w2.source} of the right"
        )
    out = w1
    for arc in w2.letters:
        out = append(out, arc)
    return out


def inverse(w: Word) -> Word:
    """Reverse the letters and flip each arc's endpoints; signs are kept."""
    letters = tuple(arc.inverse() for arc in reversed(w.letters))
    return Word(w.target, letters)


@dataclass(frozen=True, eq=False)
class Metric:
    """Non-negative letter weights, kept as a read-only copy ``W`` of their
    (2, N, N) chamber array, which any other shape fails with ``ValueError``;
    the length of a word is the sum over its reduced letters, and units have
    length zero."""

    name: str
    W: np.ndarray

    def __post_init__(self) -> None:
        W = np.array(self.W, dtype=float)
        if W.ndim != 3 or W.shape[0] != 2 or W.shape[1] != W.shape[2]:
            raise ValueError(f"metric {self.name!r} weights must have shape (2, N, N), "
                             f"got {W.shape}")
        bad = ~np.isfinite(W) | (W < 0)
        if bad.any():
            # The first bad arc with i, then j, then k = +1, -1 ascending.
            i, j, s = np.argwhere(bad.transpose(1, 2, 0))[0].tolist()
            value, key = W[s, i, j].item(), (i + 1, j + 1, 1 - 2 * s)
            raise ValueError(f"weight {value} for arc {key} is not finite"
                             if not math.isfinite(value) else
                             f"negative weight {value} for arc {key}")
        W.flags.writeable = False
        object.__setattr__(self, "W", W)

    def weight(self, arc: Arc) -> float:
        return arc_entry(self.W, arc.i, arc.j, arc.k)


def word_metric(n_windows: int) -> Metric:
    """Letter-count length: every arc weighs 1."""
    return Metric("word", np.broadcast_to(1.0 - np.eye(n_windows), (2, n_windows, n_windows)))


def fenced_metric(n_windows: int) -> Metric:
    """Wall-crossing length: an arc from window i to j weighs |i - j|."""
    windows = np.arange(n_windows, dtype=float)
    return Metric("fenced", np.broadcast_to(abs(windows[:, None] - windows),
                                            (2, n_windows, n_windows)))


def custom_metric(n_windows: int, weights: Mapping[Tuple[int, int, int], float]) -> Metric:
    """Weights for the arcs ``weights`` names; every other arc weighs 0, and
    keys on the diagonal are ignored."""
    return Metric("custom", chamber_array(weights, n_windows)[0])


def metric_length(w: Word, m: Metric) -> float:
    """Sum of the letters' weights, added left to right from 0 as ``sum``
    adds them; ``KeyError`` for a letter past the metric's N."""
    # The weights as nested lists, kept on first use: a plain list index
    # costs less than a per-letter ``arc_entry``, and a large-N metric that
    # never measures a word never builds them.
    rows = m.__dict__.get("_rows")
    if rows is None:
        rows = m.W.tolist()
        object.__setattr__(m, "_rows", rows)
    total = 0
    try:
        for arc in w.letters:
            total += rows[(1 - arc.k) // 2][arc.i - 1][arc.j - 1]
    except IndexError:
        raise KeyError((arc.i, arc.j, arc.k)) from None
    return float(total)


def other_windows(n_windows: int) -> np.ndarray:
    """(N, N-1) array whose row j lists the 0-based windows other than j."""
    a = np.arange(n_windows - 1)
    return a + (a >= np.arange(n_windows)[:, None])


def arc_entry(array: np.ndarray, i: int, j: int, k: int) -> float:
    """Entry of arc (i, j, k) in a (2, N, N) array; ``KeyError`` for a triple
    that names no arc, rather than a read of the diagonal or a wrapped index."""
    n = array.shape[-1]
    if i == j or not (1 <= i <= n and 1 <= j <= n) or k not in (1, -1):
        raise KeyError((i, j, k))
    return array.item((1 - k) // 2, i - 1, j - 1)


def arc_entries(array: np.ndarray) -> List[dict]:
    """The arcs of a (2, N, N) array as JSON entries ``{"i", "j", "k",
    "value"}``: k = +1 first, then i and j ascending (the solver's flat
    order)."""
    n, values = array.shape[-1], array.tolist()
    return [{"i": i + 1, "j": j + 1, "k": 1 - 2 * s, "value": values[s][i][j]}
            for s in (0, 1) for i in range(n) for j in range(n) if i != j]


def chamber_array(
    table: Mapping[Tuple[int, int, int], float], n_windows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A per-arc table as a (2, N, N) array and the mask of the keys it holds.

    ``out[s, i-1, j-1] = table[(i, j, k)]`` with s = 0 for k = +1 and s = 1
    for k = -1; the diagonal is no arc and reads 0, but ``given`` marks a
    diagonal key.  A key whose window lies outside 1..N or whose sign is not
    +1 or -1 names no arc, and ``InputError`` lists each such key as a
    violation of its own.
    """
    windows = range(1, n_windows + 1)
    stray = [f"entry {n}, {key}, names no arc (windows run 1..{n_windows}, signs are +1 or -1)"
             for n, key in enumerate(table)
             if key[0] not in windows or key[1] not in windows or key[2] not in (1, -1)]
    if stray:
        raise InputError(stray)
    keys = np.array(list(table), dtype=np.intp).reshape(-1, 3)
    at = ((1 - keys[:, 2]) // 2, keys[:, 0] - 1, keys[:, 1] - 1)
    given = np.zeros((2, n_windows, n_windows), dtype=bool)
    given[at] = True
    out = np.zeros((2, n_windows, n_windows))
    out[at] = np.fromiter(table.values(), float, len(table))
    np.einsum("kii->ki", out)[...] = 0.0
    return out, given


def whole_number(value) -> int:
    """``int(value)``, which may parse text but must not change a number:
    1.9, a non-finite float or a boolean raises ``ValueError``.  Text that
    ``int`` does not read is read as a float, as a JSON number is, so
    ``"3.0"`` is 3 and ``"1.9"`` raises."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def arc_table(entries, field: str, name: str) -> Dict[Tuple[int, int, int], float]:
    """The JSON list ``entries`` of ``{"i", "j", "k", field}`` objects, named
    ``name`` in errors, as the ``{(i, j, k): value}`` table of ``chamber_array``.
    ``InputError`` names the position of every entry whose i, j or k is not
    a whole number, whose value is a boolean or not numeric, that has another
    key, or that repeats an arc.  Whether a key names an arc is not checked."""
    if not isinstance(entries, list):
        raise InputError([f"{name} must be a list of arc entries, got {entries!r}"])
    table: Dict[Tuple[int, int, int], float] = {}
    problems = []
    for index, entry in enumerate(entries):
        try:
            key = tuple(whole_number(entry[axis]) for axis in "ijk")
            value = entry[field]
            if isinstance(value, bool):
                raise ValueError(f"{value!r} is not a number")
            value = float(value)
            unknown = [other for other in entry if other not in ("i", "j", "k", field)]
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"entry {index} of {name} is malformed ({exc!r}): {entry!r}")
            continue
        if key in table:
            problems.append(
                f"entry {index} of {name} is a duplicate entry for arc {key}: {entry!r}")
        table[key] = value
    if problems:
        raise InputError(problems)
    return table


_UNIT_RE = re.compile(r"^e(\d+)$")
_ARC_RE = re.compile(r"A\((\d+),(\d+),([+-])\)")


def word_from_str(text: str) -> Word:
    """Parse the compact text form: ``e3`` or ``A(1,2,+)A(2,5,-)``."""
    text = text.strip()
    m = _UNIT_RE.match(text)
    if m:
        return unit(int(m.group(1)))
    arcs = []
    pos = 0
    for m in _ARC_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unparseable word text at offset {pos}: {text!r}")
        arcs.append(Arc(int(m.group(1)), int(m.group(2)), 1 if m.group(3) == "+" else -1))
        pos = m.end()
    if pos != len(text) or not arcs:
        raise ValueError(f"unparseable word text: {text!r}")
    return Word(arcs[0].i, tuple(arcs))
