"""Word algebra for the arrow set of the N-window two-chamber groupoid.

Arrows connect window midpoints through the upper (sign +1) or lower
(sign -1) chamber.  Every arrow has a unique reduced representation as an
alternating-sign sequence of arcs; this module implements that normal form
together with composition, inversion and metric lengths.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np


class CompositionError(ValueError):
    """Raised when two arrows with mismatched endpoints are composed."""


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

    @property
    def source(self) -> int:
        return self.i

    @property
    def target(self) -> int:
        return self.j

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

    @property
    def target(self) -> int:
        return self.letters[-1].j if self.letters else self.source

    def is_unit(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return compose(self, other)

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


@dataclass(frozen=True)
class Metric:
    """Non-negative letter weights; the length of a word is the sum over its
    reduced letters, and units have length zero."""

    name: str
    weights: Mapping[Tuple[int, int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in self.weights.items():
            if not math.isfinite(value):
                raise ValueError(f"weight {value} for arc {key} is not finite")
            if value < 0:
                raise ValueError(f"negative weight {value} for arc {key}")

    def weight(self, arc: Arc) -> float:
        return self.weights[(arc.i, arc.j, arc.k)]


def word_metric(n_windows: int) -> Metric:
    """Letter-count length: every arc weighs 1."""
    return Metric("word", _weight_table(n_windows, lambda i, j: 1.0))


def fenced_metric(n_windows: int) -> Metric:
    """Wall-crossing length: an arc from window i to j weighs |i - j|."""
    return Metric("fenced", _weight_table(n_windows, lambda i, j: float(abs(i - j))))


def custom_metric(n_windows: int, weights: Mapping[Tuple[int, int, int], float]) -> Metric:
    table = _weight_table(n_windows, lambda i, j: 0.0)
    table.update({k: float(v) for k, v in weights.items()})
    return Metric("custom", table)


def _weight_table(n_windows, fn) -> Dict[Tuple[int, int, int], float]:
    return {
        (i, j, k): fn(i, j)
        for i in range(1, n_windows + 1)
        for j in range(1, n_windows + 1)
        if i != j
        for k in (1, -1)
    }


def metric_length(w: Word, m: Metric) -> float:
    return float(sum(m.weight(arc) for arc in w.letters))


def other_windows(n_windows: int) -> np.ndarray:
    """(N, N-1) array whose row j lists the 0-based windows other than j."""
    a = np.arange(n_windows - 1)
    return a + (a >= np.arange(n_windows)[:, None])


def chamber_array(table: Mapping[Tuple[int, int, int], float], n_windows: int) -> np.ndarray:
    """A per-arc table as a (2, N, N) array, ``out[s, i-1, j-1] = table[(i, j, k)]``
    with s = 0 for k = +1 and s = 1 for k = -1; the diagonal is no arc and
    reads 0."""
    count = len(table)
    keys = np.fromiter(itertools.chain.from_iterable(table), np.intp, 3 * count).reshape(count, 3)
    values = np.fromiter(table.values(), float, count)
    arcs = keys[:, 0] != keys[:, 1]
    keys, values = keys[arcs], values[arcs]
    out = np.zeros((2, n_windows, n_windows))
    out[(1 - keys[:, 2]) // 2, keys[:, 0] - 1, keys[:, 1] - 1] = values
    return out


def weight_array(metric: Metric, n_windows: int) -> np.ndarray:
    return chamber_array(metric.weights, n_windows)


_UNIT_RE = re.compile(r"^e(\d+)$")
_ARC_RE = re.compile(r"A\((\d+),(\d+),([+-])\)")


def word_to_str(w: Word) -> str:
    return str(w)


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


def word_from_arcs(arcs: Iterable[Arc], source: int | None = None) -> Word:
    """Fold arbitrary (possibly unreduced) arcs into their reduced word."""
    arcs = list(arcs)
    if source is None:
        if not arcs:
            raise ValueError("source window required for an empty word")
        source = arcs[0].i
    out = unit(source)
    for arc in arcs:
        out = append(out, arc)
    return out
