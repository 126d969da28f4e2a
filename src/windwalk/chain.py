"""The Markov chain on the arrow set: the validated transition kernel, its
named families and its JSON form, and the entries that run the chain.

The steppers live in ``_stepper``: the rewrite tables, the trajectories of
``simulate``, the seeding of many paths, the batched stepper and its forked
path shards.  ``simulate``, ``run_length_paths`` and
``_run_length_groups`` keep their signatures here and import ``_stepper`` on
their first run, so a process that runs no chain, such as every
``windwalk limits`` call, neither loads nor compiles it, nor ``numpy.random``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groupoid import (Arc, InputError, Metric, Word, arc_entries, arc_table,
                       chamber_array, unit, whole_number)

if TYPE_CHECKING:
    from ._stepper import Trajectory

ROW_SUM_TOL = 1e-12


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
#: Each value is the quotient n / d of its rational, the float nearest it.
ASYMMETRIC_PROBS: Dict[Tuple[int, int, int], float] = {
    (2, 1, 1): 17 / 40,
    (2, 3, 1): 1 / 5,
    (2, 1, -1): 1 / 8,
    (2, 3, -1): 1 / 4,
    (1, 2, 1): 43 / 70,
    (3, 2, 1): 43 / 72,
    (1, 2, -1): 1 / 7,
    (3, 2, -1): 1 / 8,
    (1, 3, 1): 1 / 10,
    (3, 1, 1): 1 / 9,
    (1, 3, -1): 1 / 7,
    (3, 1, -1): 1 / 6,
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


def simulate(
    start: Word,
    kernel: TransitionKernel,
    n_steps: int,
    seed: int,
    metric: Optional[Metric] = None,
) -> Trajectory:
    """Run the chain for ``n_steps`` steps from ``start``.

    Only the word and metric lengths are kept per step, with the final word,
    so memory beyond the two length arrays stays proportional to the current
    word length.  The word is a list of letter codes stepped through
    ``_RewriteTables``, slot 0 the sentinel.
    """
    from . import _stepper

    return _stepper.simulate(start, kernel, n_steps, seed, metric)


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

    The batch's path range is cut into ``_stepper._shard_count`` contiguous
    shards, and a cut may fall inside a group.  Shard 0 is stepped here and
    every other shard in a child forked for it, each writing its arrays back
    through a pipe; the parts are joined in path order.  No child outlives
    the call: each is reaped before it returns or raises, also when a shard
    raises or the call is interrupted, and an exception raised in a child
    is raised here with its type and message.
    """
    from . import _stepper

    return _stepper.run_length_groups(kernel, metric, n_steps, starts)
