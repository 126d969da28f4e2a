"""Reference routes that only the tests call: one arc of a chamber array read
by its triple, the flat order of the arcs, the arcs leaving a window in
the order the chain draws them, the flat system and its dense Jacobian
built arc by arc, the structured solve with its 2N x 2N coupling solved
whole, the float transfer matrices and their spectral radius, the
plain-float determinant that the finite-difference stencils of
``helpers.fd_partials`` evaluate, the transience root by power iteration
on ``solver.apply_m``, the word-law walk, ``word_laws``, with its one
state cap and the hitting series, the return series and the truncated
``G`` that it gives, a truncated series' partial sum, hitting times
sampled on the batched chain, the lazy-nearest-neighbour law of the
symmetric family's word lengths checked on one simulated path, and the
scalar chain replayed word by word.

Each one recomputes what the library's pipeline computes, by a different
route, so that the tests can check one against the other.  None of them is
on a library path, CLI command or benchmark.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from windwalk import solver
from windwalk._stepper import _BatchState
from windwalk.chain import TransitionKernel, simulate
from windwalk.groupoid import Arc, Metric, Word, append, compose, inverse, metric_length, unit
from windwalk.solver import DEFAULT_TOL, RSolution, SolverError, solve_r

#: ``transience_root``'s power iteration stops once its Collatz-Wielandt
#: bracket bounds the relative error by this, and raises after
#: ``POWER_MAX_ITER`` steps.
POWER_TOL = 1e-12
POWER_MAX_ITER = 100000
#: Words a law of ``word_laws`` may hold before it refuses.  A word state
#: costs about 452 bytes (the ``tracemalloc`` peak over 131069 states of
#: ``symmetric_kernel(3)`` at step 15), and the last law stays alive while
#: the next one grows, so two laws at the cap hold about 0.7 GiB.
DEFAULT_STATE_CAP = 8 * 10**5


class StateSpaceExceeded(RuntimeError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"word-state count {count} exceeds the cap {cap}")
        self.count = count
        self.cap = cap


def arc_entry(array: np.ndarray, i: int, j: int, k: int) -> float:
    """Entry of arc (i, j, k) in a (2, N, N) array; ``KeyError`` for a triple
    that names no arc, rather than a read of the diagonal or a wrapped index."""
    n = array.shape[-1]
    if i == j or not (1 <= i <= n and 1 <= j <= n) or k not in (1, -1):
        raise KeyError((i, j, k))
    return array.item((1 - k) // 2, i - 1, j - 1)


class IndexMap:
    """Documented flat order for the 2N(N-1) arc indices: the sign k runs
    outermost (+1 then -1), then the source i, then the target j skipping
    j = i.  Matrices built on this order are reproducible everywhere."""

    def __init__(self, n_windows: int):
        self.n_windows = n_windows
        self.tuples: List[Tuple[int, int, int]] = [
            (i, j, k)
            for k in (1, -1)
            for i in range(1, n_windows + 1)
            for j in range(1, n_windows + 1)
            if j != i
        ]
        self._flat = {t: n for n, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)

    def flat(self, i: int, j: int, k: int) -> int:
        return self._flat[(i, j, k)]


def flat_system_by_arc(
    kernel: TransitionKernel,
) -> Tuple[IndexMap, np.ndarray, np.ndarray, np.ndarray]:
    """Flat-index data (index, p, A1, C) of the quadratic system at lam = 1,
    built arc by arc through ``arc_entry``: the reference for
    ``solver.system_matrices``, whose stack ``K = [A1; C]`` holds A1 over C."""
    index = IndexMap(kernel.n_windows)
    dim = len(index)
    n = kernel.n_windows

    def prob(i: int, j: int, k: int) -> float:
        return arc_entry(kernel.P, i, j, k)

    p_vec = np.array([prob(i, j, k) for (i, j, k) in index.tuples])
    a1 = np.zeros((dim, dim))
    c = np.zeros((dim, dim))
    for row, (i, j, k) in enumerate(index.tuples):
        for m in range(1, n + 1):
            if m != i and m != j:
                a1[row, index.flat(m, j, k)] = prob(i, m, k)
            if m != i:
                c[row, index.flat(m, i, -k)] = prob(i, m, -k)
    return index, p_vec, a1, c


def build_m_matrix(
    kernel: TransitionKernel, lam: float, values: np.ndarray
) -> np.ndarray:
    """Jacobian-style matrix of the system linearised at ``values``.

    Entry cases: same-(j, k) column block lam*p, opposite-sign block
    lam*p*R, and the diagonal lam * sum of opposite-sign return terms.
    """
    _, _, a1, c = flat_system_by_arc(kernel)
    return lam * (a1 + np.diag(c @ values) + np.diag(values) @ c)


def coupled_solve_2n(system: solver.LinearisedSystem, b: np.ndarray) -> np.ndarray:
    """``system.solve(b)`` with the t of the whole 2N x 2N coupling
    ``[[I, -T+], [-T-, I]]`` LU-solved, with no block elimination: the
    reference for the N x N Schur complement ``system.coupling``."""
    n = b.shape[-1]
    b = solver._offdiag(np.array(b, dtype=float, order="C"))
    a = solver._diag_of_product(system.v, b)
    coupling = np.eye(2 * n)
    coupling[:n, n:] = -system.t_map[0]
    coupling[n:, :n] = -system.t_map[1]
    t = np.linalg.solve(coupling, a.reshape(-1)).reshape(a.shape)
    b += system.lam * t[::-1, :, None] * system.r
    return system._block_solve(b)


def to_flat(matrix: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a (2, N, N) array in ``IndexMap`` order."""
    n = matrix.shape[-1]
    return matrix[:, ~np.eye(n, dtype=bool)].reshape(-1)


def primitivity_pattern_ok(matrix: np.ndarray) -> bool:
    """True when the 0/1 pattern of the matrix cubed is all ones."""
    pattern = (matrix > 0).astype(np.int64)
    return bool((np.linalg.matrix_power(pattern, 3) > 0).all())


def b_matrix_values(r: RSolution, weights: np.ndarray, z: float) -> np.ndarray:
    """Plain float (2, N, N) array of z^w R values (constant terms), one
    N x N block per sign, from the metric's weights ``Metric.W``."""
    return z ** weights * r.values


def spectral_radius_k(
    kernel: TransitionKernel,
    metric: Metric,
    lam: float,
    z: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Spectral radius of the period-2 block matrix K = [[0, B(+1)], [B(-1), 0]]
    at (lam, z).  K^2 = diag(B(+1) B(-1), B(-1) B(+1)), so rho(K) is the
    square root of the spectral radius of B(+1) B(-1), read off its
    eigenvalues: the product is non-negative, so by Perron-Frobenius its
    largest eigenvalue in modulus is its Perron root."""
    if not (0.0 < lam <= 1.0 and 0.0 < z <= 1.0):
        raise ValueError("spectral radius is evaluated for lam, z in (0, 1]")
    b_plus, b_minus = b_matrix_values(solve_r(kernel, lam, tol=tol), metric.W, z)
    return math.sqrt(float(np.abs(np.linalg.eigvals(b_plus @ b_minus)).max()))


def direct_h(
    kernel: TransitionKernel,
    metric: Metric,
    lam: float,
    z: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Plain-float determinant det[I - B(+1)B(-1)] with R freshly solved at
    ``lam``; the finite-difference oracle against the jet pipeline."""
    r = solve_r(kernel, lam, tol=tol)
    n = kernel.n_windows
    b_plus, b_minus = b_matrix_values(r, metric.W, z)
    return float(np.linalg.det(np.eye(n) - b_plus @ b_minus))


def transience_root(kernel: TransitionKernel) -> float:
    """Perron root of the linearised map at lambda=1 with all R set to 1, by
    power iteration on ``solver.apply_m`` at O(N^3) per product.

    This is the recurrence-hypothesis matrix: its root strictly above 1
    certifies that the chain escapes to infinity.

    M is non-negative and every arc's row of it is positive, so D stays
    positive from the all-ones start, and the least and greatest of the
    ratios ``(M D) / D`` over the arcs bracket the root (Collatz-Wielandt;
    Horn & Johnson, *Matrix Analysis*, section 8.1).  Each step takes one
    product, which reads its own ``t = diag(P D)``; ``u = diag(P 1)`` is
    formed once.  It stops once the bracket is
    within ``POWER_TOL`` times its lower end and returns its midpoint;
    ``POWER_MAX_ITER`` steps without that raise SolverError, naming the bracket.
    """
    p = kernel.P
    ones = solver._offdiag(np.ones_like(p))
    u = solver._diag_of_product(p, ones)
    arcs = ones > 0
    d = ones
    for _ in range(POWER_MAX_ITER):
        md, _ = solver.apply_m(p, 1.0, ones, d, u)
        ratios = md[arcs] / d[arcs]
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= POWER_TOL * lo:
            return 0.5 * (lo + hi)
        d = md / hi
    raise SolverError(f"power iteration did not converge in {POWER_MAX_ITER} iterations: "
                      f"the root lies in [{lo!r}, {hi!r}]")


def arcs_from(kernel: TransitionKernel, i: int) -> List[Tuple[Arc, float]]:
    """The arcs leaving window i and their probabilities in ``kernel.P``, in
    the order that the chain's arc draw counts them
    (``_RewriteTables._arcs``): k = +1, then -1; j ascending."""
    return [(Arc(i, j, k), kernel.P.item((1 - k) // 2, i - 1, j - 1))
            for k in (1, -1) for j in range(1, kernel.n_windows + 1) if j != i]


def word_laws(
    kernel: TransitionKernel,
    source: int,
    max_steps: int,
    keep: Optional[Callable[[int, Word], bool]] = None,
) -> Iterator[Dict[Word, float]]:
    """The exact law of the reduced word of the chain started at e_source,
    after each step m = 1..max_steps, as a dict from ``Word`` to probability.

    A word that ``keep(m, word)`` refuses is dropped from the law at step m.
    The caller may remove words from a yielded law; the next step grows from
    what is left.  The walk stops early once the law is empty, and raises
    ``StateSpaceExceeded`` with the count once a law holds more than
    ``DEFAULT_STATE_CAP`` words after the caller's removals.  Arcs are read
    only through ``arcs_from`` and ``groupoid.append``, never through the
    chain's rewrite tables, so the enumeration stays independent of the
    convolution DP and the sampler.
    """
    arcs = {i: arcs_from(kernel, i) for i in range(1, kernel.n_windows + 1)}
    law: Dict[Word, float] = {Word(source): 1.0}
    for m in range(1, max_steps + 1):
        nxt: Dict[Word, float] = {}
        for word, prob in law.items():
            for g, p in arcs[word.target]:
                new = append(word, g)
                if keep is None or keep(m, new):
                    nxt[new] = nxt.get(new, 0.0) + prob * p
        yield nxt
        if len(nxt) > DEFAULT_STATE_CAP:
            raise StateSpaceExceeded(len(nxt), DEFAULT_STATE_CAP)
        if not nxt:
            return
        law = nxt


def word_hitting_series(kernel: TransitionKernel, target: Arc, max_steps: int) -> np.ndarray:
    """``oracle.dp_hitting_series`` by the word-law walk: the law of the
    reduced word, with the target absorbed at each step and every word too
    long to reach it in time dropped."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    kernel.check_windows(target.i, target.j)
    coeffs = np.zeros(max_steps + 1)
    target_word = Word(target.i, (target,))
    laws = word_laws(
        kernel, target.i, max_steps,
        lambda m, word: m + len(compose(inverse(word), target_word)) <= max_steps)
    for m, law in enumerate(laws, start=1):
        coeffs[m] = law.pop(target_word, 0.0)  # absorbed: the walk stops there
    return coeffs


def word_return_series(kernel: TransitionKernel, i: int, max_steps: int) -> np.ndarray:
    """``oracle.dp_return_series`` by the word-law walk: the law of the
    reduced word, with every word too long to shrink back to e_i in time
    dropped."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    kernel.check_windows(i)
    coeffs = np.zeros(max_steps + 1)
    coeffs[0] = 1.0
    e_i = Word(i)
    laws = word_laws(kernel, i, max_steps, lambda m, word: len(word) <= max_steps - m)
    for m, law in enumerate(laws, start=1):
        coeffs[m] = law.get(e_i, 0.0)
    return coeffs


def word_truncated_G(
    kernel: TransitionKernel,
    metric: Metric,
    i: int,
    lam: float,
    z: float,
    max_steps: int,
) -> float:
    """``oracle.dp_truncated_G`` by the word-law walk: the whole law of the
    reduced word at every step, each law summed by ``math.fsum`` in the
    order its words were first reached, so that its sum over thousands of
    words rounds once."""
    total = 1.0  # n = 0 term: the unit word has length 0
    for n, law in enumerate(word_laws(kernel, i, max_steps), start=1):
        expect = math.fsum(prob * z ** metric_length(w, metric) for w, prob in law.items())
        total += lam**n * expect
    return total


def series_eval(coeffs: np.ndarray, lam: float) -> float:
    """The partial sum of ``coeffs[m] * lam**m`` over m <= M."""
    return float(coeffs @ lam ** np.arange(len(coeffs)))


def batch_top(state: _BatchState) -> np.ndarray:
    """The code of each path's top letter; the sentinel 0 for an empty word."""
    return state._flat.take(state.pos)


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
    state = _BatchState(kernel, [(unit(target.i), seed, 0, n_samples)], max_steps=cap)
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
        hit = running & (batch_top(state) == first) & (state.pos < 2 * n_samples) & (state.target == target.j)
        times[hit] = n
        running &= ~hit
    return times


@dataclass
class LazyWalkReport:
    n_steps: int
    seed: int
    freqs: Dict[str, float]       # empirical up/stay/down from length >= 1
    expected: Dict[str, float]
    passes: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.passes.values())


def verify_lazy_walk(kernel: TransitionKernel, n_steps: int, seed: int) -> LazyWalkReport:
    """For the symmetric kernel, |W_n| is a lazy nearest-neighbour walk:
    from positive length it moves up/stays/moves down with probabilities
    (N-1, N-2, 1)/(2(N-1)), and from length zero it always moves up."""
    if n_steps < 2:
        raise ValueError("requires n_steps >= 2")
    n = kernel.n_windows
    uniform = 1.0 / (2 * n - 2)
    if (abs(kernel.P[:, ~np.eye(n, dtype=bool)] - uniform) > 1e-12).any():
        raise ValueError("the lazy-walk law holds only for the symmetric family")
    traj = simulate(unit(1), kernel, n_steps, seed)
    lens = traj.word_lens
    diffs = np.diff(lens)
    from_zero = diffs[lens[:-1] == 0]
    moves = diffs[lens[:-1] >= 1]
    m = len(moves)
    expected = {
        "up": (n - 1) / (2 * (n - 1)),
        "stay": (n - 2) / (2 * (n - 1)),
        "down": 1 / (2 * (n - 1)),
    }
    observed = {
        "up": float((moves == 1).mean()),
        "stay": float((moves == 0).mean()),
        "down": float((moves == -1).mean()),
    }
    passes = {}
    for key, p_exp in expected.items():
        se = np.sqrt(p_exp * (1 - p_exp) / m)
        passes[key] = bool(abs(observed[key] - p_exp) <= 3 * se)
    passes["up_from_zero"] = bool((from_zero == 1).all())
    return LazyWalkReport(n_steps, seed, observed, expected, passes)


class Replay:
    """The scalar chain on ``kernel``, replayed word by word apart from the
    stepper's tables.  A step draws one uniform u of ``default_rng(seed)``,
    as ``simulate`` does, and takes arc a of ``arcs_from(kernel, target)``
    for the a that ``bisect_left`` finds for u in the running sums of the
    arcs' probabilities, the last sum left out; ``groupoid.append`` rewrites
    the word.  Each window's arcs and sums are built on its first draw and
    kept for every later walk on the kernel."""

    def __init__(self, kernel: TransitionKernel):
        self.kernel = kernel
        self._rows = {}

    def _row(self, i: int):
        if i not in self._rows:
            arcs, probs = zip(*arcs_from(self.kernel, i))
            self._rows[i] = arcs, list(accumulate(probs))[:-1]
        return self._rows[i]

    def words(self, start: Word, n_steps: int, seed) -> Iterator[Word]:
        """``start``, then the word after each of ``n_steps`` steps."""
        rng = np.random.default_rng(seed)
        word = start
        yield word
        for _ in range(n_steps):
            arcs, sums = self._row(word.target)
            word = append(word, arcs[bisect_left(sums, rng.random())])
            yield word
