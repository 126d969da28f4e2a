"""Independent oracles: exact per-step probability series computed by
dynamic programming, and the closed forms of the worked example families.

They import only ``chain`` and ``groupoid``, no code of the pipeline they
check.  Every series comes from one table, the first-hit law of each
one-letter word (``hitting_step_probabilities``), by exact convolutions
over first-passage decompositions: each coefficient is a finite sum over
path decompositions, with no fixed-point solve involved.  The hitting
series is a row of the table, the return series a renewal sum over it, and
``dp_truncated_G`` chains its rows along the reduced words.  The tests
check all three against the word-law walk of ``tests/reference.py``, which
carries the exact law of the reduced word from step to step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .chain import TransitionKernel
from .groupoid import Arc, Metric, whole_number

#: Work, max_steps^2 N^2, that ``hitting_step_probabilities`` may take: its
#: convolution at step m sums m terms of a (2, N, N) table.  On a shared
#: 2-vCPU host 4000 steps took 0.65 s at N = 3 (1.4e8), 2000 steps 0.47 s at
#: N = 8 (2.6e8) and 1200 steps 0.53 s at N = 20 (5.8e8).
CONVOLUTION_WORK_CAP = 10**9


def hitting_step_probabilities(kernel: TransitionKernel, max_steps: int) -> np.ndarray:
    """Exact P(first hit of each one-letter word = m) for m <= max_steps, as
    a (2, N, N, max_steps + 1) array: the layout of ``kernel.P``, then m.

    First-step decomposition: a same-chamber move relays the hit to the new
    source window, ``offdiag(P_k T_k[m-1])``; an opposite-chamber move
    forces a return to the start window first, in a steps with probability
    ``diag(P_{-k} T_{-k}[a])``, then a fresh hit in the remaining m-1-a.
    Coefficients at horizon m only need horizons below m.  A negative
    horizon raises ``ValueError``, and so does one whose work max_steps^2 N^2
    exceeds ``CONVOLUTION_WORK_CAP``, before the table is allocated.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    work = max_steps**2 * kernel.n_windows**2
    if work > CONVOLUTION_WORK_CAP:
        table = 8 * (max_steps + 1) * kernel.P.size
        raise ValueError(
            f"the convolution to max_steps={max_steps} at N={kernel.n_windows} fills a "
            f"{table}-byte table with work max_steps^2 N^2 = {work}, "
            f"above the cap {CONVOLUTION_WORK_CAP}")
    p = kernel.P
    off = ~np.eye(kernel.n_windows, dtype=bool)
    t = np.zeros((max_steps + 1,) + p.shape)
    back = np.zeros(t.shape[:-1])  # back[a, s, i]: return to i through sign -k in a steps
    t[1:2] = p  # nothing at max_steps = 0
    for m in range(2, max_steps + 1):
        back[m - 1] = np.einsum("kim,kmi->ki", p, t[m - 1])[::-1]
        ret = np.einsum("aki,akij->kij", back[1:m - 1], t[m - 2:0:-1])
        t[m] = (p @ t[m - 1] + ret) * off
    return np.moveaxis(t, 0, -1)


def _return_law(p: np.ndarray, t: np.ndarray, i: int) -> np.ndarray:
    """P(the chain started at e_i sits at e_i after m steps), m <= M, from
    the table t of ``hitting_step_probabilities`` to horizon M."""
    max_steps = t.shape[-1] - 1
    # First return at step m: one step out to an arc, then a first passage
    # back up to the unit, whose law mirrors the hit of the reversed arc.
    u = np.zeros(max_steps + 1)
    u[2:] = np.einsum("kj,kjm->m", p[:, i - 1], t[:, :, i - 1, 1:max_steps])
    s = np.zeros(max_steps + 1)
    s[0] = 1.0
    for m in range(1, max_steps + 1):
        s[m] = float(u[1 : m + 1] @ s[m - 1 :: -1][: m])
    return s


def dp_hitting_series(kernel: TransitionKernel, target: Arc, max_steps: int) -> np.ndarray:
    """Distribution of the first hitting time of the one-letter word ``target``
    from the unit at its source window, truncated at ``max_steps``: the
    probabilities c_0..c_M of a hit at each step, whose sum never exceeds 1."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    kernel.check_windows(target.i, target.j)
    t = hitting_step_probabilities(kernel, max_steps)
    return t[(1 - target.k) // 2, target.i - 1, target.j - 1].copy()


def dp_return_series(kernel: TransitionKernel, i: int, max_steps: int) -> np.ndarray:
    """P(the chain started at e_i sits at e_i after m steps), m <= max_steps,
    as the array c_0..c_M."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    kernel.check_windows(i)
    return _return_law(kernel.P, hitting_step_probabilities(kernel, max_steps), i)


def dp_truncated_G(
    kernel: TransitionKernel,
    metric: Metric,
    i: int,
    lam: float,
    z: float,
    max_steps: int,
) -> float:
    """Partial sum over n <= max_steps of lam^n E[z^(metric length at n)],
    by the first-passage decomposition of the reduced word.

    Each prefix of a reduced word g_1...g_L is a cut point of the walk to
    it, and the walk is the same from every word, so the chain first
    reaches the word at step n with probability (T_1 * ... * T_L)(n): T_l
    is the first-hit law of the letter g_l, a row of
    ``hitting_step_probabilities``, and * the convolution in the step
    count.  It sits at the word at step n with probability
    (T_1 * ... * T_L * s_j)(n), s_j the return law at the word's end
    window j.  Signs alternate along the word and lengths add over its
    letters, so one recursion over d[m, k, j], the z^length-weighted
    probability of first reaching at step m a word that ends at j with a
    letter of sign index k, covers every word: a word grows by a letter of
    the other sign.  The recursion's work is of the table's order,
    max_steps^2 N^2, so the table's ``CONVOLUTION_WORK_CAP`` bounds both.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if not (0.0 <= lam < 1.0 and 0.0 < z <= 1.0):
        raise ValueError("requires lam in [0, 1) and z in (0, 1]")
    kernel.check_windows(i)
    kernel.check_metric(metric)
    table = hitting_step_probabilities(kernel, max_steps)
    a = np.moveaxis(table, -1, 0) * z**metric.W  # a[m, k, l, j]: letter A(l, j, k) at step m
    d = np.zeros(a.shape[:-1])
    for m in range(1, max_steps + 1):
        d[m] = a[m, :, i - 1] + np.einsum("bkl,bklj->kj", d[1:m, ::-1], a[m - 1:0:-1])
    # weighted[j, c]: the partial sum over steps <= c of lam^step s_j(step).
    powers = lam ** np.arange(max_steps + 1)
    returns = np.array([_return_law(kernel.P, table, j) for j in range(1, kernel.n_windows + 1)])
    weighted = np.cumsum(returns * powers, axis=1)
    # A word first reached at step b, ending at j, is the chain's word at
    # step b + c with probability s_j(c), for c <= M - b.
    reached = d.sum(axis=1) * powers[:, None]
    return float(weighted[i - 1, -1]
                 + np.einsum("bj,jb->", reached[1:], weighted[:, :-1][:, ::-1]))


@dataclass
class ClosedFormCase:
    """Reference constants of one worked example family."""

    family: str
    params: Dict[str, float]
    gamma_word: float
    sigma2_word: float
    gamma_fenced: float
    sigma2_fenced: float
    r_values: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "gamma": {"word": self.gamma_word, "fenced": self.gamma_fenced},
            "sigma2": {"word": self.sigma2_word, "fenced": self.sigma2_fenced},
            "r_values": dict(self.r_values),
        }

    def constants(self, metric: str) -> Optional[Tuple[float, float]]:
        """(gamma, sigma2) of the metric named ``metric``; None for a metric
        other than word and fenced, which has no closed form here."""
        return {"word": (self.gamma_word, self.sigma2_word),
                "fenced": (self.gamma_fenced, self.sigma2_fenced)}.get(metric)


def closed_form_symmetric(n: int) -> ClosedFormCase:
    n = whole_number(n)
    if n < 3:
        raise ValueError("symmetric family requires N >= 3")
    gamma_word = (n - 2) / (2 * (n - 1))
    gamma_fenced = (n + 1) * (n - 2) / (6 * (n - 1))
    sigma2_word = (n**2 + 2 * n - 4) / (4 * (n - 1) ** 2)
    sigma2_fenced = (11 * n**5 - 2 * n**4 + 15 * n**3 - 36 * n - 8) / (180 * n * (n - 1) ** 2)
    r_values = {
        "R": 1 / (n - 1),
        "R1": 2 / (n - 2),
        "R2": 4 * (n**2 - 2) / (n - 2) ** 3,
    }
    return ClosedFormCase("symmetric", {"N": n}, gamma_word, sigma2_word,
                          gamma_fenced, sigma2_fenced, r_values)


def closed_form_one_parameter(q: float) -> ClosedFormCase:
    """Exact constants of the mirror-symmetric N=3 family, 0 < q < 1/2."""
    if not (0.0 < q < 0.5):
        raise ValueError(f"q must lie in (0, 1/2), got {q}")
    big_q = np.sqrt((8 - 7 * q) * q)
    gamma_word = (3 * q + (1 - 4 * q) * big_q) / (4 * (1 - 4 * q**2))
    gamma_fenced = (big_q - q) / (2 * (2 * q + 1))
    sigma2_word = (
        4 * (8 + 5 * big_q)
        + (68 - 56 * big_q) * q
        + (500 - 101 * big_q) * q**2
        - (1471 + 64 * big_q) * q**3
        + 8 * (1 + 42 * big_q) * q**4
        + 728 * q**5
    ) / (8 * (1 + 2 * q) ** 3 * (8 - 23 * q + 14 * q**2))
    # Denominator uses Q^2/q = 8 - 7q; with Q^2 itself the value would be off
    # by a factor of q and could not reach its known maximum near 2.016.
    sigma2_fenced = (
        (32 + 4 * big_q)
        + (36 + 28 * big_q) * q
        + (80 - 21 * big_q) * q**2
        - (199 + 30 * big_q) * q**3
        + 70 * q**4
    ) / (2 * (1 + 2 * q) ** 3 * (8 - 7 * q))
    r_values = {
        "Q": float(big_q),
        "R1": 0.5,
        "R2": (3 * q - big_q) / (2 * (2 * q - 1)),
        "R3": (q - 2 + big_q) / (2 * (2 * q - 1)),
        "R1p": (3 * q + 2 + big_q) / (2 * (big_q - q)),
        "R2p": 2 * (q + 1) / big_q,
        "R3p": (2 * big_q + q * (big_q - 6 + q * (5 - 4 * q - 4 * big_q)))
        / (q * (2 * q - 1) * (big_q + 7 * q - 8)),
    }
    return ClosedFormCase("one_parameter", {"q": q}, float(gamma_word), float(sigma2_word),
                          float(gamma_fenced), float(sigma2_fenced),
                          {k: float(v) for k, v in r_values.items()})


#: Published six-significant-digit reference values for the built-in
#: asymmetric N=3 kernel: R at 1, then its first and second derivatives.
ASYMMETRIC_REFERENCE = {
    "r": {
        (2, 1, 1): 0.591572, (2, 3, 1): 0.404666, (2, 1, -1): 0.388890, (2, 3, -1): 0.579542,
        (1, 2, 1): 0.769190, (3, 2, 1): 0.791039, (1, 2, -1): 0.305398, (3, 2, -1): 0.245890,
        (1, 3, 1): 0.386687, (3, 1, 1): 0.538119, (1, 3, -1): 0.387184, (3, 1, -1): 0.300936,
    },
    "d": {
        (2, 1, 1): 1.36978, (2, 3, 1): 1.37284, (2, 1, -1): 2.05937, (2, 3, -1): 2.69097,
        (1, 2, 1): 1.44102, (3, 2, 1): 1.71828, (1, 2, -1): 1.31219, (3, 2, -1): 0.991008,
        (1, 3, 1): 1.56411, (3, 1, 1): 1.99059, (1, 3, -1): 2.01524, (3, 1, -1): 1.19855,
    },
    "v": {
        (2, 1, 1): 10.3365, (2, 3, 1): 12.8916, (2, 1, -1): 26.2278, (2, 3, -1): 32.1490,
        (1, 2, 1): 9.45100, (3, 2, 1): 13.7182, (1, 2, -1): 15.3088, (3, 2, -1): 11.6415,
        (1, 3, 1): 15.5010, (3, 1, 1): 18.8416, (1, 3, -1): 26.1337, (3, 1, -1): 14.3857,
    },
    "gamma_word": 0.272913,
    "sigma2_word": 0.587598,
    "gamma_fenced": 0.334211,
    "sigma2_fenced": 0.916276,
}


def closed_form_asymmetric() -> ClosedFormCase:
    ref = ASYMMETRIC_REFERENCE
    r_values = {f"r_{i}{j}{'p' if k == 1 else 'm'}": v for (i, j, k), v in ref["r"].items()}
    return ClosedFormCase("asymmetric", {}, ref["gamma_word"], ref["sigma2_word"],
                          ref["gamma_fenced"], ref["sigma2_fenced"], r_values)


def closed_form(family: str, **params) -> ClosedFormCase:
    if family == "symmetric":
        return closed_form_symmetric(params["N"])
    if family == "one_parameter":
        return closed_form_one_parameter(float(params["q"]))
    if family == "asymmetric":
        return closed_form_asymmetric()
    raise ValueError(f"unknown closed-form family {family!r}")
