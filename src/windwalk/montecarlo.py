"""Statistical verification of the limit theorems: law-of-large-numbers and
central-limit checks of the simulated word lengths against the exact drift
and variance.

Band choices: the LLN uses a generous 4-standard-error acceptance band and
the CLT a 99% chi-square band plus the asymptotic 1% Kolmogorov-Smirnov
critical value 1.63/sqrt(n_paths).  At the default sizes the per-suite flake
rate stays below 1e-3; the finite-n bias of the KS threshold is accepted as
an engineering choice.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

import numpy as np

from .chain import TransitionKernel, _run_length_groups, run_length_paths
from .groupoid import Arc, Metric, Word, unit

KS_CRITICAL = 1.63  # asymptotic 1% point of the Kolmogorov distribution


@dataclass
class McReport:
    """Aggregated Monte Carlo verdicts; ``passes`` has one flag per check."""

    n_steps: int
    n_paths: int
    seed: int
    gamma_hat: float
    gamma_se: float
    sigma2_hat: float
    normality_stat: float
    passes: Dict[str, bool]
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> dict:
        # None when the check did not compute a KS distance (NaN is not JSON)
        stat = None if np.isnan(self.normality_stat) else self.normality_stat
        return {**asdict(self), "normality_stat": stat}


def _default_initial() -> Word:
    """A short non-unit word to exercise initial-condition independence."""
    return Word(1, (Arc(1, 2, 1), Arc(2, 3, -1)))


def _check_refs(gamma_ref: float, sigma2_ref: Optional[float], n_steps: int) -> None:
    """Refuse a non-finite reference, an ``n_steps`` beyond the float range,
    or a drift whose centring term ``gamma_ref * n_steps`` overflows, before
    any path is stepped."""
    try:
        drift = gamma_ref * n_steps
    except OverflowError:
        raise ValueError("n_steps must convert to a finite float") from None
    for name, value in (("gamma_ref", gamma_ref), ("sigma2_ref", sigma2_ref),
                        ("gamma_ref * n_steps", drift)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def verify_lln(
    kernel: TransitionKernel,
    metric: Metric,
    gamma_ref: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    sigma2_ref: Optional[float] = None,
) -> McReport:
    """Check that the per-path rate |W_n|/n concentrates on ``gamma_ref``.

    The band is 4 * (sampling SE + sigma_ref / sqrt(n_steps)): the first term
    is the path-to-path spread of the mean, the second the residual bias of
    the finite-n rate.  The run is repeated from a short non-unit initial
    word; the rate must not depend on the starting arrow.

    Both runs step in one batch: ``n_paths`` paths from the unit of window 1
    on the children of ``seed``, then ``n_paths`` from the non-unit word on
    the children of a second seed drawn from ``seed``.  A batch large enough
    is cut into path shards stepped in forked processes on Linux
    (``chain._run_length_groups``).  Each path is reproducible from its
    (seed, path index) alone and equals the corresponding path of
    ``run_length_paths``, bit for bit, however the batch is cut.
    """
    _check_refs(gamma_ref, sigma2_ref, n_steps)
    if sigma2_ref is not None and sigma2_ref < 0:
        raise ValueError("sigma2_ref must be non-negative")
    if n_steps < 10**3 or n_paths < 50:
        raise ValueError("requires n_steps >= 1000 and n_paths >= 50")
    seed2 = int(np.random.SeedSequence(seed).generate_state(2)[1])
    _, ml = _run_length_groups(kernel, metric, n_steps, [
        (unit(1), seed, n_paths), (_default_initial(), seed2, n_paths)])
    ml_unit, ml_word = ml[:n_paths], ml[n_paths:]
    z_unit = (ml_unit - gamma_ref * n_steps) / np.sqrt(n_steps)
    sigma_ref = float(np.sqrt(sigma2_ref)) if sigma2_ref is not None else float(np.std(z_unit, ddof=1))
    passes = {}
    details = {}
    gamma_hat = gamma_se = 0.0
    for tag, ml in (("unit", ml_unit), ("nonunit", ml_word)):
        rates = ml / n_steps
        mean = float(rates.mean())
        se = float(rates.std(ddof=1) / np.sqrt(n_paths))
        band = 4.0 * (se + sigma_ref / np.sqrt(n_steps))
        passes[f"lln_{tag}"] = bool(abs(mean - gamma_ref) <= band)
        details[f"gamma_hat_{tag}"] = mean
        details[f"band_{tag}"] = band
        if tag == "unit":
            gamma_hat, gamma_se = mean, se
    sigma2_hat = float(np.var(z_unit, ddof=1))
    return McReport(n_steps, n_paths, seed, gamma_hat, gamma_se, sigma2_hat,
                    normality_stat=float("nan"), passes=passes, details=details)


def verify_clt(
    kernel: TransitionKernel,
    metric: Metric,
    gamma_ref: float,
    sigma2_ref: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> McReport:
    """Check the fluctuation law of (|W_n| - gamma n) / sqrt(n).

    Two verdicts: the sample variance must fall in the two-sided 99%
    chi-square band around ``sigma2_ref``, and the KS distance to the
    N(0, sigma2_ref) distribution must stay below 1.63/sqrt(n_paths).
    Centering uses the exact drift, not the empirical mean.  The quantiles
    and the normal CDF are computed with ``math`` alone, within rounding of
    scipy's (``_chi2_quantile``, ``_normal_cdf``).
    """
    _check_refs(gamma_ref, sigma2_ref, n_steps)
    if n_steps < 10**4 or n_paths < 10**3:
        raise ValueError("requires n_steps >= 1e4 and n_paths >= 1e3")
    if sigma2_ref <= 0:
        raise ValueError("sigma2_ref must be positive")
    _, ml = run_length_paths(kernel, metric, n_steps, n_paths, seed)
    z = (ml - gamma_ref * n_steps) / np.sqrt(n_steps)
    sigma2_hat = float(np.var(z, ddof=1))
    dof = n_paths - 1
    var_lo = sigma2_ref * _chi2_quantile(0.005, dof) / dof
    var_hi = sigma2_ref * _chi2_quantile(0.995, dof) / dof
    ks = _ks_distance(z, np.sqrt(sigma2_ref))
    ks_threshold = KS_CRITICAL / np.sqrt(n_paths)
    passes = {
        "variance_band": bool(var_lo <= sigma2_hat <= var_hi),
        "ks": bool(ks < ks_threshold),
    }
    details = {
        "var_lo": float(var_lo),
        "var_hi": float(var_hi),
        "ks_threshold": float(ks_threshold),
        "mean_z": float(z.mean()),
    }
    gamma_hat = float((ml / n_steps).mean())
    gamma_se = float((ml / n_steps).std(ddof=1) / np.sqrt(n_paths))
    return McReport(n_steps, n_paths, seed, gamma_hat, gamma_se, sigma2_hat,
                    normality_stat=float(ks), passes=passes, details=details)


def _ks_distance(z: np.ndarray, sd: float) -> float:
    """Kolmogorov-Smirnov distance of the sample ``z`` to N(0, sd^2): the
    statistic of ``scipy.stats.kstest(z, "norm", args=(0.0, sd))``, computed
    by its formula from ``_normal_cdf``, without its p-value."""
    n = len(z)
    cdf = np.array([_normal_cdf(x) for x in (np.sort(z) / sd).tolist()])
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return d_plus if d_plus > d_minus else d_minus


def _normal_cdf(x: float) -> float:
    """Standard normal CDF, split as ``scipy.special.ndtr`` splits it: erf
    near the centre, erfc in the tails, so neither tail loses digits."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def _chi2_quantile(q: float, dof: int) -> float:
    """The q-quantile of the chi-square law with ``dof`` degrees of freedom.

    With a = dof/2 this is 2x for the root x of P(a, x) = q, the regularised
    lower incomplete gamma function; for q > 1/2 it solves Q(a, x) = 1 - q,
    its complement, so the upper tail keeps its digits.  Newton's method
    starts from the Wilson-Hilferty guess (Press et al., Numerical Recipes,
    sec. 6.2).  ``verify_clt`` requires at least 1000 paths, so a >= 499.5,
    where the four Stirling terms of ``_gamma_prefactor`` are exact to double
    precision; smaller a is not supported.
    """
    a = dof / 2
    # Wilson-Hilferty, with the normal quantile of Abramowitz & Stegun 26.2.22.
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    x = a * (1.0 - 1.0 / (9.0 * a) + math.copysign(z, q - 0.5) / (3.0 * math.sqrt(a))) ** 3
    for _ in range(20):  # 3 or 4 steps from this guess reach the root at a >= 499.5
        d = _gamma_prefactor(a, x)
        if q > 0.5:
            residual = (1.0 - q) - a * d * _gamma_q_fraction(a, x)
        else:
            residual = d * _gamma_p_series(a, x) - q
        step = residual / (d * a / x)  # d a / x is the gamma density at x
        x -= step
        if abs(step) <= 1e-14 * x:
            break
    return 2.0 * x


def _gamma_prefactor(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a + 1), as exp(a (log1p(t) - t) - log(2 pi a)/2 - s(a))
    with t = (x - a)/a and s(a) the Stirling series of lgamma(a + 1) to four
    terms.  At the quantiles of a = 500..1000 this is within 5e-15 relative;
    the direct exp(a log x - x - lgamma(a + 1)) cancels to 1.4e-12."""
    t = (x - a) / a
    b = 1.0 / (a * a)
    s = (1 / 12 - b * (1 / 360 - b * (1 / 1260 - b / 1680))) / a
    return math.exp(a * (math.log1p(t) - t) - 0.5 * math.log(2.0 * math.pi * a) - s)


def _gamma_p_series(a: float, x: float) -> float:
    """P(a, x) / _gamma_prefactor(a, x) = sum over n of x^n / ((a+1)...(a+n))."""
    term = total = 1.0
    n = a
    while term > 1e-17 * total:
        n += 1.0
        term *= x / n
        total += term
    return total


def _gamma_q_fraction(a: float, x: float) -> float:
    """Q(a, x) / (a _gamma_prefactor(a, x)) by Legendre's continued fraction,
    1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))), evaluated by the modified
    Lentz method; it converges fast for x > a + 1."""
    b = x + 1.0 - a
    c = math.inf
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 1e-15:
            return h
