"""Verification statistics: KS distance, empirical 1-Wasserstein, bootstrap."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["ks_statistic", "wasserstein1", "bootstrap_half_width_w1"]


def ks_statistic(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``.

    Standard one-sample form: the maximum over order statistics x_(i) of
    both i/n - F(x_(i)) and F(x_(i)) - (i-1)/n.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("KS statistic needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    return float(max(d_plus, d_minus, 0.0))


def wasserstein1(a, b) -> float:
    """Exact empirical 1-Wasserstein distance between equal-size samples.

    For equal sizes the optimal coupling matches order statistics, so the
    distance is the mean absolute difference of the sorted samples.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or a.shape != b.shape or a.ndim != 1:
        raise ValueError("wasserstein1 expects two nonempty equal-length 1-d samples")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def bootstrap_half_width_w1(
    a,
    b,
    rng: np.random.Generator,
    n_boot: int = 200,
    level: float = 0.95,
) -> float:
    """Half-width of the bootstrap percentile interval for wasserstein1(a, b).

    Both samples are resampled with replacement independently.  The
    interval ignores W1's upward bias: W1 between two finite samples is
    positive even when they share one law, and for two gamma samples of one
    law (n = 1 000 and 3 000, 300 trials each) it exceeded this half-width
    in 77 % and 82 % of trials.  So "W1 +/- half-width excludes 0" is not
    evidence that the two laws differ; a permutation null of W1 is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    reps = np.empty(n_boot)
    for k in range(n_boot):
        ra = a[rng.integers(0, len(a), len(a))]
        rb = b[rng.integers(0, len(b), len(b))]
        reps[k] = wasserstein1(ra, rb)
    lo, hi = np.quantile(reps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float((hi - lo) / 2.0)
