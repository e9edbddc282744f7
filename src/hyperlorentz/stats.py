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


# Index cells (2 x resamples x n) drawn per group of bootstrap resamples,
# with at least one resample a group; a group of this many cells peaks at
# about 32 MB of working memory, whatever n is.
_BOOT_CELLS = 1 << 21


def bootstrap_half_width_w1(
    a,
    b,
    rng: np.random.Generator,
    n_boot: int = 200,
    level: float = 0.95,
) -> float:
    """Half-width of the bootstrap percentile interval for wasserstein1(a, b).

    Both samples are resampled with replacement independently.  Both are
    sorted once; a resample of a sorted sample, gathered at sorted indices,
    is already sorted, so each replicate is the mean absolute difference of
    two gathered rows.  The resamples are drawn in groups of at most
    ``_BOOT_CELLS`` index cells (or one resample), with one
    ``rng.integers`` call a group, of shape (resamples, 2, n) in the
    smallest unsigned dtype that holds n - 1: resample k's index row for
    ``a``, then its row for ``b``.

    The interval ignores W1's upward bias: W1 between two finite samples is
    positive even when they share one law, and for two gamma samples of one
    law (n = 1 000 and 3 000, 300 trials each) it exceeded this half-width
    in 77 % and 82 % of trials.  So "W1 +/- half-width excludes 0" is not
    evidence that the two laws differ; a permutation null of W1 is.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or a.shape != b.shape or a.ndim != 1:
        raise ValueError("bootstrap_half_width_w1 expects two nonempty equal-length 1-d samples")
    if n_boot < 1:
        raise ValueError(f"bootstrap needs at least one resample, got n_boot={n_boot}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"bootstrap level must lie strictly between 0 and 1, got {level}")
    n = a.size
    dtype = np.min_scalar_type(n - 1)
    # numpy radix-sorts 8-bit keys under the stable kind; its default sort is slow on them.
    kind = "stable" if dtype.itemsize == 1 else None
    rows = max(1, _BOOT_CELLS // (2 * n))
    reps = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        m = min(rows, n_boot - start)
        idx = rng.integers(0, n, (m, 2, n), dtype=dtype)
        idx.sort(axis=-1, kind=kind)
        d = a.take(idx[:, 0])  # in place from here: 10-15 % faster than a new array per step
        d -= b.take(idx[:, 1])
        np.abs(d, out=d)
        reps[start : start + m] = d.mean(axis=1)
    lo, hi = np.quantile(reps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float((hi - lo) / 2.0)
