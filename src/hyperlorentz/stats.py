"""Verification statistics: KS distance, empirical 1-Wasserstein, bootstrap,
and Spearman's rank correlation.

Only numpy is imported, as everywhere in the package: scipy would cost
every CLI run about a second to import, and only the tests use it.
``_spearman_rho`` is the value ``scipy.stats.spearmanr`` gives, bit for
bit, which the tests check against scipy.  ``_quantiles`` is the
value ``np.quantile`` gives by its default (linear) method, bit for bit,
without ``np.quantile``'s ``np.unique``, which imports ``numpy.ma`` (about
10 ms) on first use.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ValidationError, _integer, _real

__all__ = ["ks_statistic", "wasserstein1", "bootstrap_half_width_w1"]


def ks_statistic(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``.

    Standard one-sample form: the maximum over order statistics x_(i) of
    both i/n - F(x_(i)) and F(x_(i)) - (i-1)/n.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValidationError("KS statistic needs at least one sample")
    return _ks_censored(x, x.size, cdf, None)


def _ks_censored(x, n: int, cdf, horizon) -> float:
    """KS distance on [0, horizon) for n samples of which only x, those
    below the horizon, are known: the empirical CDF counts x over n.  Beyond
    the order statistics of x the sup takes the left limit at the horizon,
    F(horizon) - k/n, while k = len(x) < n.
    """
    x = np.sort(x)
    k = len(x)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, k + 1, dtype=float)
    d_plus = np.max(i / n - f, initial=0.0)
    d_minus = np.max(f - (i - 1.0) / n, initial=0.0)
    edge = float(cdf(horizon)) - k / n if k < n else 0.0
    return float(max(d_plus, d_minus, edge, 0.0))


def wasserstein1(a, b) -> float:
    """Exact empirical 1-Wasserstein distance between equal-size samples.

    For equal sizes the optimal coupling matches order statistics, so the
    distance is the mean absolute difference of the sorted samples.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or a.shape != b.shape or a.ndim != 1:
        raise ValidationError("wasserstein1 expects two nonempty equal-length 1-d samples")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


# Index cells (resamples x 2 x n) a bootstrap draws, sorts, gathers and
# averages at once, with at least one resample a group: the cap fixes how
# the draws are laid out in the stream and bounds a call's working memory
# to a group's indices plus two gather buffers (under 1 MiB up to n = 10**4).
_BOOT_CELLS = 1 << 16


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
    two gathered rows.  The resamples are taken in groups of at most
    ``_BOOT_CELLS`` index cells (or one resample).  A group is one
    ``rng.integers`` call of shape (resamples, 2, n), uint16 while
    n <= 2**16 and uint32 above: resample k's index row for ``a``, then its
    row for ``b``.  It is sorted, gathered into two buffers made once a
    call, and averaged before the next group is drawn.

    The interval ignores W1's upward bias: W1 between two finite samples is
    positive even when they share one law, and for two gamma samples of one
    law (n = 1 000 and 3 000, 300 trials each) it exceeded this half-width
    in 77 % and 82 % of trials.  So "W1 +/- half-width excludes 0" is not
    evidence that the two laws differ; a permutation null of W1 is.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or a.shape != b.shape or a.ndim != 1:
        raise ValidationError("bootstrap_half_width_w1 expects two nonempty equal-length 1-d samples")
    n_boot, level = _integer("n_boot", n_boot, 1), _real("bootstrap level", level)
    if not 0.0 < level < 1.0:
        raise ValidationError(f"bootstrap level must lie strictly between 0 and 1, got {level}")
    n = a.size
    dtype = np.uint16 if n <= 1 << 16 else np.uint32
    rows = min(n_boot, max(1, _BOOT_CELLS // (2 * n)))
    da, db = np.empty((rows, n)), np.empty((rows, n))
    reps = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        idx = rng.integers(0, n, (min(rows, n_boot - start), 2, n), dtype=dtype)
        idx.sort(axis=-1)
        d, e = da[: len(idx)], db[: len(idx)]
        # Every index is in range; mode "raise" would gather into a hidden copy first.
        a.take(idx[:, 0], out=d, mode="clip")
        b.take(idx[:, 1], out=e, mode="clip")
        d -= e
        np.abs(d, out=d)
        reps[start : start + len(idx)] = d.mean(axis=1)
    lo, hi = _quantiles(reps, ((1.0 - level) / 2.0, (1.0 + level) / 2.0))
    return float((hi - lo) / 2.0)


def _quantiles(x, qs) -> list:
    """``np.quantile(x, q)`` for each q in [0, 1] of ``qs``, bit for bit, for
    a nonempty 1-d float sample, by numpy's default (linear) method.

    The virtual index v = (n - 1)q lies between the order statistics i =
    floor(v) and i + 1, at weight t = v - i; from v >= n - 1 on, numpy takes
    the last value, index -1, on both sides, so t = v + 1.  A copy of x is
    partitioned at the same indices as numpy's (which orders -0.0 and 0.0
    as numpy does), and numpy's ``_lerp`` interpolates from the upper value
    when t >= 0.5.  A NaN anywhere makes every quantile NaN, as in numpy.
    """
    xs = np.array(x, dtype=float)
    n = xs.size
    vs = [(n - 1) * q for q in qs]
    ends = [(int(v), int(v) + 1) if v < n - 1 else (-1, -1) for v in vs]
    xs.partition(sorted({0, -1}.union(*ends)))
    if math.isnan(xs[-1]):
        return [xs[-1]] * len(qs)
    out = []
    for v, (i, j) in zip(vs, ends):
        t = v - i
        a, b = xs[i], xs[j]
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return out


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, ties sharing the mean of their ranks (a half-integer,
    exact in floating point)."""
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    counts = np.diff(starts, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 0.5 * (counts + 1), counts)
    return ranks


def _spearman_rho(x, y) -> float:
    """Spearman's rank correlation of two equal-length 1-d samples without
    NaN: the Pearson correlation of their average ranks, through the same
    ``np.corrcoef`` call as ``scipy.stats.spearmanr``, so the two agree bit
    for bit.  NaN for fewer than two pairs or a constant sample."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])
