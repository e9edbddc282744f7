import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from hyperlorentz import bootstrap_half_width_w1, ks_statistic, stats, wasserstein1

UNIFORM = lambda x: np.clip(x, 0.0, 1.0)


def test_ks_hand_evaluated_cases():
    # {0.25, 0.75} vs U[0,1]: D+ = max(0.5-0.25, 1-0.75), D- = max(0.25, 0.25)
    assert ks_statistic([0.25, 0.75], UNIFORM) == pytest.approx(0.25, abs=1e-15)
    assert ks_statistic([0.5], UNIFORM) == pytest.approx(0.5, abs=1e-15)


def test_ks_accepts_unsorted_input():
    assert ks_statistic([0.75, 0.25], UNIFORM) == pytest.approx(0.25, abs=1e-15)


def test_ks_quantile_samples_converge():
    prev = 1.0
    for n in (10, 100, 1000, 10000):
        samples = (np.arange(1, n + 1)) / (n + 1.0)
        d = ks_statistic(samples, UNIFORM)
        assert d < prev
        prev = d
    assert prev < 1e-3


def test_ks_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.exponential(1.0, 500)
        mine = ks_statistic(x, lambda v: 1.0 - np.exp(-v))
        ref = sps.kstest(x, sps.expon.cdf).statistic
        assert mine == pytest.approx(float(ref), abs=1e-12)


def test_ks_empty_raises():
    with pytest.raises(ValueError):
        ks_statistic([], UNIFORM)


def test_wasserstein_basic_cases():
    assert wasserstein1([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0
    assert wasserstein1([0.0], [1.0]) == 1.0
    assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-15)


def test_wasserstein_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(0.0, 1.0, 400)
        b = rng.normal(0.3, 1.2, 400)
        assert wasserstein1(a, b) == pytest.approx(
            float(sps.wasserstein_distance(a, b)), abs=1e-12
        )


def test_wasserstein_rejects_bad_shapes():
    with pytest.raises(ValueError):
        wasserstein1([], [])
    with pytest.raises(ValueError):
        wasserstein1([1.0, 2.0], [1.0])


def test_bootstrap_half_width():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, 2000)
    b = rng.normal(0.5, 1.0, 2000)
    hw1 = bootstrap_half_width_w1(a, b, np.random.default_rng(3))
    hw2 = bootstrap_half_width_w1(a, b, np.random.default_rng(3))
    assert hw1 == hw2  # deterministic given the stream
    assert hw1 > 0.0
    # roughly the scale of the standard error of a mean difference
    assert hw1 < 0.2
    big_a = rng.normal(0.0, 1.0, 20000)
    big_b = rng.normal(0.5, 1.0, 20000)
    assert bootstrap_half_width_w1(big_a, big_b, np.random.default_rng(4)) < hw1


def _bootstrap_oracle(a, b, seed, n_boot, level):
    """The replicates rebuilt one by one with wasserstein1, on resamples of
    the sorted samples built from the same index draws, group by group."""
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    rng = np.random.default_rng(seed)
    rows = max(1, stats._BOOT_CELLS // (2 * n))
    reps = []
    for start in range(0, n_boot, rows):
        idx = rng.integers(0, n, (min(rows, n_boot - start), 2, n), dtype=np.min_scalar_type(n - 1))
        reps += [wasserstein1(a[ia], b[ib]) for ia, ib in idx]
    lo, hi = np.quantile(reps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return (hi - lo) / 2.0


@pytest.mark.parametrize(
    "n, n_boot, groups", [(1, 20, 1), (7, 50, 1), (256, 200, 1), (1000, 200, 1), (20_000, 120, 3)]
)
def test_bootstrap_matches_replicates_rebuilt_with_wasserstein1(n, n_boot, groups):
    assert -(-n_boot // max(1, stats._BOOT_CELLS // (2 * n))) == groups
    rng = np.random.default_rng(n)
    a = rng.gamma(2.0, 1.0, n)
    b = rng.gamma(2.0, 1.2, n)
    for level in (0.5, 0.95):
        got = bootstrap_half_width_w1(a, b, np.random.default_rng(7), n_boot=n_boot, level=level)
        assert got == pytest.approx(_bootstrap_oracle(a, b, 7, n_boot, level), rel=1e-12, abs=1e-15)


def test_bootstrap_memory_is_bounded_at_large_n():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 1.0, 100_000)
    b = rng.normal(0.1, 1.0, 100_000)
    tracemalloc.start()
    try:
        bootstrap_half_width_w1(a, b, np.random.default_rng(6), n_boot=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_bootstrap_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    for a, b in (([1.0, 2.0], [1.0]), ([], []), ([[1.0]], [[1.0]])):
        with pytest.raises(ValueError, match="two nonempty equal-length 1-d samples"):
            bootstrap_half_width_w1(a, b, rng)
    for n_boot in (0, -3):
        with pytest.raises(ValueError, match="at least one resample"):
            bootstrap_half_width_w1([1.0, 2.0], [1.0, 3.0], rng, n_boot=n_boot)
    for level in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            bootstrap_half_width_w1([1.0, 2.0], [1.0, 3.0], rng, level=level)
