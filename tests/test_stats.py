import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from hyperlorentz import bootstrap_half_width_w1, ks_statistic, stats, wasserstein1
from util import fingerprint

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


def test_ks_censored_hand_evaluated_cases():
    # Of n samples only x, those below the horizon, are known.  {0.5} of 2,
    # horizon 0.8: D- = F(0.5) - 0 = 0.5 beats the left limit 0.8 - 1/2.
    assert stats._ks_censored(np.array([0.5]), 2, UNIFORM, 0.8) == 0.5
    # {0.1} of 4, horizon 0.9: the left limit F(0.9) - 1/4 = 0.65 is the sup.
    assert stats._ks_censored(np.array([0.1]), 4, UNIFORM, 0.9) == pytest.approx(0.65, abs=1e-15)
    # None of 3 known below 0.4: the empirical CDF is 0 up to the horizon.
    assert stats._ks_censored(np.array([]), 3, UNIFORM, 0.4) == 0.4


def test_ks_censored_without_censoring_is_the_standard_form_bit_for_bit():
    rng = np.random.default_rng(5)
    cdf = lambda v: -np.expm1(-np.asarray(v))
    for n in (1, 2, 17, 1000):
        x = rng.exponential(1.0, n)
        s = np.sort(x)
        f, i = cdf(s), np.arange(1.0, n + 1.0)
        textbook = float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n), 0.0))
        assert stats._ks_censored(x, n, cdf, 2.0 * x.max()) == ks_statistic(x, cdf) == textbook


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
    dtype = np.uint16 if n <= 2**16 else np.uint32
    reps = []
    for start in range(0, n_boot, rows):
        idx = rng.integers(0, n, (min(rows, n_boot - start), 2, n), dtype=dtype)
        reps += [wasserstein1(a[ia], b[ib]) for ia, ib in idx]
    lo, hi = np.quantile(reps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return (hi - lo) / 2.0


@pytest.mark.parametrize(
    "n, n_boot, groups",
    [(1, 20, 1), (7, 50, 1), (256, 200, 2), (1000, 200, 7), (20_000, 120, 120), (70_000, 6, 6)],
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


@pytest.mark.parametrize("n", [1000, 3000, 10_000])
def test_bootstrap_memory_is_a_group_plus_two_buffers(n):
    # One group's uint16 indices (at most 128 kB) and two gather buffers of
    # as many resamples: 0.87, 0.85 and 0.96 MiB with the sorted samples.
    rng = np.random.default_rng(8)
    a = rng.normal(0.0, 1.0, n)
    b = rng.normal(0.1, 1.0, n)
    tracemalloc.start()
    try:
        bootstrap_half_width_w1(a, b, np.random.default_rng(9), n_boot=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


@pytest.mark.parametrize(
    "n, seed, n_boot, level, expected, next_draw",
    [
        # full groups of three resamples, of one, and one resample wider than a group
        (9000, 11, 30, 0.95, 0.046245603643437744, 0.4663030197551563),
        (20_000, 12, 120, 0.9, 0.02343091839747749, 0.2302852302153301),
        (40_000, 11, 30, 0.95, 0.017816485346056316, 0.5039478861203562),
        # a last group that is partial
        (1000, 13, 205, 0.95, 0.14887288639776194, 0.65873865157081),
        (3000, 14, 705, 0.8, 0.05015793934483878, 0.3371068420895966),
        # n <= 256, drawn in uint16 like any n up to 2**16
        (256, 15, 300, 0.95, 0.21469395068202163, 0.47061220778257373),
        (2, 17, 5000, 0.95, 1.4293010696118766, 0.5656080562574687),
        (1, 16, 9000, 0.95, 0.0, 0.17236976587136033),
    ],
)
def test_bootstrap_keeps_its_values_at_group_edges(n, seed, n_boot, level, expected, next_draw):
    # The values and generator end states of the bootstrap that draws,
    # sorts, gathers and averages one group at a time.
    rng = np.random.default_rng(seed)
    a = rng.gamma(2.0, 1.0, n)
    b = rng.gamma(2.0, 1.2, n)
    boot = np.random.default_rng(seed + 100)
    assert bootstrap_half_width_w1(a, b, boot, n_boot=n_boot, level=level) == expected
    assert fingerprint([], [boot]) == ([], [repr(next_draw)])


def test_bootstrap_uint32_draws_do_not_depend_on_grouping(monkeypatch):
    # Above n = 2**16 the indices are uint32, which numpy draws straight
    # from the generator's state: the value and end state below, captured
    # from the bootstrap that drew 2**21 cells a group, hold at one resample
    # a group and at three.
    rng = np.random.default_rng(18)
    a = rng.gamma(2.0, 1.0, 70_000)
    b = rng.gamma(2.0, 1.2, 70_000)
    for cells in (stats._BOOT_CELLS, 1 << 19):
        monkeypatch.setattr(stats, "_BOOT_CELLS", cells)
        boot = np.random.default_rng(118)
        assert bootstrap_half_width_w1(a, b, boot, n_boot=40) == 0.01578721790923901
        assert fingerprint([], [boot]) == ([], [repr(0.8411847528262218)])


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


@pytest.mark.parametrize(
    "n, seed, n_boot, level, expected",
    [
        (1, 0, 200, 0.95, 0.0),
        (2, 1, 200, 0.95, 0.3863796272162965),
        (7, 2, 50, 0.5, 0.24505254333690307),
        (300, 3, 200, 0.95, 0.18574379035093108),
        (1000, 4, 200, 0.9, 0.10187577260657135),
        (5000, 5, 120, 0.99, 0.07707521743520065),
    ],
)
def test_bootstrap_half_width_keeps_its_values(n, seed, n_boot, level, expected):
    # Pinned values of this stream layout.
    rng = np.random.default_rng(seed)
    a = rng.gamma(2.0, 1.0, n)
    b = rng.gamma(2.0, 1.2, n)
    got = bootstrap_half_width_w1(a, b, np.random.default_rng(seed + 100), n_boot=n_boot, level=level)
    assert got == expected


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 1001, 10_000])
def test_quantiles_are_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    levels = [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, *rng.uniform(0.5, 0.99, 4)]
    qs = [0.0, 1.0, *[(1.0 - lv) / 2.0 for lv in levels], *[(1.0 + lv) / 2.0 for lv in levels]]
    samples = [
        rng.normal(size=n),
        rng.gamma(2.0, 1.0, n),
        np.round(rng.normal(size=n), 1),  # ties
        rng.integers(0, 3, n).astype(float),  # mostly ties
        rng.choice([-0.0, 0.0, 1.0], n),  # ties of both zeros, which numpy orders by partition
        np.full(n, 2.5),
    ]
    for x in samples:
        assert _bits(stats._quantiles(x, qs)) == _bits(np.quantile(x, qs))


def test_quantiles_of_non_finite_samples_are_numpys():
    with np.errstate(invalid="ignore"):
        for x in ([1.0, math.nan, 2.0, 3.0], [math.inf, 1.0], [-math.inf, math.inf, 1.0], [-0.0]):
            qs = [0.0, 0.3, 0.5, 0.9, 1.0]
            assert _bits(stats._quantiles(x, qs)) == _bits(np.quantile(x, qs))


@pytest.mark.parametrize("n", [3, 4, 10, 101, 1000, 10_000])
def test_spearman_rho_is_scipys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = x + rng.gamma(1.0, 2.0, n)
    samples = [
        (x, y),
        (x, -y),
        (np.round(x, 1), y),  # ties in one sample
        (rng.integers(0, 3, n).astype(float), np.floor(y)),  # ties in both
        (rng.integers(0, 2, n) * 1.5, rng.normal(size=n)),
        (np.arange(n, dtype=float), np.arange(n, dtype=float) ** 2),  # rho = 1
    ]
    for a, b in samples:
        if (a == a[0]).all() or (b == b[0]).all():
            continue
        assert stats._spearman_rho(a, b) == float(sps.spearmanr(a, b).statistic)


def test_spearman_rho_average_ranks_are_exact_half_integers():
    ranks = stats._average_ranks(np.array([2.0, 1.0, 2.0, 3.0, 2.0, 1.0]))
    assert ranks.tolist() == [4.0, 1.5, 4.0, 6.0, 4.0, 1.5]


def test_spearman_rho_of_constant_input_is_nan():
    for a, b in (([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ([3.0, 1.0, 2.0], [5.0] * 3), ([0.0], [1.0])):
        assert math.isnan(stats._spearman_rho(a, b))
