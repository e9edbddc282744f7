import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats as sps

from hyperlorentz import (
    BallRegion,
    InfeasibleFieldError,
    ObstacleField,
    Point,
    PotentialProfile,
    ValidationError,
    ball_area,
    expected_T1,
    hyp_distance,
    mobius_apply,
    nearest_neighbor_tail,
    sample_field,
    sample_uniform_in_ball,
    shot_noise,
)
from hyperlorentz import experiments, obstacles
from hyperlorentz.geometry import distance_xy
from util import fingerprint, random_mobius

ORIGIN = Point(0.0, 1.0)
TWO_PI = 2.0 * math.pi


def radial_distances(center, pts):
    return distance_xy(pts[:, 0], pts[:, 1], center.x, center.y)


# ---------------------------------------------------------------------------
# uniform sampling in balls
# ---------------------------------------------------------------------------

def test_ball_sampling_stays_inside():
    rng = np.random.default_rng(0)
    center = Point(1.0, 2.0)
    pts = sample_uniform_in_ball(center, 1.5, rng, size=2000)
    assert np.all(radial_distances(center, pts) <= 1.5 + 1e-12)
    p = sample_uniform_in_ball(center, 1.5, rng)
    assert isinstance(p, Point)
    assert hyp_distance(center, p) <= 1.5


def test_ball_sampling_median_radius():
    # analytic inversion: F(eta) = sinh^2(eta/2)/sinh^2(R/2) = 1/2 at
    # eta* = 2 asinh(sinh(1/2)/sqrt(2))
    eta_star = 2.0 * math.asinh(math.sinh(0.5) / math.sqrt(2.0))
    assert eta_star == pytest.approx(0.7212077167133575, abs=1e-15)
    rng = np.random.default_rng(1)
    d = radial_distances(ORIGIN, sample_uniform_in_ball(ORIGIN, 1.0, rng, size=1_000_000))
    assert float(np.median(d)) == pytest.approx(eta_star, abs=2e-3)


def test_ball_sampling_radial_law():
    rng = np.random.default_rng(2)
    R = 2.0
    d = np.sort(radial_distances(ORIGIN, sample_uniform_in_ball(ORIGIN, R, rng, size=100_000)))
    cdf = np.sinh(d / 2.0) ** 2 / math.sinh(R / 2.0) ** 2
    n = len(d)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 0.01


def test_ball_sampling_isometry_pushforward():
    # transporting draws around c by an isometry M matches draws around M(c)
    rng = np.random.default_rng(3)
    m = random_mobius(rng)
    c = Point(0.4, 1.3)
    mc = mobius_apply(m, c)
    pts = sample_uniform_in_ball(c, 1.2, rng, size=4000)
    moved = np.array([(q.x, q.y) for q in (mobius_apply(m, Point(*p)) for p in pts)])
    fresh = sample_uniform_in_ball(mc, 1.2, rng, size=4000)
    res = sps.ks_2samp(radial_distances(mc, moved), radial_distances(mc, fresh))
    assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# Poisson fields
# ---------------------------------------------------------------------------

def test_field_count_matches_area():
    rng = np.random.default_rng(4)
    counts = [len(sample_field(1.0, ORIGIN, 2.0, 0.0, rng, radius=0.5)) for _ in range(10_000)]
    assert np.mean(counts) == pytest.approx(ball_area(2.0), rel=0.02)


def test_field_count_poisson_gof():
    rng = np.random.default_rng(5)
    lam, R = 1.5, 1.5
    mu = lam * ball_area(R)
    counts = np.array([len(sample_field(lam, ORIGIN, R, 0.0, rng, radius=0.5)) for _ in range(10_000)])
    kmax = int(np.quantile(counts, 0.999)) + 1
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = sps.poisson.pmf(np.arange(kmax + 1), mu)
    pmf[kmax] = 1.0 - pmf[:kmax].sum()
    # pool bins with tiny expectation into one for a valid chi-square
    exp = pmf * len(counts)
    keep = exp > 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(exp[keep], exp[~keep].sum())
    res = sps.chisquare(obs, exp)
    assert res.pvalue > 0.01


def test_field_respects_exclusion():
    rng = np.random.default_rng(6)
    for _ in range(200):
        f = sample_field(2.0, ORIGIN, 2.0, 0.5, rng)
        if len(f):
            assert np.min(radial_distances(ORIGIN, f.centers)) > 0.5


def test_field_disjoint_regions_independent():
    # counts in two disjoint sub-balls are independent Poisson
    rng = np.random.default_rng(7)
    c1, c2 = Point(-1.2, 1.0), Point(1.2, 1.0)
    assert hyp_distance(c1, c2) > 1.2  # radius 0.5 balls are disjoint
    n1, n2 = [], []
    for _ in range(6000):
        f = sample_field(2.0, ORIGIN, 3.0, 0.0, rng, radius=0.5)
        d1 = radial_distances(c1, f.centers)
        d2 = radial_distances(c2, f.centers)
        n1.append(int((d1 <= 0.5).sum()))
        n2.append(int((d2 <= 0.5).sum()))
    n1, n2 = np.array(n1), np.array(n2)
    cap1, cap2 = int(np.quantile(n1, 0.995)), int(np.quantile(n2, 0.995))
    table = np.zeros((cap1 + 1, cap2 + 1))
    for a, b in zip(np.minimum(n1, cap1), np.minimum(n2, cap2)):
        table[a, b] += 1
    res = sps.chi2_contingency(table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0])
    assert res.pvalue > 0.01


def test_field_isometry_invariance_of_counts():
    # transporting a field and recounting in a fixed test ball reproduces
    # Poisson(lam * area) statistics
    rng = np.random.default_rng(8)
    lam = 1.5
    m = random_mobius(rng)
    probe = Point(0.3, 1.2)
    probe_moved = mobius_apply(m, probe)
    counts = []
    for _ in range(4000):
        f = sample_field(lam, ORIGIN, 3.0, 0.0, rng, radius=0.5)
        moved = np.array([(q.x, q.y) for q in (mobius_apply(m, Point(*p)) for p in f.centers)])
        counts.append(int((radial_distances(probe_moved, moved) <= 1.0).sum()))
    counts = np.array(counts, dtype=float)
    mu = lam * ball_area(1.0)
    assert counts.mean() == pytest.approx(mu, rel=0.05)
    assert counts.var(ddof=1) == pytest.approx(mu, rel=0.10)  # Poisson: var = mean


def test_field_cap_rejects_huge_configurations():
    rng = np.random.default_rng(9)
    with pytest.raises(InfeasibleFieldError):
        sample_field(1e6, ORIGIN, 20.0, 0.0, rng, radius=0.5)


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("mean", [2.0, 7000.0, 17000.0])
def test_field_is_a_poisson_count_of_annulus_points(mean):
    # sample_field draws a Poisson count and then sample_annulus's points,
    # and leaves the generator where those two draws leave it.  At a mean
    # of 2 points some fields are empty.
    R, exclusion = 3.0, 0.25
    area = BallRegion(ORIGIN, R, exclusion).area
    lam = mean / area
    empty = 0
    for key in range(12):
        ref_rng, rng = philox(key), philox(key)
        ref = obstacles.sample_annulus(ORIGIN, exclusion, R, ref_rng, ref_rng.poisson(lam * area))
        field = sample_field(lam, ORIGIN, R, exclusion, rng)
        assert np.array_equal(ref, field.centers)
        assert np.array_equal(ref_rng.random(8), rng.random(8))  # same state: same next draws
        empty += len(field) == 0
    assert empty > 0 if mean == 2.0 else empty == 0


def test_nearest_equals_a_loop_over_its_fields():
    # Each block (rng, m, lam, R) draws its m counts, then all their points
    # by one sample_annulus call; a field's nearest distance is the least
    # of its points', or R (censored) for an empty field.  Ragged blocks of
    # two levels, at 2 and 5 points a field, so some fields are empty; the
    # 1000-field blocks hold more than a SLICE of points.
    levels = [(2.0 / ball_area(3.0), 3.0), (5.0 / ball_area(1.5), 1.5)]
    keyed = [(k, m, lam, R) for k, m in enumerate([1, 7, 1000, 37]) for lam, R in levels]
    blocks = [(philox(k), m, lam, R) for k, m, lam, R in keyed]
    near, censored = experiments._nearest(blocks)
    ref_near, ref_censored = [], []
    for (k, m, lam, R), (block_rng, *_) in zip(keyed, blocks):
        rng = philox(k)
        counts = rng.poisson(lam * ball_area(R), m)
        pts = obstacles.sample_annulus(ORIGIN, 0.0, R, rng, counts.sum())
        for field in np.split(pts, np.cumsum(counts)[:-1]):
            ref_near.append(radial_distances(ORIGIN, field).min() if len(field) else R)
            ref_censored.append(len(field) == 0)
        assert np.array_equal(rng.random(8), block_rng.random(8))  # same state: same next draws
    assert np.array_equal(near, ref_near) and np.array_equal(censored, ref_censored)
    assert 0 < censored.sum() < len(censored)


# sample_annulus places its points in slices of SLICE; these values are
# those of the sampler that placed them all at once, and of sample_field
# when it placed its points in a loop of its own.
ANNULUS = {
    1: ([["0.83384211922731", "0.83384211922731", "0.83384211922731"],
         ["0.2523629322960046", "0.2523629322960046", "0.2523629322960046"]], ["0.1561347780434731"]),
    4095: ([["1764.689337857959", "0.6537941652644399", "0.9588662906596919"],
            ["7084.9139374402885", "0.10108425321574112", "0.1799104404144826"]], ["0.4587710404607567"]),
    4096: ([["1895.4544439189017", "-1.2637921763237554", "-0.0024529751863087146"],
            ["7433.920008019855", "0.34656595535747986", "0.5746597133274205"]], ["0.6864424897126421"]),
    4097: ([["1223.5495739803496", "-0.7269335408545168", "-3.4866905375561252"],
            ["7098.489082847425", "0.27965502673559334", "5.061396732643435"]], ["0.23221051767821121"]),
    8197: ([["2635.574662430484", "-1.4666743897700745", "-0.4679500852585567"],
            ["14657.249063262472", "0.19601077517158472", "0.5390584872506443"]], ["0.7662423027488944"]),
}
FIELD = {
    4095: (4174, [["1944.3616500674573", "1.1187127670337464", "2.1048330436370857"],
                  ["7307.67066487343", "0.18479200037613547", "1.1243540050359462"]], ["0.9411854027205251"]),
    4096: (4077, [["1670.151417285297", "0.09396014496374916", "1.4883224352687145"],
                  ["7279.0109028060215", "0.09718267386147038", "0.14229048214699605"]], ["0.6925869027904045"]),
    8197: (8327, [["2721.6411821236698", "4.338069564679354", "-2.9543138906211777"],
                  ["14851.53172702101", "0.9651122617340796", "1.8088626804770305"]], ["0.0821206816770309"]),
}


def test_annulus_and_field_points_keep_their_bits_at_slice_edges():
    assert obstacles.SLICE == 4096
    center = Point(0.3, 1.7)
    for size, expected in ANNULUS.items():
        rng = philox(size)
        pts = obstacles.sample_annulus(center, 0.25, 3.0, rng, size)
        assert fingerprint([pts[:, 0], pts[:, 1]], [rng]) == expected
    rng = philox(0)
    assert obstacles.sample_annulus(center, 0.25, 3.0, rng, 0).shape == (0, 2)
    assert repr(float(rng.random())) == "0.011546754286331562"
    for mean, (count, *expected) in FIELD.items():
        rng = philox(mean)
        field = sample_field(mean / (ball_area(3.0) - ball_area(0.25)), center, 3.0, 0.25, rng)
        assert len(field) == count
        assert fingerprint([field.centers[:, 0], field.centers[:, 1]], [rng]) == tuple(expected)


def test_annulus_refuses_points_out_of_float_range_before_drawing():
    # From (0, 1) the flow's e^eta overflows past ln(DBL_MAX) ~ 709.78 while
    # sinh^2(hi / 2) is finite up to ~711; a center low or high enough sends
    # the heights y e^-/+eta to 0 or inf well before.  Unchecked, these
    # calls return NaN coordinates or y = 0.
    bad = [(ORIGIN, 709.9), (ORIGIN, 711.0), (Point(0.0, 1e-300), 700.0), (Point(0.0, 1e300), 700.0)]
    for center, hi in bad:
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match=f"^outer radius {hi} is too large for the center"):
            obstacles.sample_annulus(center, 0.0, hi, rng, 3)
        assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = obstacles.sample_annulus(ORIGIN, 709.0, 709.78, np.random.default_rng(0), 10**4)
    assert np.isfinite(pts).all() and (pts[:, 1] > 0.0).all()


def test_field_region_invariant_enforced():
    region = BallRegion(ORIGIN, 1.0, 0.2)
    with pytest.raises(ValueError):
        ObstacleField(np.array([[0.0, 8.0]]), 0.2, 1.0, region)  # outside outer radius
    with pytest.raises(ValueError):
        ObstacleField(np.array([[0.0, 1.01]]), 0.2, 1.0, region)  # inside exclusion


# ---------------------------------------------------------------------------
# nearest-neighbor laws
# ---------------------------------------------------------------------------

def test_nn_tail_k1_value():
    mu = 4.0 * math.pi * math.sinh(0.25) ** 2
    assert nearest_neighbor_tail(0.5, 1.0, 1) == pytest.approx(math.exp(-mu), rel=1e-12)
    assert nearest_neighbor_tail(0.5, 1.0, 1) == pytest.approx(0.44847713070872713, abs=1e-12)


def test_nn_tail_at_zero_and_ordering():
    for k in (1, 2, 5):
        assert nearest_neighbor_tail(0.0, 2.0, k) == pytest.approx(1.0, abs=1e-14)
    etas = np.linspace(0.01, 2.0, 30)
    t1 = nearest_neighbor_tail(etas, 1.0, 1)
    t2 = nearest_neighbor_tail(etas, 1.0, 2)
    assert np.all(t2 >= t1)


def test_nn_tail_matches_explicit_sum():
    for k in (1, 2, 3, 4):
        for eta in (0.3, 0.8, 1.5):
            mu = 4.0 * math.pi * 0.7 * math.sinh(eta / 2.0) ** 2
            explicit = sum(math.exp(-mu) * mu**j / math.factorial(j) for j in range(k))
            assert nearest_neighbor_tail(eta, 0.7, k) == pytest.approx(explicit, rel=1e-12)


def test_nn_empirical_tail():
    rng = np.random.default_rng(10)
    lam = 1.0
    t1 = []
    for _ in range(20_000):
        f = sample_field(lam, ORIGIN, 3.5, 0.0, rng, radius=0.5)
        t1.append(float(radial_distances(ORIGIN, f.centers).min()))
    t1 = np.sort(t1)
    cdf = 1.0 - nearest_neighbor_tail(t1, lam, 1)
    n = len(t1)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 0.015


def test_expected_t1_against_quadrature():
    # independent route: E[T1] = int_0^inf exp(-2 pi lam (cosh t - 1)) dt,
    # cut where the integrand falls below e^-40
    for lam in (0.03, 0.3, 1.0, 3.0, 100.0):
        x = 2.0 * math.pi * lam
        upper = math.acosh(1.0 + 40.0 / x)
        ref, _ = integrate.quad(
            lambda t: math.exp(-x * (math.cosh(t) - 1.0)), 0.0, upper, epsabs=0.0, epsrel=1e-13
        )
        assert expected_T1(lam) == pytest.approx(ref, rel=1e-10)


def test_expected_t1_large_intensity_euclidean_limit():
    assert expected_T1(100.0) == pytest.approx(0.05, rel=0.01)


def test_expected_t1_is_integral_of_tail():
    lam = 0.8
    tail_integral, _ = integrate.quad(
        lambda eta: nearest_neighbor_tail(eta, lam, 1), 0.0, 20.0, epsabs=1e-12, limit=200
    )
    assert expected_T1(lam) == pytest.approx(tail_integral, abs=1e-6)


def test_expected_t1_against_mpmath_bessel():
    lams = [*np.logspace(-8.0, 8.0, 81), 1e-300]
    with mp.workdps(45):
        for lam in lams:
            x = 2 * mp.pi * mp.mpf(float(lam))
            ref = mp.besselk(0, x) * mp.exp(x)
            assert abs(expected_T1(float(lam)) / ref - 1) < 1e-15, lam


def test_nn_tail_against_mpmath_poisson_cdf():
    # the tail at the mean mu the function forms, up to mu = 700
    lam = 0.7
    top = 2.0 * math.asinh(math.sqrt(700.0 / (4.0 * math.pi * lam)))
    etas = np.concatenate([[0.0, 1e-8], np.linspace(0.01, top, 120)])
    mus = 4.0 * math.pi * lam * np.sinh(etas / 2.0) ** 2
    assert mus[-1] == pytest.approx(700.0)
    with mp.workdps(40):
        for k in range(1, 6):
            got = nearest_neighbor_tail(etas, lam, k)
            for value, mu in zip(got, mus):
                ref = mp.gammainc(k, mp.mpf(float(mu)), mp.inf, regularized=True)
                assert abs(float(value) / ref - 1) < 1e-13, (k, mu)


@pytest.mark.parametrize("eta, lam, k", [(1000.0, 1.0, 3), (1500.0, 1e-3, 2), (math.inf, 1.0, 2), (2000.0, 1.0, 1)])
def test_nn_tail_is_zero_where_its_mean_overflows(eta, lam, k):
    # mu = 4 pi lam sinh^2(eta / 2) overflows to inf, and 0 * inf read nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nearest_neighbor_tail(eta, lam, k) == 0.0
        got = nearest_neighbor_tail(np.array([0.5, eta]), lam, k)
        assert got[0] == nearest_neighbor_tail(0.5, lam, k) and got[1] == 0.0
        assert experiments.t1_cdf(lam)(eta) == 1.0


@pytest.mark.parametrize("k", [True, 1.0, 2.0, 0])
def test_nn_tail_rejects_non_integer_or_nonpositive_order(k):
    with pytest.raises(ValueError):
        nearest_neighbor_tail(0.5, 1.0, k)


# ---------------------------------------------------------------------------
# shot noise
# ---------------------------------------------------------------------------

def triangle_profile(support):
    return PotentialProfile(support, lambda eta: max(0.0, 1.0 - eta / support))


def test_shot_noise_empty():
    assert shot_noise([], triangle_profile(1.0), ORIGIN) == 0.0


def test_shot_noise_single_point():
    prof = triangle_profile(1.0)
    p = Point(0.0, math.exp(0.4))  # distance 0.4 above origin
    assert shot_noise([p], prof, ORIGIN) == pytest.approx(0.6, abs=1e-12)
    far = Point(0.0, math.exp(1.5))
    assert shot_noise([far], prof, ORIGIN) == 0.0


def test_shot_noise_homogeneous():
    # V(Q) has the same law at different probe points
    rng = np.random.default_rng(11)
    prof = triangle_profile(0.8)
    q1, q2 = Point(0.0, 1.0), Point(1.1, 2.4)
    v1, v2 = [], []
    for _ in range(4000):
        f1 = sample_field(2.0, q1, 1.0, 0.0, rng, radius=0.8)
        f2 = sample_field(2.0, q2, 1.0, 0.0, rng, radius=0.8)
        v1.append(shot_noise(f1.centers, prof, q1))
        v2.append(shot_noise(f2.centers, prof, q2))
    res = sps.ks_2samp(v1, v2)
    assert res.pvalue > 0.01


def test_profile_validation():
    with pytest.raises(ValueError):
        PotentialProfile(1.0, lambda eta: 1.0)  # does not vanish outside
    with pytest.raises(ValueError):
        PotentialProfile(1.0, lambda eta: -1.0 if eta < 1.0 else 0.0)
