import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from hyperlorentz import (
    BallRegion,
    InfeasibleFieldError,
    ObstacleField,
    Point,
    PotentialProfile,
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
from util import random_mobius

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


@pytest.mark.parametrize("mean, group", [(2.0, 48), (7000.0, 2), (17000.0, 1)])
def test_fields_of_nearests_groups_equal_fields_drawn_alone(monkeypatch, mean, group):
    # _nearest hands _sample_fields its generators in groups of
    # max(1, floor(16 384 / expected count)); each call gives, field by
    # field, the very fields sample_field draws from fresh copies of the
    # same streams, and leaves every generator where sample_field leaves
    # it; both make the draws of a Poisson count and sample_annulus.  At a
    # mean of 2 points some fields are empty.
    R = 3.0
    lam = mean / BallRegion(ORIGIN, R).area
    calls = []

    def spy(*args):
        out = obstacles._sample_fields(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(experiments, "_sample_fields", spy)

    def streams():
        return [np.random.Generator(np.random.Philox(key=i)) for i in range(48)]

    ref_rngs, solo_rngs, group_rngs = streams(), streams(), streams()
    ref = [obstacles.sample_annulus(ORIGIN, 0.0, R, rng, rng.poisson(lam * BallRegion(ORIGIN, R).area))
           for rng in ref_rngs]
    solo = [sample_field(lam, ORIGIN, R, 0.0, rng, radius=0.5) for rng in solo_rngs]
    assert all(np.array_equal(a, f.centers) for a, f in zip(ref, solo))
    near, censored = experiments._nearest([(rng, 1, lam, R) for rng in group_rngs])
    assert [len(counts) for _, _, counts in calls] == [group] * (48 // group)
    fields = iter(solo)
    for x, y, counts in calls:
        for part, field in zip(np.split(np.column_stack((x, y)), np.cumsum(counts)[:-1]), fields):
            assert np.array_equal(part, field.centers)
    assert next(fields, None) is None
    for a, b, c in zip(ref_rngs, solo_rngs, group_rngs):  # same state: same next draws
        draws = a.random(8)
        assert np.array_equal(draws, b.random(8)) and np.array_equal(draws, c.random(8))
    for f, d, empty in zip(solo, near, censored):
        assert empty == (len(f) == 0)
        assert d == (radial_distances(ORIGIN, f.centers).min() if len(f) else R)
    if mean == 2.0:
        assert any(len(f) == 0 for f in solo)


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
