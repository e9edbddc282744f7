import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.integrate import solve_ivp

from hyperlorentz import (
    Direction,
    FlightConfig,
    Point,
    RunawayError,
    State,
    flight_displacement,
    hyp_distance,
    ks_statistic,
    mobius_transport,
    position_at,
    sample_deflection,
    simulate_flight,
)
from hyperlorentz.experiments import _derive_rng, deflection_cdf
from hyperlorentz.flight import _flight_ends
from hyperlorentz.geometry import distance_xy, flow_ahead, geodesic_flow
from util import fingerprint, random_mobius

TWO_PI = 2.0 * math.pi
START = State(Point(0.0, 1.0), Direction(math.pi / 2))


class FixedUniform:
    """Minimal rng stub feeding preset uniforms to sample_deflection."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = self.values[:size]
        del self.values[:size]
        return np.asarray(out)


def test_deflection_inversion_fixed_points():
    assert sample_deflection(FixedUniform([0.5])) == pytest.approx(math.pi, abs=1e-15)
    assert sample_deflection(FixedUniform([0.0])) == 0.0
    assert sample_deflection(FixedUniform([1.0 - 1e-12])) == pytest.approx(TWO_PI, abs=1e-5)
    got = sample_deflection(FixedUniform([0.1, 0.9]), size=2)
    assert got == pytest.approx([4 * math.asin(math.sqrt(0.1)), 4 * math.asin(math.sqrt(0.9))])


def test_deflection_law_ks():
    betas = sample_deflection(_derive_rng(1, 3, 0, 0), 1_000_000)
    assert ks_statistic(betas, deflection_cdf) < 0.002


def test_deflection_mean_and_symmetry():
    betas = sample_deflection(_derive_rng(2, 3, 0, 0), 1_000_000)
    assert betas.mean() == pytest.approx(math.pi, abs=0.003)
    # density is symmetric under beta -> 2*pi - beta
    assert sps.ks_2samp(betas[:200_000], TWO_PI - betas[200_000:400_000]).pvalue > 0.01


def test_flight_zero_rate_limit_is_geodesic():
    cfg = FlightConfig(1e-12, 5.0)
    for i in range(20):
        traj = simulate_flight(START, cfg, _derive_rng(3, 0, 0, i))
        assert traj.events == ()
        assert flight_displacement(traj, 5.0) == pytest.approx(5.0, abs=1e-10)


def flight_ends(s0, cfg, streams):
    """End points x, y and turn counts from the batch engine, one block of
    one path a stream: bit for bit what simulate_flight gives on them."""
    return _flight_ends([(rng, 1) for rng in streams], cfg, s0=s0)


def displacements(s0, cfg, streams):
    """Distances from the start at the horizon, as flight_displacement reads them."""
    x, y, _ = flight_ends(s0, cfg, streams)
    return distance_xy(s0.point.x, s0.point.y, x, y)


def test_flight_event_counts_poisson():
    sigma, t, n = 2.0, 3.0, 20_000
    *_, events = flight_ends(START, FlightConfig(sigma, t), (_derive_rng(4, 0, 0, i) for i in range(n)))
    counts = events.astype(float)
    assert counts.mean() == pytest.approx(sigma * t, rel=0.03)
    assert counts.var(ddof=1) == pytest.approx(sigma * t, rel=0.05)


def test_flight_displacement_bounded_by_time():
    for i in range(300):
        traj = simulate_flight(START, FlightConfig(1.5, 2.0), _derive_rng(5, 0, 0, i))
        for t in (0.5, 1.3, 2.0):
            d = flight_displacement(traj, t)
            assert 0.0 <= d <= t + 1e-9


def test_flight_gap_and_deflection_independence():
    # Only the first two turns are read.  A path turns fewer than twice by
    # t = 20 with probability 21 e^-20, about 4e-8, so the horizon truncates
    # none of the observed pairs.
    cfg = FlightConfig(1.0, 20.0)
    g1, g2, betas = [], [], []
    for i in range(6000):
        traj = simulate_flight(START, cfg, _derive_rng(6, 0, 0, i))
        if len(traj.events) >= 2:
            t1 = traj.events[0].time
            t2 = traj.events[1].time
            g1.append(t1)
            g2.append(t2 - t1)
            betas.append(traj.events[0].deflection)
    n = len(g1)
    assert n > 5900
    tau = sps.kendalltau(g1, g2).statistic
    assert abs(tau) < 3.0 * math.sqrt(2.0 / (2.25 * n))  # ~3 sd of Kendall tau under H0
    rho = sps.spearmanr(g1, betas).statistic
    assert abs(rho) < 3.0 / math.sqrt(n)


def test_flight_isometry_invariance_of_displacement():
    rng = np.random.default_rng(7)
    m = random_mobius(rng)
    moved = mobius_transport(m, START)
    cfg = FlightConfig(1.0, 2.0)
    base = displacements(START, cfg, (_derive_rng(8, 0, 0, i) for i in range(5000)))
    transported = displacements(moved, cfg, (_derive_rng(8, 1, 0, i) for i in range(5000)))
    # zero-event runs put an atom at exactly t; round so both samples agree
    # on its location instead of splitting it by ~1e-15 of float noise
    assert sps.ks_2samp(np.round(base, 9), np.round(transported, 9)).pvalue > 0.01


def test_flight_displacement_reproducible_across_seeds():
    cfg = FlightConfig(1.0, 2.0)
    means = []
    for block in (0, 1):
        d = displacements(START, cfg, (_derive_rng(9, block, 0, i) for i in range(20_000)))
        means.append((d.mean(), d.std(ddof=1) / math.sqrt(len(d))))
    (m1, se1), (m2, se2) = means
    assert abs(m1 - m2) < 3.0 * math.hypot(se1, se2)


def test_flight_trajectory_structure():
    traj = simulate_flight(START, FlightConfig(2.0, 4.0), _derive_rng(10, 0, 0, 0))
    assert all(ev.obstacle_index == -1 for ev in traj.events)
    for ev in traj.events:
        assert ev.post_dir.alpha == pytest.approx(
            (ev.pre_dir.alpha + ev.deflection) % TWO_PI, abs=1e-12
        )
    # positions at event times chain through the flow
    for e1, e2 in zip(traj.events, traj.events[1:]):
        s = position_at(traj, (e1.time + e2.time) / 2.0)
        assert hyp_distance(e1.impact_point, s.point) == pytest.approx(
            (e2.time - e1.time) / 2.0, abs=1e-9
        )


def test_flight_config_validation():
    with pytest.raises(ValueError):
        FlightConfig(0.0, 1.0)
    with pytest.raises(ValueError):
        FlightConfig(1.0, -2.0)


def test_flight_event_cap_raises():
    from hyperlorentz import RunawayError

    with pytest.raises(RunawayError):
        simulate_flight(START, FlightConfig(50.0, 10.0), _derive_rng(11, 0, 0, 0), max_events=5)


def reference_flight(s0, cfg, rng, max_events):
    """One path as a plain loop: draw a gap; if it ends inside the horizon,
    flow there, draw a deflection and turn.  Returns the position at the
    horizon and the number of turns."""
    x, y, alpha, t_now, n = s0.point.x, s0.point.y, s0.dir.alpha, 0.0, 0
    while True:
        gap = rng.exponential(1.0 / cfg.sigma)
        if t_now + gap >= cfg.horizon:
            break
        if n >= max_events:
            raise RunawayError(f"exceeded {max_events} events before the horizon")
        ix, iy, pre = flow_ahead(x, y, alpha, gap)
        alpha = (float(pre) + float(sample_deflection(rng))) % TWO_PI
        x, y, t_now, n = float(ix), float(iy), t_now + gap, n + 1
    end = geodesic_flow(State(Point(x, y), Direction(alpha)), cfg.horizon - t_now)
    return end.x, end.y, n


def test_flight_batch_matches_one_path_at_a_time():
    cfg = FlightConfig(1.5, 2.0)

    def rngs():
        return [_derive_rng(12, 0, 0, i) for i in range(60)]

    want = [reference_flight(START, cfg, rng, 10**6) for rng in rngs()]
    counts = [w[2] for w in want]
    assert min(counts) == 0 and max(counts) >= 6
    x, y, events = _flight_ends([(rng, 1) for rng in rngs()], cfg)
    assert list(zip(x, y, events)) == want
    for rng, (wx, wy, wn) in zip(rngs(), want):
        traj = simulate_flight(START, cfg, rng)
        end = position_at(traj, cfg.horizon).point
        assert (end.x, end.y, len(traj.events)) == (wx, wy, wn)
    # Every path leaves its generator where the plain loop does.
    for ref, rng in zip(rngs(), rngs()):
        reference_flight(START, cfg, ref, 10**6)
        _flight_ends([(rng, 1)], cfg)
        assert ref.random() == rng.random()

    cap = max(counts) - 1
    with pytest.raises(RunawayError, match=f"^exceeded {cap} events before the horizon$"):
        _flight_ends([(rng, 1) for rng in rngs()], cfg, cap)
    with pytest.raises(RunawayError, match=f"^exceeded {cap} events before the horizon$"):
        simulate_flight(START, cfg, rngs()[counts.index(max(counts))], cap)


def test_one_path_blocks_read_what_simulate_flight_reads():
    # The counts and displacements the statistical tests above read through
    # the batch engine, from the start and from a moved start, bit for bit.
    cfg = FlightConfig(1.0, 2.0)
    for s0 in (START, mobius_transport(random_mobius(np.random.default_rng(7)), START)):
        trajs = [simulate_flight(s0, cfg, _derive_rng(14, 0, 0, i)) for i in range(100)]
        *_, events = flight_ends(s0, cfg, (_derive_rng(14, 0, 0, i) for i in range(100)))
        assert events.tolist() == [len(traj.events) for traj in trajs]
        got = displacements(s0, cfg, (_derive_rng(14, 0, 0, i) for i in range(100)))
        assert got.tolist() == [flight_displacement(traj, 2.0) for traj in trajs]


def test_flight_blocks_together_match_each_block_alone():
    # Blocks of 256, a ragged block and a block of one, advanced together:
    # every path ends where it ends when its block runs alone, bit for bit,
    # every generator is left in the same state, and an event cap raises
    # the same error.
    cfg = FlightConfig(1.5, 4.0)
    specs = [((13, 1, 0, 0), 256), ((13, 1, 0, 1), 256), ((13, 1, 0, 2), 37), ((13, 1, 0, 3), 1)]

    def blocks():
        return [(_derive_rng(*key), n) for key, n in specs]

    alone, states = [], []
    for block in blocks():
        alone.append(_flight_ends([block], cfg))
        states.append(repr(block[0].bit_generator.state))  # holds arrays: compare reprs
    longest = [int(events.max()) for *_, events in alone]
    assert min(longest) >= 1
    together = blocks()
    got = _flight_ends(together, cfg)
    for want, col in zip(zip(*alone), got):
        assert np.array_equal(np.concatenate(want), col)
    assert [repr(block[0].bit_generator.state) for block in together] == states

    k = longest.index(max(longest))
    cap = longest[k] - 1
    with pytest.raises(RunawayError) as solo:
        _flight_ends(blocks()[k : k + 1], cfg, cap)
    with pytest.raises(RunawayError) as merged:
        _flight_ends(blocks(), cfg, cap)
    assert str(merged.value) == str(solo.value)


def mean_cosh_displacement(sigma, t):
    """E cosh d_t of the flight: m'' + (4 sigma / 3) m' - m = 0, m(0) = 1,
    m'(0) = 0, as E cos beta = -1/3 under the deflection law."""
    kappa = 2.0 * sigma / 3.0
    omega = math.hypot(1.0, kappa)
    return math.exp(-kappa * t) * (math.cosh(omega * t) + kappa / omega * math.sinh(omega * t))


@pytest.mark.parametrize("sigma, t, expected", [
    (1.0, 2.0, (
        [["-8.400991465485419", "0.264659117842248", "3.068402449298993"],
         ["1487.9251263171209", "0.5942827191896495", "4.752775840280018"],
         ["1015.0", "2.0", "1.0"]],
        ["0.5630383824279807", "0.8634463252380923", "0.4703280928663769", "0.8946389875550936"])),
    (3.0, 5.0, (
        [["-11.967264138682701", "-0.8776670514790913", "2.4290180976241813"],
         ["654.961606298913", "1.7257258498278731", "2.8743854771943473"],
         ["7918.0", "14.0", "18.0"]],
        ["0.16606032274647853", "0.645854107932822", "0.372972905914559", "0.47201013461763985"])),
])
def test_flight_ends_keeps_its_values(sigma, t, expected):
    # Two full blocks, a ragged one and a block of one, advanced together:
    # the end points, turn counts and generator end states _flight_ends gave
    # with its own copy of the per-block draw rule.
    blocks = [(_derive_rng(41, 1, 0, k), n) for k, n in enumerate((256, 256, 19, 1))]
    got = _flight_ends(blocks, FlightConfig(sigma, t))
    assert fingerprint(got, [rng for rng, _ in blocks]) == expected


def test_mean_cosh_displacement_solves_its_ode():
    ts = np.linspace(0.0, 5.0, 11)
    for sigma in (0.5, 1.0, 2.0):
        sol = solve_ivp(
            lambda t, m: [m[1], m[0] - 4.0 * sigma / 3.0 * m[1]],
            (0.0, 5.0), [1.0, 0.0], t_eval=ts, rtol=1e-11, atol=1e-12,
        )
        assert sol.y[0] == pytest.approx([mean_cosh_displacement(sigma, t) for t in ts], rel=1e-8)


def test_block_flight_matches_closed_form_moments():
    # 10^5 paths in blocks of 256 per config: the mean of cosh d_t against
    # its closed form, and the turn count's mean and variance against
    # Poisson(sigma t), all nine inside one family-wise 0.999 normal band.
    n, size = 100_000, 256
    z_band = sps.norm.isf(0.001 / (2 * 9))
    zs = []
    for (sigma, t), seed in zip(((1.0, 2.0), (2.0, 3.0), (1.0, 4.0)), itertools.count(70)):
        blocks = [(_derive_rng(seed, 0, 0, k), min(size, n - k * size)) for k in range(-(-n // size))]
        x, y, events = _flight_ends(blocks, FlightConfig(sigma, t))
        assert x.size == n
        cosh_d = (x * x + y * y + 1.0) / (2.0 * y)  # from (0, 1)
        counts = events.astype(float)
        var = counts.var(ddof=1)
        m4 = ((counts - counts.mean()) ** 4).mean()
        zs += [
            (cosh_d.mean() - mean_cosh_displacement(sigma, t)) / (cosh_d.std(ddof=1) / math.sqrt(n)),
            (counts.mean() - sigma * t) / math.sqrt(var / n),
            (var - sigma * t) / math.sqrt((m4 - var * var) / n),
        ]
    assert max(map(abs, zs)) < z_band, zs
