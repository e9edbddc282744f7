"""The package's 16 value types behave as frozen records.

Each is built by position or keyword, fills its defaults, runs the checks
and normalizations of its ``__post_init__``, prints, compares, hashes,
pickles and copies by its fields, refuses assignment and deletion, and
rejects a bad call with the TypeError of a plain ``__init__``.  Every
expected repr and TypeError here was printed by the ``@dataclass(frozen=True)``
classes that these records replaced, so a record keeps the behavior its
users saw.  ``CHECKS`` also holds the package's other input checks.
"""

import copy
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from hyperlorentz import (
    BallRegion,
    CollisionEvent,
    Direction,
    ExperimentConfig,
    FirstCollision,
    FlightConfig,
    HypCircle,
    LevelStat,
    MobiusMap,
    Obstacle,
    ObstacleField,
    Point,
    PotentialProfile,
    Report,
    State,
    Trajectory,
    ValidationError,
    ball_area,
    bootstrap_half_width_w1,
    circle_to_euclidean,
    expected_T1,
    first_hit,
    flow_state,
    free_path,
    geodesic_flow,
    hyp_distance,
    mobius_apply,
    mobius_transport,
    nearest_neighbor_tail,
    position_at,
    sample_deflection,
    sample_field,
    sample_uniform_in_ball,
    simulate,
    simulate_flight,
    tube_area,
)
from hyperlorentz.billiard import sample_first_collisions
from hyperlorentz.experiments import exp_cdf, lambda_for, sample_trajectory
from hyperlorentz.obstacles import sample_annulus, shot_noise

TWO_PI = 2.0 * math.pi


class Ramp:
    """phi(eta) = max(0, 1 - eta), a profile that prints and compares by value."""

    def __call__(self, eta):
        return max(0.0, 1.0 - eta)

    def __repr__(self):
        return "Ramp()"

    def __eq__(self, other):
        return type(other) is Ramp

    def __hash__(self):
        return 0


P = Point(0.5, 2.0)
D = Direction(1.0)
C = Point(0.0, 1.0)
REGION = BallRegion(C, 2.0)
EVENT = CollisionEvent(1.5, P, D, Direction(2.0), -0.5, 3)
LEVEL = LevelStat(0.5, 1.0, "ks_exp", 0.125, None, 100)
EVENT_TEXT = (
    "CollisionEvent(time=1.5, impact_point=Point(x=0.5, y=2.0), pre_dir=Direction(alpha=1.0), "
    "post_dir=Direction(alpha=2.0), deflection=5.783185307179586, obstacle_index=3)"
)
LEVEL_TEXT = "LevelStat(r=0.5, lam=1.0, stat_name='ks_exp', value=0.125, half_width=None, n=100)"

# (class, field names, arguments, repr): one per record type.
RECORDS = [
    (Point, "x y", (0.5, 2.0), "Point(x=0.5, y=2.0)"),
    (Direction, "alpha", (-1.0,), "Direction(alpha=5.283185307179586)"),
    (State, "point dir", (P, D), "State(point=Point(x=0.5, y=2.0), dir=Direction(alpha=1.0))"),
    (
        MobiusMap,
        "a b c d",
        (3.0, 1.0, 1.0, 1.0),
        "MobiusMap(a=2.1213203435596424, b=0.7071067811865475, c=0.7071067811865475, d=0.7071067811865475)",
    ),
    (HypCircle, "center radius", (P, 0.25), "HypCircle(center=Point(x=0.5, y=2.0), radius=0.25)"),
    (
        BallRegion,
        "center outer exclusion",
        (C, 2.0, 0.5),
        "BallRegion(center=Point(x=0.0, y=1.0), outer=2.0, exclusion=0.5)",
    ),
    (
        ObstacleField,
        "centers radius intensity region",
        ([[0.0, 1.0], [0.5, 1.25]], 0.1, 1.0, REGION),
        "ObstacleField(centers=array([[0.  , 1.  ],\n       [0.5 , 1.25]]), radius=0.1, intensity=1.0, "
        "region=BallRegion(center=Point(x=0.0, y=1.0), outer=2.0, exclusion=0.0))",
    ),
    (
        PotentialProfile,
        "support_radius values",
        (1.0, Ramp()),
        "PotentialProfile(support_radius=1.0, values=Ramp())",
    ),
    (Obstacle, "center radius", (P, 0.1), "Obstacle(center=Point(x=0.5, y=2.0), radius=0.1)"),
    (
        CollisionEvent,
        "time impact_point pre_dir post_dir deflection obstacle_index",
        (1.5, P, D, Direction(2.0), -0.5, 3),
        EVENT_TEXT,
    ),
    (
        Trajectory,
        "initial horizon events",
        (State(P, D), 5.0, [EVENT]),
        "Trajectory(initial=State(point=Point(x=0.5, y=2.0), dir=Direction(alpha=1.0)), horizon=5.0, "
        f"events=({EVENT_TEXT},))",
    ),
    (
        FirstCollision,
        "time deflection censored",
        (1.5, 0.25, False),
        "FirstCollision(time=1.5, deflection=0.25, censored=False)",
    ),
    (FlightConfig, "sigma horizon", (2.0, 3.0), "FlightConfig(sigma=2.0, horizon=3.0)"),
    (
        ExperimentConfig,
        "experiment sigma r_levels t samples seed workers output_dir",
        ("tube-mc", 1.0, [0.5, np.float64(0.25)], 2.0, np.int64(100), 7, 2, "out"),
        "ExperimentConfig(experiment='tube-mc', sigma=1.0, r_levels=(0.5, 0.25), t=2.0, samples=100, seed=7, "
        "workers=2, output_dir='out')",
    ),
    (
        LevelStat,
        "r lam stat_name value half_width n",
        (0.5, 1.0, "ks_exp", 0.125, None, 100),
        LEVEL_TEXT,
    ),
    (
        Report,
        "experiment params levels seed elapsed_s",
        ("deflection", {"sigma": 1.0}, (LEVEL,), 7, None),
        "Report(experiment='deflection', params={'sigma': 1.0}, "
        f"levels=({LEVEL_TEXT},), seed=7, elapsed_s=None)",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
UNHASHABLE = (ObstacleField, Report)


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_record_builds_by_position_and_keyword(cls, names, args, text):
    names = tuple(names.split())
    assert cls.__match_args__ == names
    params = inspect.signature(cls).parameters
    assert list(params) == list(names)
    for name, param in params.items():
        assert param.default is getattr(cls, name, inspect.Parameter.empty)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(args[0], **dict(zip(names[1:], args[1:])))
    for record in (by_position, by_keyword, mixed):
        assert type(record) is cls
        assert repr(record) == text
        assert list(vars(record)) == list(names)


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_record_compares_and_hashes_by_its_fields(cls, names, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not (a != b)
    assert a.__eq__(object()) is NotImplemented
    assert a != object() and a != tuple(vars(a).values())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(vars(a).values()))


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_record_is_frozen(cls, names, args, text):
    record = cls(*args)
    first = names.split()[0]
    for name in (first, "unknown"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    assert repr(record) == text


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_record_pickles_and_copies(cls, names, args, text):
    record = cls(*args)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is cls
        assert repr(other) == text
        assert other == record
    assert copy.copy(record).__dict__ is not record.__dict__


def test_records_of_another_class_with_equal_fields_differ():
    assert Point(1.0, 2.0) != FlightConfig(1.0, 2.0)
    assert Obstacle(P, 0.25) != HypCircle(P, 0.25)
    assert Point(0.5, 2.0) != Point(0.5, 2.5)
    assert LEVEL != LevelStat(0.5, 1.0, "ks_exp", 0.125, None, 99)
    assert hash(Point(0.5, 2.0)) == hash((0.5, 2.0))


def test_pickles_of_the_earlier_classes_still_load():
    # Written by the dataclass versions, protocols 5 and 0.
    point5 = (
        b"\x80\x05\x95E\x00\x00\x00\x00\x00\x00\x00\x8c\x15hyperlorentz.geometry\x94\x8c\x05Point\x94\x93"
        b"\x94)\x81\x94}\x94(\x8c\x01x\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x01y\x94G@\x00\x00\x00\x00\x00"
        b"\x00\x00ub."
    )
    point0 = (
        b"ccopy_reg\n_reconstructor\np0\n(chyperlorentz.geometry\nPoint\np1\nc__builtin__\nobject\np2\nNtp3\n"
        b"Rp4\n(dp5\nVx\np6\nF0.5\nsVy\np7\nF2.0\nsb."
    )
    for data in (point5, point0):
        assert pickle.loads(data) == Point(0.5, 2.0)
    assert pickle.dumps(Point(0.5, 2.0), 5) == point5
    assert pickle.dumps(Point(0.5, 2.0), 0) == point0


def test_record_match_binds_fields_by_position():
    match Trajectory(State(P, D), 5.0, ()):
        case Trajectory(State(Point(x, y), Direction(alpha)), horizon, events):
            assert (x, y, alpha, horizon, events) == (0.5, 2.0, 1.0, 5.0, ())
        case _:
            raise AssertionError("no match")


def test_defaults_fill_missing_fields():
    assert BallRegion.exclusion == 0.0
    assert BallRegion(C, 2.0).exclusion == 0.0
    assert BallRegion(C, 2.0, exclusion=0.5) == BallRegion(C, 2.0, 0.5)
    cfg = ExperimentConfig("deflection", 1.0, (0.5,), 2.0, 100, 7)
    assert (cfg.workers, cfg.output_dir) == (1, ".")
    assert (ExperimentConfig.workers, ExperimentConfig.output_dir) == (1, ".")
    assert ExperimentConfig("deflection", 1.0, (0.5,), 2.0, 100, 7, output_dir="o").workers == 1


def test_post_init_normalizes():
    assert Direction(-1e-300).alpha == 0.0  # -tiny % 2 pi rounds to 2 pi
    assert Direction(-1.0).alpha == TWO_PI - 1.0
    assert Direction(7.0).alpha == 7.0 % TWO_PI
    m = MobiusMap(3.0, 1.0, 1.0, 1.0)
    s = 1.0 / math.sqrt(2.0)
    assert (m.a, m.b, m.c, m.d) == (3.0 * s, s, s, s)
    assert vars(MobiusMap(1.0, 2.0, 3.0, 7.0)) == {"a": 1.0, "b": 2.0, "c": 3.0, "d": 7.0}
    assert EVENT.deflection == -0.5 % TWO_PI
    assert Trajectory(State(P, D), 5.0, [EVENT]).events == (EVENT,)
    field = ObstacleField([[0, 1]], 0.1, 1.0, REGION)
    assert field.centers.dtype == np.float64 and field.centers.shape == (1, 2)
    assert ObstacleField([], 0.1, 1.0, REGION).centers.shape == (0, 2)
    cfg = ExperimentConfig(
        "deflection", 1.0, [np.float64(0.5), 1], 2.0, np.int64(100), np.int32(7), np.int64(2)
    )
    assert cfg.r_levels == (0.5, 1.0) and [type(r) for r in cfg.r_levels] == [float, float]
    assert [type(v) for v in (cfg.samples, cfg.seed, cfg.workers)] == [int, int, int]


def _config(**change):
    args = dict(experiment="deflection", sigma=1.0, r_levels=(0.5,), t=2.0, samples=100, seed=0)
    return ExperimentConfig(**{**args, **change})


def _rng():
    return np.random.default_rng(0)


FIELD = ObstacleField([[0.0, 1.5]], 0.1, 1.0, BallRegion(C, 3.0))

# Every check on a constructor's or a function's input, with the error and
# message it raises.  Each positive rate, radius, intensity and time goes
# through errors._positive, and each count, a sampler's size included,
# through errors._integer.  A row's test id names the callable and the bad
# value, so it does not depend on the other rows.
CHECKS = [
    (
        "Point-x=inf",
        lambda: Point(math.inf, 1.0),
        ValidationError,
        "point coordinates must be finite, got (inf, 1.0)",
    ),
    (
        "Point-y=nan",
        lambda: Point(0.0, math.nan),
        ValidationError,
        "point coordinates must be finite, got (0.0, nan)",
    ),
    (
        "Point-y=0",
        lambda: Point(0.0, 0.0),
        ValidationError,
        "point must lie strictly above the x-axis, got y=0.0",
    ),
    (
        "Direction-alpha=nan",
        lambda: Direction(math.nan),
        ValidationError,
        "direction angle must be finite, got nan",
    ),
    (
        "MobiusMap-det=-1",
        lambda: MobiusMap(1.0, 0.0, 0.0, -1.0),
        ValidationError,
        "Mobius coefficients must have positive determinant, got -1.0",
    ),
    (
        "MobiusMap-a=inf",
        lambda: MobiusMap(math.inf, 0.0, 0.0, 1.0),
        ValidationError,
        "Mobius coefficients must have positive determinant, got inf",
    ),
    (
        "HypCircle-radius=0",
        lambda: HypCircle(P, 0.0),
        ValidationError,
        "circle radius must be positive and finite, got 0.0",
    ),
    (
        "HypCircle-radius=inf",
        lambda: HypCircle(P, math.inf),
        ValidationError,
        "circle radius must be positive and finite, got inf",
    ),
    (
        "HypCircle-radius=nan",
        lambda: HypCircle(P, math.nan),
        ValidationError,
        "circle radius must be positive and finite, got nan",
    ),
    ("ball_area-eta=nan", lambda: ball_area(math.nan), ValidationError, "radius must be nonnegative, got nan"),
    (
        "ball_area-eta=709",
        lambda: ball_area(709.0),
        ValidationError,
        "radius 709.0 is too large: the area 4 pi sinh^2(radius / 2) overflows",
    ),
    (
        "ball_area-eta=1500",
        lambda: ball_area(1500.0),
        ValidationError,
        "radius 1500.0 is too large: the area 4 pi sinh^2(radius / 2) overflows",
    ),
    (
        "circle_to_euclidean-radius=800",
        lambda: circle_to_euclidean(HypCircle(C, 800.0)),
        ValidationError,
        "radius 800.0 is too large for the center (0.0, 1.0): points that far from it leave float range",
    ),
    (
        "geodesic_flow-t=-710",
        lambda: geodesic_flow(State(C, D), -710.0),
        ValidationError,
        "time -710.0 is too large for the center (0.0, 1.0): points that far from it leave float range",
    ),
    (
        "geodesic_flow-t=inf",
        lambda: geodesic_flow(State(C, D), math.inf),
        ValidationError,
        "time must be finite, got inf",
    ),
    (
        "flow_state-t=710",
        lambda: flow_state(State(C, D), 710.0),
        ValidationError,
        "time 710.0 is too large for the center (0.0, 1.0): points that far from it leave float range",
    ),
    (
        "flow_state-t=nan",
        lambda: flow_state(State(C, D), math.nan),
        ValidationError,
        "time must be finite, got nan",
    ),
    (
        "flow_state-y=1e-300-t=700",
        lambda: flow_state(State(Point(0.0, 1e-300), D), 700.0),
        ValidationError,
        "time 700.0 is too large for the center (0.0, 1e-300): points that far from it leave float range",
    ),
    (
        "BallRegion-outer=0",
        lambda: BallRegion(C, 0.0),
        ValidationError,
        "outer radius must be positive and finite, got 0.0",
    ),
    (
        "BallRegion-outer=inf",
        lambda: BallRegion(C, math.inf),
        ValidationError,
        "outer radius must be positive and finite, got inf",
    ),
    (
        "BallRegion-outer=nan",
        lambda: BallRegion(C, math.nan),
        ValidationError,
        "outer radius must be positive and finite, got nan",
    ),
    (
        "BallRegion-exclusion=outer",
        lambda: BallRegion(C, 1.0, 1.0),
        ValidationError,
        "exclusion radius must satisfy 0 <= exclusion < outer, got 1.0",
    ),
    (
        "BallRegion-exclusion=-0.5",
        lambda: BallRegion(C, 1.0, -0.5),
        ValidationError,
        "exclusion radius must satisfy 0 <= exclusion < outer, got -0.5",
    ),
    (
        "ObstacleField-centers=flat",
        lambda: ObstacleField([1.0, 2.0], 0.1, 1.0, REGION),
        ValidationError,
        "centers must be an (n, 2) array, got shape (2,)",
    ),
    (
        "ObstacleField-radius=0",
        lambda: ObstacleField([[0.0, 1.0]], 0.0, 1.0, REGION),
        ValidationError,
        "obstacle radius must be positive and finite, got 0.0",
    ),
    (
        "ObstacleField-radius=nan",
        lambda: ObstacleField([[0.0, 1.0]], math.nan, 1.0, REGION),
        ValidationError,
        "obstacle radius must be positive and finite, got nan",
    ),
    (
        "ObstacleField-intensity=0",
        lambda: ObstacleField([[0.0, 1.0]], 0.1, 0.0, REGION),
        ValidationError,
        "intensity must be positive and finite, got 0.0",
    ),
    (
        "ObstacleField-intensity=inf",
        lambda: ObstacleField([[0.0, 1.0]], 0.1, math.inf, REGION),
        ValidationError,
        "intensity must be positive and finite, got inf",
    ),
    (
        "ObstacleField-center=outside",
        lambda: ObstacleField([[0.0, 50.0]], 0.1, 1.0, REGION),
        ValidationError,
        "field has centers outside its sampling region",
    ),
    (
        "ObstacleField-center=excluded",
        lambda: ObstacleField([[0.0, 1.0]], 0.1, 1.0, BallRegion(C, 2.0, 0.5)),
        ValidationError,
        "field has centers outside its sampling region",
    ),
    (
        "ObstacleField-center=(nan,1)",
        lambda: ObstacleField([[0.0, 1.5], [math.nan, 1.0]], 0.1, 1.0, REGION),
        ValidationError,
        "centers must be finite points above the x-axis, got row 1: [nan, 1.0]",
    ),
    (
        "ObstacleField-center=(0,nan)",
        lambda: ObstacleField([[0.0, 1.5], [0.0, math.nan]], 0.1, 1.0, REGION),
        ValidationError,
        "centers must be finite points above the x-axis, got row 1: [0.0, nan]",
    ),
    (
        "ObstacleField-center=(0,-1)",
        lambda: ObstacleField([[0.0, 1.5], [0.0, -1.0]], 0.1, 1.0, REGION),
        ValidationError,
        "centers must be finite points above the x-axis, got row 1: [0.0, -1.0]",
    ),
    (
        "shot_noise-row=(nan,1)",
        lambda: shot_noise(np.array([[0.0, 1.5], [math.nan, 1.0]]), PotentialProfile(1.0, Ramp()), C),
        ValidationError,
        "points must be finite points above the x-axis, got row 1: [nan, 1.0]",
    ),
    (
        "shot_noise-row=(0,-1)",
        lambda: shot_noise(np.array([[0.0, 1.5], [0.0, -1.0]]), PotentialProfile(1.0, Ramp()), C),
        ValidationError,
        "points must be finite points above the x-axis, got row 1: [0.0, -1.0]",
    ),
    (
        "shot_noise-shape=(3,)",
        lambda: shot_noise(np.array([1.0, 2.0, 3.0]), PotentialProfile(1.0, Ramp()), C),
        ValidationError,
        "points must be an (n, 2) array, got shape (3,)",
    ),
    (
        "shot_noise-shape=(1,4)",
        lambda: shot_noise(np.array([[0.0, 1.5, 0.0, 2.0]]), PotentialProfile(1.0, Ramp()), C),
        ValidationError,
        "points must be an (n, 2) array, got shape (1, 4)",
    ),
    (
        "PotentialProfile-support=0",
        lambda: PotentialProfile(0.0, Ramp()),
        ValidationError,
        "support radius must be positive and finite, got 0.0",
    ),
    (
        "PotentialProfile-support=inf",
        lambda: PotentialProfile(math.inf, Ramp()),
        ValidationError,
        "support radius must be positive and finite, got inf",
    ),
    (
        "PotentialProfile-profile=negative",
        lambda: PotentialProfile(1.0, lambda eta: -1.0 if eta < 1.0 else 0.0),
        ValidationError,
        "profile takes a negative value inside its support",
    ),
    (
        "PotentialProfile-profile=nan",
        lambda: PotentialProfile(1.0, lambda eta: math.nan if eta < 1.0 else 0.0),
        ValidationError,
        "profile takes a negative value inside its support",
    ),
    (
        "PotentialProfile-profile=nonvanishing",
        lambda: PotentialProfile(1.0, lambda eta: 1.0),
        ValidationError,
        "profile does not vanish beyond its support radius",
    ),
    (
        "sample_uniform_in_ball-R=0",
        lambda: sample_uniform_in_ball(C, 0.0, _rng()),
        ValidationError,
        "ball radius must be positive and finite, got 0.0",
    ),
    (
        "sample_uniform_in_ball-size=2.5",
        lambda: sample_uniform_in_ball(C, 1.0, _rng(), 2.5),
        ValidationError,
        "size must be an integer, got 2.5",
    ),
    (
        "sample_uniform_in_ball-size=-1",
        lambda: sample_uniform_in_ball(C, 1.0, _rng(), -1),
        ValidationError,
        "size must be >= 0, got -1",
    ),
    (
        "sample_uniform_in_ball-size=True",
        lambda: sample_uniform_in_ball(C, 1.0, _rng(), True),
        ValidationError,
        "size must be an integer, got True",
    ),
    (
        "sample_annulus-size=2.5",
        lambda: sample_annulus(C, 0.0, 1.0, _rng(), 2.5),
        ValidationError,
        "size must be an integer, got 2.5",
    ),
    (
        "sample_annulus-size=-1",
        lambda: sample_annulus(C, 0.0, 1.0, _rng(), -1),
        ValidationError,
        "size must be >= 0, got -1",
    ),
    (
        "sample_annulus-size=True",
        lambda: sample_annulus(C, 0.0, 1.0, _rng(), True),
        ValidationError,
        "size must be an integer, got True",
    ),
    (
        "sample_annulus-hi=nan",
        lambda: sample_annulus(C, 0.0, math.nan, _rng(), 3),
        ValidationError,
        "outer radius must be positive and finite, got nan",
    ),
    (
        "sample_annulus-lo=-1",
        lambda: sample_annulus(C, -1.0, 1.0, _rng(), 3),
        ValidationError,
        "inner radius must satisfy 0 <= inner < outer = 1.0, got -1.0",
    ),
    (
        "sample_annulus-lo=2-hi=1",
        lambda: sample_annulus(C, 2.0, 1.0, _rng(), 3),
        ValidationError,
        "inner radius must satisfy 0 <= inner < outer = 1.0, got 2.0",
    ),
    (
        "sample_annulus-hi=800",
        lambda: sample_annulus(C, 0.0, 800.0, _rng(), 3),
        ValidationError,
        "outer radius 800.0 is too large: sinh^2(outer / 2) overflows",
    ),
    (
        "sample_annulus-hi=709.9",
        lambda: sample_annulus(C, 0.0, 709.9, _rng(), 3),
        ValidationError,
        "outer radius 709.9 is too large for the center (0.0, 1.0): points that far from it leave float range",
    ),
    (
        "sample_annulus-hi=711",
        lambda: sample_annulus(C, 0.0, 711.0, _rng(), 3),
        ValidationError,
        "outer radius 711.0 is too large for the center (0.0, 1.0): points that far from it leave float range",
    ),
    (
        "sample_annulus-y=1e-300-hi=700",
        lambda: sample_annulus(Point(0.0, 1e-300), 0.0, 700.0, _rng(), 3),
        ValidationError,
        "outer radius 700.0 is too large for the center (0.0, 1e-300): points that far from it leave float range",
    ),
    (
        "sample_annulus-y=1e300-hi=700",
        lambda: sample_annulus(Point(0.0, 1e300), 0.0, 700.0, _rng(), 3),
        ValidationError,
        "outer radius 700.0 is too large for the center (0.0, 1e+300): points that far from it leave float range",
    ),
    (
        "sample_field-radius=None-exclusion=0",
        lambda: sample_field(1.0, C, 2.0, 0.0, _rng()),
        ValidationError,
        "obstacle radius must be positive and finite, got 0.0",
    ),
    (
        "sample_field-radius=nan",
        lambda: sample_field(1.0, C, 2.0, 0.0, _rng(), math.nan),
        ValidationError,
        "obstacle radius must be positive and finite, got nan",
    ),
    (
        "sample_field-lam=0",
        lambda: sample_field(0.0, C, 2.0, 0.1, _rng()),
        ValidationError,
        "intensity must be positive and finite, got 0.0",
    ),
    (
        "sample_field-R=800",
        lambda: sample_field(1.0, C, 800.0, 0.1, _rng()),
        ValidationError,
        "radius 800.0 is too large: the area 4 pi sinh^2(radius / 2) overflows",
    ),
    (
        "nearest_neighbor_tail-lam=nan",
        lambda: nearest_neighbor_tail(1.0, math.nan),
        ValidationError,
        "intensity must be positive and finite, got nan",
    ),
    (
        "nearest_neighbor_tail-k=1.5",
        lambda: nearest_neighbor_tail(1.0, 1.0, 1.5),
        ValidationError,
        "neighbor order must be an integer, got 1.5",
    ),
    (
        "nearest_neighbor_tail-k=True",
        lambda: nearest_neighbor_tail(1.0, 1.0, True),
        ValidationError,
        "neighbor order must be an integer, got True",
    ),
    (
        "nearest_neighbor_tail-k=0",
        lambda: nearest_neighbor_tail(1.0, 1.0, 0),
        ValidationError,
        "neighbor order must be >= 1, got 0",
    ),
    (
        "expected_T1-lam=nan",
        lambda: expected_T1(math.nan),
        ValidationError,
        "intensity must be positive and finite, got nan",
    ),
    (
        "Obstacle-radius=0",
        lambda: Obstacle(P, 0.0),
        ValidationError,
        "obstacle radius must be positive and finite, got 0.0",
    ),
    (
        "Obstacle-radius=0-d array",
        lambda: Obstacle(P, np.array(0.5)),
        ValidationError,
        "obstacle radius must be a real number, got array(0.5)",
    ),
    (
        "Obstacle-radius=inf",
        lambda: Obstacle(P, math.inf),
        ValidationError,
        "obstacle radius must be positive and finite, got inf",
    ),
    (
        "CollisionEvent-time=0",
        lambda: CollisionEvent(0.0, P, D, D, 0.0, 0),
        ValidationError,
        "collision time must be positive and finite, got 0.0",
    ),
    (
        "CollisionEvent-time=nan",
        lambda: CollisionEvent(math.nan, P, D, D, 0.0, 0),
        ValidationError,
        "collision time must be positive and finite, got nan",
    ),
    (
        "Trajectory-horizon=0",
        lambda: Trajectory(State(P, D), 0.0, ()),
        ValidationError,
        "horizon must be positive and finite, got 0.0",
    ),
    (
        "Trajectory-horizon=inf",
        lambda: Trajectory(State(P, D), math.inf, ()),
        ValidationError,
        "horizon must be positive and finite, got inf",
    ),
    (
        "Trajectory-events=repeated",
        lambda: Trajectory(State(P, D), 5.0, (EVENT, EVENT)),
        ValidationError,
        "collision times must be strictly increasing",
    ),
    (
        "Trajectory-event=horizon",
        lambda: Trajectory(State(P, D), 1.5, (EVENT,)),
        ValidationError,
        "collision times must lie strictly before the horizon",
    ),
    (
        "tube_area-t=nan",
        lambda: tube_area(math.nan, 0.5),
        ValidationError,
        "segment length must be nonnegative, got nan",
    ),
    (
        "tube_area-r=nan",
        lambda: tube_area(1.0, math.nan),
        ValidationError,
        "tube radius must be positive and finite, got nan",
    ),
    (
        "tube_area-r=711",
        lambda: tube_area(1.0, 711.0),
        ValidationError,
        "radius 711.0 is too large: the area 4 pi sinh^2(radius / 2) overflows",
    ),
    (
        "tube_area-t=10-r=708",
        lambda: tube_area(10.0, 708.0),
        ValidationError,
        "tube of length 10.0 and radius 708.0 is too large: its area overflows",
    ),
    (
        "free_path-t_max=nan",
        lambda: free_path(State(C, D), FIELD, math.nan),
        ValidationError,
        "horizon must be positive and finite, got nan",
    ),
    (
        "simulate-t_max=0",
        lambda: simulate(State(C, D), FIELD, 0.0),
        ValidationError,
        "horizon must be positive and finite, got 0.0",
    ),
    (
        "sample_first_collisions-lam=-1",
        lambda: sample_first_collisions(-1.0, 0.5, 1.0, _rng(), 3),
        ValidationError,
        "intensity must be positive and finite, got -1.0",
    ),
    (
        "sample_first_collisions-radius=nan",
        lambda: sample_first_collisions(1.0, math.nan, 1.0, _rng(), 3),
        ValidationError,
        "obstacle radius must be positive and finite, got nan",
    ),
    (
        "sample_first_collisions-horizon=nan",
        lambda: sample_first_collisions(1.0, 0.5, math.nan, _rng(), 3),
        ValidationError,
        "horizon must be positive and finite, got nan",
    ),
    (
        "sample_first_collisions-size=2.5",
        lambda: sample_first_collisions(1.0, 0.5, 1.0, _rng(), 2.5),
        ValidationError,
        "size must be an integer, got 2.5",
    ),
    (
        "sample_first_collisions-size=-1",
        lambda: sample_first_collisions(1.0, 0.5, 1.0, _rng(), -1),
        ValidationError,
        "size must be >= 0, got -1",
    ),
    (
        "sample_first_collisions-size=True",
        lambda: sample_first_collisions(1.0, 0.5, 1.0, _rng(), True),
        ValidationError,
        "size must be an integer, got True",
    ),
    (
        "FlightConfig-sigma=0",
        lambda: FlightConfig(0.0, 1.0),
        ValidationError,
        "collision rate must be positive and finite, got 0.0",
    ),
    (
        "FlightConfig-sigma=True",
        lambda: FlightConfig(True, 1.0),
        ValidationError,
        "collision rate must be a real number, got True",
    ),
    (
        "FlightConfig-horizon=nan",
        lambda: FlightConfig(1.0, math.nan),
        ValidationError,
        "horizon must be positive and finite, got nan",
    ),
    (
        "simulate_flight-sigma=inf",
        lambda: simulate_flight(State(C, D), FlightConfig(math.inf, 1.0), _rng()),
        ValidationError,
        "collision rate must be positive and finite, got inf",
    ),
    (
        "sample_deflection-size=2.5",
        lambda: sample_deflection(_rng(), 2.5),
        ValidationError,
        "size must be an integer, got 2.5",
    ),
    (
        "sample_deflection-size=-1",
        lambda: sample_deflection(_rng(), -1),
        ValidationError,
        "size must be >= 0, got -1",
    ),
    (
        "sample_deflection-size=True",
        lambda: sample_deflection(_rng(), True),
        ValidationError,
        "size must be an integer, got True",
    ),
    (
        "bootstrap_half_width_w1-n_boot=2.5",
        lambda: bootstrap_half_width_w1([1.0, 2.0], [1.5, 3.0], _rng(), n_boot=2.5),
        ValidationError,
        "n_boot must be an integer, got 2.5",
    ),
    (
        "Report.stat-r=0.25",
        lambda: Report("deflection", {}, (LEVEL,), 7, None).stat("ks_exp", 0.25),
        KeyError,
        "no statistic 'ks_exp' at level r=0.25",
    ),
    (
        "ExperimentConfig-experiment=bogus",
        lambda: _config(experiment="bogus"),
        ValidationError,
        "unknown experiment 'bogus'; choose one of free-path, nearest-neighbor, deflection, tube-mc, "
        "bg-convergence, flight-baseline",
    ),
    (
        "ExperimentConfig-samples=1.0",
        lambda: _config(samples=1.0),
        ValidationError,
        "samples must be an integer, got 1.0",
    ),
    (
        "ExperimentConfig-seed=True",
        lambda: _config(seed=True),
        ValidationError,
        "seed must be an integer, got True",
    ),
    (
        "ExperimentConfig-workers=str",
        lambda: _config(workers="2"),
        ValidationError,
        "workers must be an integer, got '2'",
    ),
    (
        "ExperimentConfig-samples=0",
        lambda: _config(samples=0),
        ValidationError,
        "samples must be >= 1, got 0",
    ),
    (
        "ExperimentConfig-flight-baseline-samples=1",
        lambda: _config(experiment="flight-baseline", samples=1),
        ValidationError,
        "flight-baseline needs samples >= 2 for its event-count variance",
    ),
    (
        "ExperimentConfig-workers=0",
        lambda: _config(workers=0),
        ValidationError,
        "workers must be >= 1, got 0",
    ),
    (
        "ExperimentConfig-sigma=0",
        lambda: _config(sigma=0.0),
        ValidationError,
        "sigma must be positive and finite, got 0.0",
    ),
    (
        "ExperimentConfig-sigma=True",
        lambda: _config(sigma=True),
        ValidationError,
        "sigma must be a real number, got True",
    ),
    (
        "ExperimentConfig-sigma='1'",
        lambda: _config(sigma="1"),
        ValidationError,
        "sigma must be a real number, got '1'",
    ),
    (
        "ExperimentConfig-t=inf",
        lambda: _config(t=math.inf),
        ValidationError,
        "t must be positive and finite, got inf",
    ),
    (
        "ExperimentConfig-r_levels=nan",
        lambda: _config(r_levels=(0.5, math.nan)),
        ValidationError,
        "r must be positive and finite, got nan",
    ),
    (
        "ExperimentConfig-r_levels=0.5",
        lambda: _config(r_levels=0.5),
        ValidationError,
        "r levels must be a sequence of real numbers, got 0.5",
    ),
    (
        "ExperimentConfig-r_levels=empty",
        lambda: _config(r_levels=()),
        ValidationError,
        "deflection needs at least one r level",
    ),
    (
        "ExperimentConfig-r_levels=-0.1",
        lambda: _config(r_levels=(0.5, -0.1)),
        ValidationError,
        "r must be positive and finite, got -0.1",
    ),
    (
        "ExperimentConfig-r_levels=800",
        lambda: _config(r_levels=(800.0,)),
        ValidationError,
        "r = 800.0 gives intensity 0.0; it must be positive and finite",
    ),
    (
        "ExperimentConfig-tube-mc-t+r=360",
        lambda: _config(experiment="tube-mc", t=350.0, r_levels=(10.0,)),
        ValidationError,
        "t = 350.0 and r = 10.0 give t + r = 360.0; tube-mc needs at most 354",
    ),
    (
        "ExperimentConfig-bg-convergence-r_levels=increasing",
        lambda: _config(experiment="bg-convergence", r_levels=(0.2, 0.4)),
        ValidationError,
        "bg-convergence needs strictly decreasing r levels",
    ),
    (
        "lambda_for-sigma=-1",
        lambda: lambda_for(-1.0, 0.5),
        ValidationError,
        "sigma must be positive and finite, got -1.0",
    ),
    (
        "lambda_for-sigma=True",
        lambda: lambda_for(True, 0.5),
        ValidationError,
        "sigma must be a real number, got True",
    ),
    (
        "lambda_for-r=0",
        lambda: lambda_for(1.0, 0.0),
        ValidationError,
        "r must be positive and finite, got 0.0",
    ),
    (
        "lambda_for-r=inf",
        lambda: lambda_for(1.0, math.inf),
        ValidationError,
        "r must be positive and finite, got inf",
    ),
    (
        "lambda_for-r=800",
        lambda: lambda_for(1.0, 800.0),
        ValidationError,
        "r = 800.0 gives intensity 0.0; it must be positive and finite",
    ),
    (
        "exp_cdf-rate=-1",
        lambda: exp_cdf(-1.0),
        ValidationError,
        "rate must be positive and finite, got -1.0",
    ),
    (
        "sample_trajectory-seed=1.5",
        lambda: sample_trajectory(1.0, 0.5, 1.0, 1.5),
        ValidationError,
        "seed must be an integer, got 1.5",
    ),
    (
        "sample_trajectory-seed=str",
        lambda: sample_trajectory(1.0, 0.5, 1.0, "a"),
        ValidationError,
        "seed must be an integer, got 'a'",
    ),
    (
        "sample_trajectory-seed=True",
        lambda: sample_trajectory(1.0, 0.5, 1.0, True),
        ValidationError,
        "seed must be an integer, got True",
    ),
    *(
        (
            f"{name}-max_events={bad!r}",
            lambda run=run, bad=bad: run(bad),
            ValidationError,
            message,
        )
        for name, run in (
            ("simulate", lambda m: simulate(State(C, D), FIELD, 1.0, max_events=m)),
            ("simulate_flight", lambda m: simulate_flight(State(C, D), FlightConfig(1.0, 1.0), _rng(), m)),
        )
        for bad, message in (
            (-1, "max_events must be >= 0, got -1"),
            (2.5, "max_events must be an integer, got 2.5"),
            (True, "max_events must be an integer, got True"),
            ("3", "max_events must be an integer, got '3'"),
        )
    ),
    (
        "mobius_apply-|cz+d|^2=0",
        lambda: mobius_apply(MobiusMap(1e200, 0.0, 0.0, 1e-200), Point(1e200, 1.0)),
        ValidationError,
        "MobiusMap(a=1e+200, b=0.0, c=0.0, d=1e-200) cannot be applied to Point(x=1e+200, y=1.0): "
        "|cz + d|^2 underflows to 0",
    ),
    (
        "mobius_transport-|cz+d|^2=0",
        lambda: mobius_transport(MobiusMap(1e200, 0.0, 0.0, 1e-200), State(Point(1e200, 1.0), D)),
        ValidationError,
        "cannot be applied to Point(x=1e+200, y=1.0): |cz + d|^2 underflows to 0",
    ),
    # Each number checked by errors._real, its range tested at the call site
    # after: a bool or a string is refused there in _real's words.
    *(
        (
            f"{name}={bad!r}",
            lambda run=run, bad=bad: run(bad),
            ValidationError,
            f"{what} must be a real number, got {bad!r}",
        )
        for name, what, run in (
            ("Point-x", "point x", lambda v: Point(v, 1.0)),
            ("Point-y", "point y", lambda v: Point(0.0, v)),
            ("Direction-alpha", "direction angle", lambda v: Direction(v)),
            ("MobiusMap-a", "Mobius coefficient a", lambda v: MobiusMap(v, 0.0, 0.0, 1.0)),
            ("MobiusMap-d", "Mobius coefficient d", lambda v: MobiusMap(1.0, 0.0, 0.0, v)),
            ("BallRegion-exclusion", "exclusion radius", lambda v: BallRegion(C, 2.0, v)),
            ("ball_area-eta", "radius", lambda v: ball_area(v)),
            ("tube_area-t", "segment length", lambda v: tube_area(v, 0.5)),
            ("geodesic_flow-t", "time", lambda v: geodesic_flow(State(C, D), v)),
            ("flow_state-t", "time", lambda v: flow_state(State(C, D), v)),
            ("position_at-t", "time", lambda v: position_at(Trajectory(State(C, D), 2.0, ()), v)),
            ("sample_annulus-lo", "inner radius", lambda v: sample_annulus(C, v, 2.0, _rng(), 3)),
            (
                "sample_first_collisions-horizon",
                "horizon",
                lambda v: sample_first_collisions(1.0, 0.5, v, _rng(), 3),
            ),
            (
                "bootstrap_half_width_w1-level",
                "bootstrap level",
                lambda v: bootstrap_half_width_w1([1.0, 2.0], [2.0, 3.0], _rng(), level=v),
            ),
        )
        for bad in (True, "1")
    ),
]


@pytest.mark.parametrize("make, error, message", [pytest.param(*row, id=name) for name, *row in CHECKS])
def test_post_init_rejects(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


def test_samplers_refuse_a_bad_size_before_drawing_and_take_size_zero():
    samplers = [
        lambda rng, size: sample_uniform_in_ball(C, 1.0, rng, size),
        lambda rng, size: sample_annulus(C, 0.0, 1.0, rng, size),
        lambda rng, size: sample_first_collisions(1.0, 0.5, 1.0, rng, size),
        lambda rng, size: sample_deflection(rng, size),
    ]
    for sample in samplers:
        rng = _rng()
        with pytest.raises(ValidationError, match="size must be >= 0"):
            sample(rng, -1)
        assert rng.random() == _rng().random()  # nothing was drawn
        out = sample(_rng(), np.int64(0))
        assert all(a.size == 0 for a in (out if isinstance(out, tuple) else (out,)))


# Each record with a checked field, built from numpy scalars f (a float) and
# i (an int), with the names of its checked fields.
KEPT = [
    ("Point", lambda f, i: Point(f, f), "x y"),
    ("Direction", lambda f, i: Direction(f), "alpha"),
    ("MobiusMap", lambda f, i: MobiusMap(1.0, f, 0.0, 1.0), "b"),
    ("Obstacle", lambda f, i: Obstacle(P, f), "radius"),
    ("HypCircle", lambda f, i: HypCircle(P, f), "radius"),
    ("BallRegion", lambda f, i: BallRegion(C, f), "outer"),
    ("BallRegion.exclusion", lambda f, i: BallRegion(C, 2.0, f), "exclusion"),
    ("ObstacleField", lambda f, i: ObstacleField([], f, f, REGION), "radius intensity"),
    ("PotentialProfile", lambda f, i: PotentialProfile(f, Ramp()), "support_radius"),
    ("CollisionEvent", lambda f, i: CollisionEvent(f, P, D, D, 0.0, 0), "time"),
    ("Trajectory", lambda f, i: Trajectory(State(P, D), f, ()), "horizon"),
    ("FlightConfig", lambda f, i: FlightConfig(f, f), "sigma horizon"),
    (
        "ExperimentConfig",
        lambda f, i: ExperimentConfig("deflection", f, (f,), f, i, i, i),
        "sigma t samples seed workers",
    ),
]


@pytest.mark.parametrize(
    "f, i", [(np.float32(1.1), np.int64(3)), (np.float64(1.1), np.uint8(3))], ids=["float32", "float64"]
)
@pytest.mark.parametrize("make, names", [row[1:] for row in KEPT], ids=[name for name, *_ in KEPT])
def test_a_record_keeps_its_checked_numbers_as_python_numbers(make, names, f, i):
    # Each check returns a float or an int, and the record keeps that: a
    # float32 1.1 is kept as the float it is, 1.100000023841858.
    record = make(f, i)
    for name in names.split():
        value = getattr(record, name)
        assert type(value) is (int if name in ("samples", "seed", "workers") else float), name
        assert value == (int(i) if type(value) is int else float(f))
    if isinstance(record, ExperimentConfig):
        assert [type(r) for r in record.r_levels] == [float]


def test_a_function_computes_with_the_numbers_its_checks_return():
    # A numpy scalar that passes a check is the Python number the check
    # returns: each call below matches the call with that number, bit for bit.
    f32 = np.float32(0.5)
    assert repr(lambda_for(np.float32(1.0), 0.5)) == "0.9595173756674719"  # was np.float32(0.9595174)
    # A float32 radius ran the contact rule at single precision: 1.8999999998314603.
    ob = Obstacle(Point(0.0, math.e**2), np.float32(0.1))
    assert first_hit(State(C, Direction(0.5 * math.pi)), ob) == 1.8999999985098839
    # A float32 radius turned deflections up to 3.8e-7 rad from the float's.
    draws = [sample_first_collisions(1.0, r, math.inf, _rng(), 5) for r in (f32, float(f32))]
    assert [a.tobytes() for a in draws[0]] == [a.tobytes() for a in draws[1]]
    # An int64 or uint8 seed overflowed _derive_rng's seed % 2^64.
    path = sample_trajectory(1.0, 0.5, 2.0, 3)
    assert sample_trajectory(1.0, 0.5, 2.0, np.int64(3)) == path
    assert sample_trajectory(1.0, 0.5, 2.0, np.uint8(3)) == path
    assert repr(FlightConfig(1, 2)) == "FlightConfig(sigma=1.0, horizon=2.0)"
    points = sample_annulus(C, 0.0, np.float32(1.0), _rng(), np.int64(3))
    assert points.tobytes() == sample_annulus(C, 0.0, 1.0, _rng(), 3).tobytes()
    # The numbers checked by errors._real: each float32 below ran at single
    # precision, or compared at it, where its float does not.
    p = Point(np.float32(0.1), np.float32(1.0))
    q = Point(float(np.float32(0.1)), 1.0)
    assert hyp_distance(p, Point(0.0, 2.0)) == hyp_distance(q, Point(0.0, 2.0))  # was 3.7e-8 off
    assert repr(tube_area(np.float32(2.0), 0.5)) == "2.8862788113743343"  # was np.float32(2.8862786)
    # 0.5 eta rounded to 0 in float32, so the area read 0.0.
    assert ball_area(np.float32(1e-45)) == ball_area(float(np.float32(1e-45))) == 6.168948786545999e-90
    t32, s = np.float32(0.3), State(C, D)
    assert geodesic_flow(s, t32) == geodesic_flow(s, float(t32))
    assert flow_state(s, t32) == flow_state(s, float(t32))
    path, t32 = sample_trajectory(1.0, 0.5, 2.0, 3), np.float32(1.7)
    assert position_at(path, t32) == position_at(path, float(t32))
    # 0 <= inner < outer compared a float32 inner radius in float32, and
    # refused 1.0 < 1.00000005.
    points = sample_annulus(C, np.float32(1.0), 1.00000005, _rng(), 3)
    assert points.tobytes() == sample_annulus(C, 1.0, 1.00000005, _rng(), 3).tobytes()
    # An infinite horizon of any type censors nothing and gives float64 times:
    # a longdouble inf made them float128.
    draws = sample_first_collisions(1.0, 0.5, math.inf, _rng(), 5)
    for inf in (np.float32(math.inf), np.longdouble(math.inf)):
        got = sample_first_collisions(1.0, 0.5, inf, _rng(), 5)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in draws]
    a, b = np.random.default_rng(1).gamma(2.0, size=300), np.random.default_rng(2).gamma(2.0, size=300)
    level = np.float32(0.95)
    half = [bootstrap_half_width_w1(a, b, _rng(), level=v) for v in (level, float(level))]
    assert half[0] == half[1]  # was 0.10825894650108832, for 0.10825893512371408


BAD_CALLS = [
    (lambda: Point(1.0), "Point.__init__() missing 1 required positional argument: 'y'"),
    (lambda: Point(), "Point.__init__() missing 2 required positional arguments: 'x' and 'y'"),
    (lambda: Point(1.0, 2.0, 3.0), "Point.__init__() takes 3 positional arguments but 4 were given"),
    (lambda: Point(1.0, 2.0, z=3.0), "Point.__init__() got an unexpected keyword argument 'z'"),
    (lambda: Point(1.0, x=2.0), "Point.__init__() got multiple values for argument 'x'"),
    (
        lambda: BallRegion(C, 2.0, 0.5, 1.0),
        "BallRegion.__init__() takes from 3 to 4 positional arguments but 5 were given",
    ),
    (
        lambda: BallRegion(),
        "BallRegion.__init__() missing 2 required positional arguments: 'center' and 'outer'",
    ),
    (
        lambda: ExperimentConfig("deflection"),
        "ExperimentConfig.__init__() missing 5 required positional arguments: 'sigma', 'r_levels', 't', "
        "'samples', and 'seed'",
    ),
    (
        lambda: LevelStat(r=1.0, lam=1.0, stat_name="a", value=1.0, half_width=None),
        "LevelStat.__init__() missing 1 required positional argument: 'n'",
    ),
]


@pytest.mark.parametrize("make, message", BAD_CALLS)
def test_bad_call_raises_type_error(make, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        make()


def test_fields_compare_by_value_and_are_unhashable():
    def draw(seed):
        return sample_field(1.0, Point(0.0, 1.0), 2.0, 0.1, np.random.default_rng(seed))

    a, b, c = draw(0), draw(0), draw(1)
    assert len(a) == 19
    assert a == b and not (a != b)
    assert a != c
    assert a != ObstacleField(a.centers, a.radius, 2.0 * a.intensity, a.region)
    assert a != ObstacleField(a.centers[:-1], a.radius, a.intensity, a.region)
    with pytest.raises(TypeError, match="unhashable type: 'ObstacleField'"):
        hash(a)


def test_a_field_keeps_its_own_read_only_centers():
    arr = np.array([[0.0, 1.0], [0.5, 1.25]])
    field = ObstacleField(arr, 0.1, 1.0, REGION)
    arr[0, 1] = 99.0
    assert field.centers is not arr
    assert field.centers.tolist() == [[0.0, 1.0], [0.5, 1.25]]
    with pytest.raises(ValueError, match="read-only"):
        field.centers[0, 0] = 1.0


def test_field_centers_stay_read_only_when_sampled_copied_and_pickled():
    field = sample_field(1.0, Point(0.0, 1.0), 2.0, 0.1, np.random.default_rng(0))
    copies = [copy.copy(field), copy.deepcopy(field)]
    copies += [pickle.loads(pickle.dumps(field, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for record in [field, *copies]:
        assert not record.centers.flags.writeable
        assert record == field and repr(record) == repr(field)
        with pytest.raises(ValueError, match="read-only"):
            record.centers[0, 0] = 1.0


def test_reports_compare_by_value_and_are_unhashable():
    report = Report("deflection", {"sigma": 1.0}, (LEVEL,), 7, 0.5)
    assert report == Report("deflection", {"sigma": 1.0}, (LEVEL,), 7, 0.5)
    assert report != Report("deflection", {"sigma": 2.0}, (LEVEL,), 7, 0.5)
    with pytest.raises(TypeError, match="unhashable type: 'Report'"):
        hash(report)


class Marked(Point):
    """A subclass that adds nothing: it keeps Point's fields and checks."""


def test_a_subclass_keeps_the_fields_and_checks_of_its_record():
    marked = Marked(0.5, y=2.0)
    assert repr(marked) == "Marked(x=0.5, y=2.0)"
    assert marked == Marked(0.5, 2.0) and marked != Point(0.5, 2.0)
    assert hash(marked) == hash(Point(0.5, 2.0))
    assert Marked.__match_args__ == ("x", "y")
    with pytest.raises(ValueError, match="point must lie strictly above the x-axis"):
        Marked(0.5, -1.0)
