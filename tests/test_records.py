"""The package's 16 value types behave as frozen records.

Each is built by position or keyword, fills its defaults, runs the checks
and normalizations of its ``__post_init__``, prints, compares, hashes,
pickles and copies by its fields, refuses assignment and deletion, and
rejects a bad call with the TypeError of a plain ``__init__``.  Every
expected text here was printed by the ``@dataclass(frozen=True)`` classes
that these records replaced, so a record keeps the behavior its users saw.
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
    sample_field,
)

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


CHECKS = [
    (lambda: Point(math.inf, 1.0), ValueError, "point coordinates must be finite, got (inf, 1.0)"),
    (lambda: Point(0.0, math.nan), ValueError, "point coordinates must be finite, got (0.0, nan)"),
    (lambda: Point(0.0, 0.0), ValueError, "point must lie strictly above the x-axis, got y=0.0"),
    (lambda: Direction(math.nan), ValueError, "direction angle must be finite, got nan"),
    (
        lambda: MobiusMap(1.0, 0.0, 0.0, -1.0),
        ValueError,
        "Mobius coefficients must have positive determinant, got -1.0",
    ),
    (
        lambda: MobiusMap(math.inf, 0.0, 0.0, 1.0),
        ValueError,
        "Mobius coefficients must have positive determinant, got inf",
    ),
    (lambda: HypCircle(P, 0.0), ValueError, "circle radius must be positive, got 0.0"),
    (lambda: HypCircle(P, math.inf), ValueError, "circle radius must be positive, got inf"),
    (lambda: BallRegion(C, 0.0), ValueError, "outer radius must be positive, got 0.0"),
    (lambda: BallRegion(C, math.inf), ValueError, "outer radius must be positive, got inf"),
    (
        lambda: BallRegion(C, 1.0, 1.0),
        ValueError,
        "exclusion radius must satisfy 0 <= exclusion < outer, got 1.0",
    ),
    (
        lambda: BallRegion(C, 1.0, -0.5),
        ValueError,
        "exclusion radius must satisfy 0 <= exclusion < outer, got -0.5",
    ),
    (
        lambda: ObstacleField([1.0, 2.0], 0.1, 1.0, REGION),
        ValueError,
        "centers must be an (n, 2) array, got shape (2,)",
    ),
    (
        lambda: ObstacleField([[0.0, 1.0]], 0.0, 1.0, REGION),
        ValueError,
        "obstacle radius must be positive, got 0.0",
    ),
    (
        lambda: ObstacleField([[0.0, 1.0]], 0.1, 0.0, REGION),
        ValueError,
        "intensity must be positive, got 0.0",
    ),
    (
        lambda: ObstacleField([[0.0, 50.0]], 0.1, 1.0, REGION),
        ValueError,
        "field has centers outside its sampling region",
    ),
    (
        lambda: ObstacleField([[0.0, 1.0]], 0.1, 1.0, BallRegion(C, 2.0, 0.5)),
        ValueError,
        "field has centers outside its sampling region",
    ),
    (lambda: PotentialProfile(0.0, Ramp()), ValueError, "support radius must be positive, got 0.0"),
    (
        lambda: PotentialProfile(1.0, lambda eta: -1.0 if eta < 1.0 else 0.0),
        ValueError,
        "profile takes a negative value inside its support",
    ),
    (
        lambda: PotentialProfile(1.0, lambda eta: 1.0),
        ValueError,
        "profile does not vanish beyond its support radius",
    ),
    (lambda: Obstacle(P, 0.0), ValueError, "obstacle radius must be positive, got 0.0"),
    (lambda: CollisionEvent(0.0, P, D, D, 0.0, 0), ValueError, "collision time must be positive, got 0.0"),
    (lambda: Trajectory(State(P, D), 0.0, ()), ValueError, "horizon must be positive, got 0.0"),
    (
        lambda: Trajectory(State(P, D), 5.0, (EVENT, EVENT)),
        ValueError,
        "collision times must be strictly increasing",
    ),
    (
        lambda: Trajectory(State(P, D), 1.5, (EVENT,)),
        ValueError,
        "collision times must lie strictly before the horizon",
    ),
    (lambda: FlightConfig(0.0, 1.0), ValueError, "collision rate must be positive, got 0.0"),
    (lambda: FlightConfig(1.0, math.nan), ValueError, "horizon must be positive, got nan"),
    (
        lambda: _config(experiment="bogus"),
        ValidationError,
        "unknown experiment 'bogus'; choose one of free-path, nearest-neighbor, deflection, tube-mc, "
        "bg-convergence, flight-baseline",
    ),
    (lambda: _config(samples=1.0), ValidationError, "samples must be an integer, got 1.0"),
    (lambda: _config(seed=True), ValidationError, "seed must be an integer, got True"),
    (lambda: _config(workers="2"), ValidationError, "workers must be an integer, got '2'"),
    (lambda: _config(samples=0), ValidationError, "samples must be >= 1, got 0"),
    (
        lambda: _config(experiment="flight-baseline", samples=1),
        ValidationError,
        "flight-baseline needs samples >= 2 for its event-count variance",
    ),
    (lambda: _config(workers=0), ValidationError, "workers must be >= 1, got 0"),
    (lambda: _config(sigma=0.0), ValidationError, "sigma must be positive and finite, got 0.0"),
    (lambda: _config(t=math.inf), ValidationError, "t must be positive and finite, got inf"),
    (lambda: _config(r_levels=(0.5, math.nan)), ValidationError, "r levels must be finite"),
    (lambda: _config(r_levels=()), ValidationError, "deflection needs at least one r level"),
    (lambda: _config(r_levels=(0.5, -0.1)), ValidationError, "r levels must be positive"),
    (
        lambda: _config(r_levels=(800.0,)),
        ValidationError,
        "r = 800.0 gives intensity 0.0; it must be positive and finite",
    ),
    (
        lambda: _config(experiment="tube-mc", t=240.0, r_levels=(10.0,)),
        ValidationError,
        "t = 240.0 and r = 10.0 give 3t + 4r = 760; tube-mc needs at most 740",
    ),
    (
        lambda: _config(experiment="bg-convergence", r_levels=(0.2, 0.4)),
        ValidationError,
        "bg-convergence needs strictly decreasing r levels",
    ),
]


@pytest.mark.parametrize("make, error, message", CHECKS)
def test_post_init_rejects(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


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
