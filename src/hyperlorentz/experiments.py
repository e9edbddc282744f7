"""Experiment orchestration: Monte Carlo drivers, reports, file export.

Every experiment runs ``samples`` independent replicas per level through
one runner, ``_Runner``: stream k of level L is a counter-based Philox
stream keyed by the tuple (seed, tag, L, k) and covers replicas [kB,
(k+1)B) for a fixed block size B.  free-path and deflection draw blocks of
B = 8192 replicas from one stream, nearest-neighbor blocks of B = 8192
fields, tube-mc blocks of 200 000 draws, and bg-convergence blocks of B =
256 flights and of 256 billiards in fields explored lazily.
flight-baseline keeps one stream per replica (B = 1).  The runner numbers
the streams of all of a call's levels, level by level, and cuts them into
chunks of at most one batch, 8192 replicas (or one stream), so a chunk
may mix levels.  Each chunk is one kernel call on one block ``(rng, m,
*level parameters)`` per stream.  bg-convergence's kernels are the engines
themselves, the lazy billiard and the block flight: they advance the
blocks of a chunk together, each drawing from its own stream as it would
alone, so that no result depends on the chunk.  B and the caps
never depend on the worker count or the sample count, and the runner
returns per-stream results per level, in stream order, so reports are
byte-identical for any worker count.  A call of blocks (B > 1) of at most
one batch of replicas, samples x levels <= 8192, runs in the caller; the
first call cut for the workers starts the run's one pool of k =
min(workers, chunks) - 1, and the caller runs every (k+1)-th chunk.  Only
then is ``concurrent.futures`` imported.

Report files: ``report.json`` (schema below) and ``levels.csv`` with one
row per (level, statistic).  The JSON field ``elapsed_s`` is written as
null to keep the files deterministic; the measured wall clock is returned
on the in-memory Report and printed by the CLI.

    {experiment, params, levels: [{r, lambda, stat_name, value,
     half_width, n}], seed, elapsed_s}
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; every run uses it, so load it with the package

from .billiard import (
    DEFAULT_MAX_EVENTS,
    _START,
    Trajectory,
    _cosh_to_segment,
    _explore,
    position_at,
    sample_first_collisions,
    simulate,
    tube_area,
)
from .errors import ValidationError
from .flight import FlightConfig, _flight_ends, sample_deflection, simulate_flight
from .geometry import (
    TWO_PI,
    Point,
    _Record,
    ball_area,
    cayley,
    cayley_angle_shift,
    distance_xy,
)
from .obstacles import (
    expected_T1,
    nearest_neighbor_tail,
    sample_annulus,
    sample_field,
)
# Unused here, but perfbench/tracing.py patches these names in this module;
# drop them when its targets move to the batch entry points (ROADMAP D1).
from .billiard import recollision_count, sample_first_collision  # noqa: F401
from .geometry import hyp_distance  # noqa: F401
from .stats import _ks_censored, _spearman_rho, bootstrap_half_width_w1, ks_statistic, wasserstein1

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "LevelStat",
    "Report",
    "run_experiment",
    "sample_trajectory",
    "export_trajectory",
    "exp_cdf",
    "deflection_cdf",
    "t1_cdf",
    "lambda_for",
]

EXPERIMENTS = (
    "free-path",
    "nearest-neighbor",
    "deflection",
    "tube-mc",
    "bg-convergence",
    "flight-baseline",
)

# Stream tags: replica work, shared flight baseline, bootstrap, auxiliary draws.
_TAG_REPLICA = 0
_TAG_FLIGHT = 1
_TAG_BOOT = 2
_TAG_AUX = 3
_TAG_EXPORT = 9

_TUBE_BLOCK = 200_000  # rejection draws per deterministic block
_FC_BLOCK = 8192  # first-collision replicas or nearest-neighbor fields per deterministic block
_LAZY_BLOCK = 256  # bg-convergence flight paths or billiard fields per deterministic block
_BATCH = 8192  # replicas per kernel call, unless one stream holds more


def lambda_for(sigma: float, r: float) -> float:
    """Obstacle intensity for collision rate sigma at radius r."""
    return sigma / (2.0 * math.sinh(r))


def _checked_lambda(sigma: float, r: float) -> float:
    """lambda_for(sigma, r), which must be positive and finite."""
    try:
        lam = lambda_for(sigma, r)
    except OverflowError:  # sinh r overflows, so lambda underflows
        lam = 0.0
    if not (0.0 < lam < math.inf):
        raise ValidationError(f"r = {r} gives intensity {lam}; it must be positive and finite")
    return lam


def _check_tube(t: float, r: float) -> None:
    """tube-mc needs 3t + 4r <= 740, so that its draws stay in float range.

    It draws points at distance up to t/2 + r from (0, e^{t/2}) and squares
    their coordinates.  The farthest land within about 1e-8 of straight up,
    where sin rounds to 1 and the flow's denominator to e^{-distance}: x
    reaches about 5e-9 e^{3t/2 + 2r}, whose square overflows once 3t + 4r
    passes 747.9.  Heights stay below e^{t + r}, and the ball's and the
    tube's areas are finite, well within the bound.
    """
    if not 3.0 * t + 4.0 * r <= 740.0:
        raise ValidationError(
            f"t = {t} and r = {r} give 3t + 4r = {3.0 * t + 4.0 * r:g}; tube-mc needs at most 740, "
            "or points of its enclosing ball overflow"
        )


def _check_reflection(experiment: str, r: float) -> None:
    """deflection and bg-convergence reflect off radius-r obstacles, which
    needs cosh r above 1, that is r > 2^-26.

    The reflection's normal at an impact (x, y) on the disk of center
    (cx, cy) is (x - cx, y - cy cosh r), a difference of coordinates about
    y r apart, which rounding swamps as r shrinks.  Where cosh r rounds
    to 1, the hit solve registers no contact and the lazy billiard never
    counts a disk as explored.
    """
    if math.cosh(r) == 1.0:
        raise ValidationError(
            f"r = {r} is too small for {experiment}: cosh r rounds to 1, so its reflections cannot be "
            "resolved; it needs r > 2^-26, about 1.49e-08"
        )


def exp_cdf(rate: float):
    return lambda x: -np.expm1(-rate * np.asarray(x, dtype=float))


def deflection_cdf(beta):
    """CDF of the hard-disk deflection law: sin^2(beta/4) on [0, 2*pi]."""
    b = np.clip(np.asarray(beta, dtype=float), 0.0, TWO_PI)
    return np.sin(b / 4.0) ** 2


def t1_cdf(lam: float):
    return lambda eta: 1.0 - nearest_neighbor_tail(np.asarray(eta, dtype=float), lam, 1)


# ---------------------------------------------------------------------------
# Configuration and report types
# ---------------------------------------------------------------------------

class ExperimentConfig(_Record):
    """One CLI run: the experiment, its parameters, seed, workers and output."""

    experiment: str
    sigma: float
    r_levels: tuple[float, ...]
    t: float
    samples: int
    seed: int
    workers: int = 1
    output_dir: str = "."

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}; choose one of {', '.join(EXPERIMENTS)}"
            )
        object.__setattr__(self, "r_levels", tuple(float(r) for r in self.r_levels))
        for name in ("samples", "seed", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.experiment == "flight-baseline" and self.samples < 2:
            raise ValidationError("flight-baseline needs samples >= 2 for its event-count variance")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        for name, value in (("sigma", self.sigma), ("t", self.t)):
            if not (0.0 < value < math.inf):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        # A flight turns Poisson(sigma t) times, and a run stops at the event cap.
        flights = self.experiment in ("flight-baseline", "bg-convergence")
        if flights and self.sigma * self.t >= DEFAULT_MAX_EVENTS:
            raise ValidationError(
                f"sigma * t = {self.sigma * self.t:g} is the mean number of turns of a flight; "
                f"{self.experiment} needs it below the cap of {DEFAULT_MAX_EVENTS} events a path"
            )
        if not all(math.isfinite(r) for r in self.r_levels):
            raise ValidationError("r levels must be finite")
        if self.experiment != "flight-baseline":
            if not self.r_levels:
                raise ValidationError(f"{self.experiment} needs at least one r level")
            if any(r <= 0.0 for r in self.r_levels):
                raise ValidationError("r levels must be positive")
            for r in self.r_levels:
                _checked_lambda(self.sigma, r)
                if self.experiment == "tube-mc":
                    _check_tube(self.t, r)
                elif self.experiment in ("deflection", "bg-convergence"):
                    _check_reflection(self.experiment, r)
        if self.experiment == "bg-convergence" and any(
            r2 >= r1 for r1, r2 in zip(self.r_levels, self.r_levels[1:])
        ):
            raise ValidationError("bg-convergence needs strictly decreasing r levels")


class LevelStat(_Record):
    """One named statistic, with its sample count; r/lam where they apply."""

    r: float | None
    lam: float | None
    stat_name: str
    value: float
    half_width: float | None
    n: int


class Report(_Record):
    """What a run reports: its experiment, parameters, statistics and seed."""

    experiment: str
    params: dict
    levels: tuple[LevelStat, ...]
    seed: int
    elapsed_s: float | None

    __hash__ = None  # params is a dict

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "levels": [
                {
                    "r": s.r,
                    "lambda": s.lam,
                    "stat_name": s.stat_name,
                    "value": s.value,
                    "half_width": s.half_width,
                    "n": s.n,
                }
                for s in self.levels
            ],
            "seed": self.seed,
            "elapsed_s": self.elapsed_s,
        }

    def stat(self, name: str, r: float | None = None) -> LevelStat:
        for s in self.levels:
            if s.stat_name == name and (r is None or s.r == r):
                return s
        raise KeyError(f"no statistic {name!r} at level r={r}")


# ---------------------------------------------------------------------------
# Deterministic parallel replica execution
# ---------------------------------------------------------------------------

def _derive_rng(seed: int, tag: int, level: int, index: int) -> np.random.Generator:
    entropy = (seed % (1 << 64), tag, level, index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


def __getattr__(name):
    # ``ProcessPoolExecutor`` is imported on first use: concurrent.futures
    # loads multiprocessing, logging, socket and subprocess, which only a
    # run that starts a pool needs.  Read through the module, so that a
    # class set on it in its place is the one that makes the pools.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_chunk(kernel, args, seed, tag, samples, size, levels, streams):
    """One kernel call on the blocks of a range of streams i = L*n + k."""
    n = -(-samples // size)
    blocks = [
        (_derive_rng(seed, tag, L, k), min(size, samples - k * size), *levels[L])
        for L, k in (divmod(i, n) for i in streams)
    ]
    return kernel(blocks, *args)


class _Runner:
    """Runs kernels over the streams of one run, on one process pool.

    ``run(kernel, levels, *args, tag=tag, size=size)`` runs the streams of
    every level together.  With n streams per level, stream i = L*n + k is
    stream k of level L: it draws from ``_derive_rng(cfg.seed, tag, L, k)``
    and covers replicas [k*size, k*size + m), m = min(size, samples -
    k*size).  The streams are cut into consecutive ranges of at most
    ``_BATCH`` replicas (or one stream), so a chunk may mix levels, and each
    chunk is one call ``kernel(blocks, *args)``, one block ``(rng, m,
    *levels[L])`` per stream.  The kernel returns a tuple of columns with one
    entry per replica, in block order; ``run`` returns one such tuple per
    level, of views into shared arrays, whatever the chunks and the workers.

    A call of blocks (size > 1) of at most ``_BATCH`` replicas over all its
    levels runs every chunk in the caller.  At workers > 1 any other call
    runs on one pool of k worker processes beside the caller, k =
    min(workers, chunks) - 1 at the run's first such call: the caller runs
    chunks 0, k+1, 2(k+1), ... itself while the pool runs the others, and
    results go back in chunk order; later calls reuse it.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._pool = None
        self._pool_size = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def __call__(self, kernel, levels, *args, tag=_TAG_REPLICA, size=1):
        cfg = self.cfg
        total = -(-cfg.samples // size) * len(levels)
        # A call of blocks (size > 1) of at most one batch of replicas runs in
        # the caller.  Calls of one-replica streams (flight-baseline's paths,
        # dear enough for a pool at any size) and larger calls are the fewest
        # chunks of at most cap streams, in a multiple of workers.
        cap = max(1, _BATCH // size)
        workers = cfg.workers if size == 1 or cfg.samples * len(levels) > _BATCH else 1
        count = workers * -(-total // (workers * cap))
        chunk = -(-total // count)
        chunks = [range(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        run = partial(_run_chunk, kernel, args, cfg.seed, tag, cfg.samples, size, levels)
        if workers == 1 or len(chunks) == 1:
            parts = map(run, chunks)
        else:
            if self._pool is None:
                # A fork pool starts all its workers at once: no more than there
                # is work for beside the caller.
                self._pool_size = min(workers, len(chunks)) - 1
                pool_class = sys.modules[__name__].ProcessPoolExecutor
                self._pool = pool_class(max_workers=self._pool_size)
            step = self._pool_size + 1
            theirs = self._pool.map(run, [c for i, c in enumerate(chunks) if i % step])
            mine = iter([run(c) for c in chunks[::step]])
            parts = [next(theirs if i % step else mine) for i in range(len(chunks))]
        # Every level has cfg.samples entries in every column.
        return list(zip(*(np.split(col, len(levels)) for col in _columns(parts))))


def _columns(parts):
    """Each column of a list of column tuples, concatenated in list order."""
    return tuple(np.concatenate(col) for col in zip(*parts))


# Kernels: kernel(blocks, *args) -> tuple of columns over the replicas of a
# chunk's blocks (rng, m, *level parameters), one block per stream, in
# order.  _first_collisions, _nearest, _tube and bg-convergence's engines,
# billiard._explore and flight._flight_ends, run a block of m replicas per
# stream; _flight_count runs one path per stream.

def _first_collisions(blocks, horizon):
    return _columns([sample_first_collisions(lam, r, horizon, rng, m) for rng, m, lam, r in blocks])


def _nearest(blocks):
    """Distance from the start to the nearest point of each of m fields on
    the ball of radius R, or R (censored) for an empty field."""
    parts = []
    for rng, m, lam, R in blocks:
        counts = rng.poisson(lam * ball_area(R), m)
        pts = sample_annulus(_START.point, 0.0, R, rng, int(counts.sum()))
        d = distance_xy(pts[:, 0], pts[:, 1], _START.point.x, _START.point.y)
        hit = counts > 0
        near = np.full(m, R)
        near[hit] = np.minimum.reduceat(d, (np.cumsum(counts) - counts)[hit])
        parts.append((near, ~hit))
    return _columns(parts)


def _flight_count(blocks, sigma, t):
    cfg = FlightConfig(sigma, t)
    return (np.array([len(simulate_flight(_START, cfg, rng).events) for rng, _ in blocks]),)


def _tube(blocks, t):
    """Whether each of m uniform draws from the ball enclosing the tube hits it.

    The tube around the unit-speed vertical geodesic from (0, 1) is tested
    in closed form by :func:`_cosh_to_segment`.  The enclosing ball is
    centered at the segment midpoint (0, e^{t/2}) with radius t/2 + r.
    """
    hits = []
    for rng, m, r in blocks:
        pts = sample_annulus(Point(0.0, math.exp(0.5 * t)), 0.0, 0.5 * t + r, rng, m)
        hits.append(_cosh_to_segment(pts[:, 0], pts[:, 1], t) < math.cosh(r))
    return (np.concatenate(hits),)


def _mean_hw(x) -> tuple[float, float]:
    """Sample mean and 95% normal half-width."""
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(1.96 * x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def _lambdas(cfg: ExperimentConfig) -> list[float]:
    return [lambda_for(cfg.sigma, r) for r in cfg.r_levels]


def _drive_free_path(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    lams = _lambdas(cfg)
    columns = run(_first_collisions, list(zip(lams, cfg.r_levels)), cfg.t, size=_FC_BLOCK)
    for r, lam, (times, _, censored) in zip(cfg.r_levels, lams, columns):
        n = cfg.samples
        # Censored replicas are known only to fly past t: test the law below t.
        ks = _ks_censored(times[~censored], n, exp_cdf(cfg.sigma), cfg.t)
        mean, hw = _mean_hw(times)
        levels += [
            LevelStat(r, lam, "ks_exp", ks, None, n),
            LevelStat(r, lam, "mean_free_path", mean, hw, n),
            LevelStat(r, lam, "censored_count", float(censored.sum()), None, n),
        ]
    return levels


def _drive_nearest_neighbor(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    lams = _lambdas(cfg)
    # Balls large enough that Pr(T1 > R) ~ e^-30; censoring is negligible.
    balls = [2.0 * math.asinh(math.sqrt(30.0 / (4.0 * math.pi * lam))) for lam in lams]
    columns = run(_nearest, list(zip(lams, balls)), size=_FC_BLOCK)
    for r, lam, (t1, censored) in zip(cfg.r_levels, lams, columns):
        n = cfg.samples
        ks = ks_statistic(t1, t1_cdf(lam))
        mean, hw = _mean_hw(t1)
        levels += [
            LevelStat(r, lam, "mean_t1", mean, hw, n),
            LevelStat(r, lam, "ks_t1_tail", ks, None, n),
            LevelStat(r, lam, "expected_t1", expected_T1(lam), None, 0),
            LevelStat(r, lam, "censored_count", float(censored.sum()), None, n),
        ]
    return levels


def _drive_deflection(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    lams = _lambdas(cfg)
    columns = run(_first_collisions, list(zip(lams, cfg.r_levels)), cfg.t, size=_FC_BLOCK)
    for r, lam, (times, betas, censored) in zip(cfg.r_levels, lams, columns):
        keep = ~censored
        betas = betas[keep]
        n = int(keep.sum())
        # A level whose every replica is censored has no deflection to test,
        # and one of at most 2 uncensored replicas no rank correlation.
        ks = ks_statistic(betas, deflection_cdf) if n else math.nan
        rho = _spearman_rho(times[keep], betas) if n > 2 else math.nan
        levels += [
            LevelStat(r, lam, "ks_deflection", ks, None, n),
            # Spearman's rho, not Kendall's tau: the name stays, so reports stay byte-identical.
            LevelStat(r, lam, "spearman_tau_beta", rho, None, n),
            LevelStat(r, lam, "censored_count", float((~keep).sum()), None, cfg.samples),
        ]
    return levels


def _drive_tube_mc(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    columns = run(_tube, [(r,) for r in cfg.r_levels], cfg.t, size=_TUBE_BLOCK)
    for r, (hits,) in zip(cfg.r_levels, columns):
        draws = hits.size
        count = np.count_nonzero(hits)
        p = count / draws
        area = ball_area(0.5 * cfg.t + r)
        if 0 < count < draws:
            hw = 1.96 * area * math.sqrt(p * (1.0 - p) / draws)
        else:
            # With no hit, or no miss, the binomial half-width is 0.  Report
            # the one-sided 95 % bound on the share instead: 1 - 0.05^(1/draws),
            # about 3/draws (the rule of three).
            hw = -area * math.expm1(math.log(0.05) / draws)
        levels += [
            LevelStat(r, None, "tube_area_mc", float(area * p), float(hw), draws),
            LevelStat(r, None, "tube_area_formula", tube_area(cfg.t, r), None, 0),
        ]
    return levels


def _drive_bg_convergence(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    x0, y0 = _START.point.x, _START.point.y
    # The flight is one level with no parameters of its own.
    [(x, y, _)] = run(_flight_ends, [()], FlightConfig(cfg.sigma, cfg.t), tag=_TAG_FLIGHT, size=_LAZY_BLOCK)
    flight = distance_xy(x0, y0, x, y)
    levels = []
    lams = _lambdas(cfg)
    columns = run(_explore, list(zip(lams, cfg.r_levels)), cfg.t, size=_LAZY_BLOCK)
    for li, (r, lam, (x, y, events, recollisions)) in enumerate(zip(cfg.r_levels, lams, columns)):
        disp = distance_xy(x0, y0, x, y)
        w1 = wasserstein1(disp, flight)
        hw = bootstrap_half_width_w1(disp, flight, _derive_rng(cfg.seed, _TAG_BOOT, li, 0))
        n = cfg.samples
        levels += [
            LevelStat(r, lam, "wasserstein1_displacement", w1, hw, n),
            LevelStat(r, lam, "recollision_fraction", float((recollisions > 0).mean()), None, n),
            LevelStat(r, lam, "mean_collisions", float(events.mean()), None, n),
        ]
    return levels


def _drive_flight_baseline(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    [(counts,)] = run(_flight_count, [()], cfg.sigma, cfg.t)
    counts = counts.astype(float)
    mean, hw = _mean_hw(counts)
    betas = sample_deflection(_derive_rng(cfg.seed, _TAG_AUX, 0, 0), cfg.samples)
    return [
        LevelStat(None, None, "event_count_mean", mean, hw, cfg.samples),
        LevelStat(None, None, "event_count_var", float(counts.var(ddof=1)), None, cfg.samples),
        LevelStat(None, None, "ks_deflection", ks_statistic(betas, deflection_cdf), None, cfg.samples),
    ]


_DRIVERS = {
    "free-path": _drive_free_path,
    "nearest-neighbor": _drive_nearest_neighbor,
    "deflection": _drive_deflection,
    "tube-mc": _drive_tube_mc,
    "bg-convergence": _drive_bg_convergence,
    "flight-baseline": _drive_flight_baseline,
}


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_report(report: Report, out_dir: Path) -> None:
    """Write both files to temporaries in out_dir, then rename them into place,
    so a failed write leaves the previous pair untouched."""
    payload = dict(report.to_json_dict(), elapsed_s=None)
    lines = ["r,lambda,stat_name,value,half_width,n"]
    for s in report.levels:
        lines.append(
            ",".join([_fmt(s.r), _fmt(s.lam), s.stat_name, _fmt(s.value), _fmt(s.half_width), str(s.n)])
        )
    files = {
        "report.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        "levels.csv": "\n".join(lines) + "\n",
    }
    temps = [out_dir / f".{name}.{os.getpid()}.tmp" for name in files]
    try:
        for tmp, text in zip(temps, files.values()):
            tmp.write_text(text)
        for tmp, name in zip(temps, files):
            os.replace(tmp, out_dir / name)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _writable_dir(path: str | Path) -> Path:
    """The directory path, made if need be, once a file has been written
    in it: a run checks where it writes before it samples."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ValidationError(f"output directory {out_dir} is not writable: {exc}") from exc
    return out_dir


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one experiment and write report.json / levels.csv to output_dir.

    The written files depend only on (experiment, params, seed); the worker
    count affects wall clock only.
    """
    out_dir = _writable_dir(cfg.output_dir)
    t0 = time.perf_counter()
    with _Runner(cfg) as run:
        levels = _DRIVERS[cfg.experiment](cfg, run)
    elapsed = time.perf_counter() - t0
    report = Report(
        experiment=cfg.experiment,
        params={
            "sigma": cfg.sigma,
            "r_levels": list(cfg.r_levels),
            "t": cfg.t,
            "samples": cfg.samples,
        },
        levels=tuple(levels),
        seed=cfg.seed,
        elapsed_s=elapsed,
    )
    _write_report(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

def sample_trajectory(sigma: float, r: float, t: float, seed: int) -> Trajectory:
    """The billiard trajectory that ``export`` writes: from (0, 1) heading up
    to horizon t, in a field of radius-r obstacles at collision rate sigma
    drawn from the export stream of the seed."""
    if not all(0.0 < v < math.inf for v in (sigma, r, t)):
        raise ValidationError("sigma, r and t must all be positive and finite")
    lam = _checked_lambda(sigma, r)
    field = sample_field(lam, _START.point, t + r, r, _derive_rng(seed, _TAG_EXPORT, 0, 0))
    return simulate(_START, field, t)


def export_trajectory(traj: Trajectory, model: str, dest: str | Path) -> Path:
    """Write a trajectory as CSV rows t,x,y,alpha,event.

    Rows sample a time grid of step 0.05 plus the exact event times (flagged
    event=1, carrying the post-collision direction).  model='disk' maps
    positions through the Cayley transform and turns directions by its
    conformal rotation.
    """
    if model not in ("halfplane", "disk"):
        raise ValidationError(f"model must be 'halfplane' or 'disk', got {model!r}")
    times = [float(t) for t in np.arange(0.0, traj.horizon, 0.05)]
    if not times or traj.horizon - times[-1] > 1e-12:
        times.append(traj.horizon)
    event_times = {ev.time for ev in traj.events}
    rows = [(t, 0) for t in times if min((abs(t - e) for e in event_times), default=1.0) > 1e-12]
    rows += [(ev.time, 1) for ev in traj.events]
    rows.sort()

    lines = ["t,x,y,alpha,event"]
    for t, flag in rows:
        s = position_at(traj, t)
        x, y, alpha = s.point.x, s.point.y, s.dir.alpha
        if model == "disk":
            x, y = cayley(s.point)
            alpha = (alpha + cayley_angle_shift(s.point)) % TWO_PI
        lines.append(f"{t!r},{x!r},{y!r},{alpha!r},{flag}")
    dest = Path(dest)
    if dest.parent and not dest.parent.exists():
        dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("\n".join(lines) + "\n")
    return dest
