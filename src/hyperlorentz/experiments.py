"""Experiment orchestration: Monte Carlo drivers, reports, file export.

Every experiment runs ``samples`` independent replicas per level through
one runner, ``_Runner``: stream k of level L is a counter-based Philox
stream keyed by the tuple (seed, tag, L, k) and covers replicas [kB,
(k+1)B) for a fixed block size B.  free-path and deflection draw blocks of
B = 8192 replicas from one stream, nearest-neighbor blocks of B = 8192
fields, tube-mc blocks of 200 000 draws, and bg-convergence blocks of B =
256 flights and of 256 billiards in fields explored lazily.
flight-baseline keeps one stream per replica (B = 1).  B and the caps
never depend on the worker count or the sample count, so reports are
byte-identical for any worker count; ``_Runner`` says how a call's streams
are cut into chunks and which chunks run on its pool.

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
from bisect import bisect_left
from functools import partial
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; every run uses it, so load it with the package

from .billiard import (
    DEFAULT_MAX_EVENTS,
    _START,
    Trajectory,
    _check_reflection,
    _coshm1,
    _coshm1_to_segment,
    _explore,
    _trajectory,
    position_at,
    sample_first_collisions,
    tube_area,
)
from .errors import ValidationError, _integer, _positive
from .flight import FlightConfig, _flight_ends, sample_deflection, simulate_flight
from .geometry import (
    TWO_PI,
    Point,
    _Record,
    _sinh,
    _wrap,
    ball_area,
    cayley,
    cayley_angle_shift,
    distance_xy,
)
from .obstacles import expected_T1, nearest_neighbor_tail, sample_annulus
# Unused here, but perfbench/tracing.py patches these names in this module;
# drop them when its targets move to the batch entry points (ROADMAP D1).
from .billiard import recollision_count, sample_first_collision, simulate  # noqa: F401
from .geometry import hyp_distance  # noqa: F401
from .obstacles import sample_field  # noqa: F401
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
    """Obstacle intensity sigma / (2 sinh r) for collision rate sigma at radius
    r, refused unless positive and finite: from r ~ 710 on, sinh r overflows."""
    sigma, r = _positive("sigma", sigma), _positive("r", r)
    lam = sigma / (2.0 * _sinh(r))
    if not 0.0 < lam < math.inf:
        raise ValidationError(f"r = {r} gives intensity {lam}; it must be positive and finite")
    return lam


def _check_run(command: str, sigma: float, t: float, r_levels) -> tuple[float, float, tuple[float, ...]]:
    """Refuse a sigma, t or r level that ``command`` cannot run, before it samples, or
    return them as floats; the rules that differ between commands are ``_COMMANDS[command]``."""
    _, bound, why, counts, reflects = _COMMANDS[command]
    sigma, t = _positive("sigma", sigma), _positive("t", t)
    # A path turns about Poisson(sigma t) times, and a run stops at the event cap.
    if counts and sigma * t >= DEFAULT_MAX_EVENTS:
        raise ValidationError(
            f"sigma * t = {sigma * t:g} {counts}; "
            f"{command} needs it below the cap of {DEFAULT_MAX_EVENTS} events a path"
        )
    try:
        r_levels = tuple(_positive("r", r) for r in r_levels)
    except TypeError:
        raise ValidationError(f"r levels must be a sequence of real numbers, got {r_levels!r}") from None
    past = f"{command} needs at most {bound:g}, or {why}"
    if command == "flight-baseline":
        if not t <= bound:
            raise ValidationError(f"t = {t}; {past}")
        return sigma, t, r_levels
    if not r_levels:
        raise ValidationError(f"{command} needs at least one r level")
    for r in r_levels:
        lambda_for(sigma, r)
        if not t + r <= bound:
            raise ValidationError(f"t = {t} and r = {r} give t + r = {t + r}; {past}")
        if reflects:
            _check_reflection(command, r)
    return sigma, t, r_levels


def exp_cdf(rate: float):
    """CDF of Exp(rate): 1 - e^(-rate x), 0 below x = 0."""
    rate = _positive("rate", rate)
    return lambda x: -np.expm1(-rate * np.maximum(np.asarray(x, dtype=float), 0.0))


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
        samples = _integer("samples", self.samples, 1)
        if self.experiment == "flight-baseline" and samples < 2:
            raise ValidationError("flight-baseline needs samples >= 2 for its event-count variance")
        seed, workers = _integer("seed", self.seed), _integer("workers", self.workers, 1)
        sigma, t, levels = _check_run(self.experiment, self.sigma, self.t, self.r_levels)
        self.__dict__.update(sigma=sigma, r_levels=levels, t=t, samples=samples, seed=seed, workers=workers)
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


#: The keys of a level in report.json and the columns of levels.csv, in
#: LevelStat's field order.
_LEVEL_COLUMNS = ("r", "lambda", "stat_name", "value", "half_width", "n")


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
            "levels": [dict(zip(_LEVEL_COLUMNS, s._values())) for s in self.levels],
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
    levels, and any call cut into one chunk, runs in the caller.  At
    workers > 1 any other call runs on one pool of k worker processes
    beside the caller, k = min(workers, chunks) - 1 at the run's first such
    call: the caller runs chunks 0, k+1, 2(k+1), ... itself while the pool
    runs the others, and results go back in chunk order; later calls reuse
    it.
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
    in closed form by :func:`_coshm1_to_segment`.  The enclosing ball is
    centered at the segment midpoint (0, e^{t/2}) with radius t/2 + r.
    """
    hits = []
    for rng, m, r in blocks:
        pts = sample_annulus(Point(0.0, math.exp(0.5 * t)), 0.0, 0.5 * t + r, rng, m)
        hits.append(_coshm1_to_segment(pts[:, 0], pts[:, 1], t) < _coshm1(r))
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


#: Each command's entry, in the CLI's order: its driver (None for export);
#: the largest t + r (t for flight-baseline) at which its coordinates stay in
#: float range, and what overflows past it; what sigma * t counts where its
#: paths stop at the event cap; and whether it reflects, and so needs r >
#: 2^-26 (:func:`_check_reflection`).  A path from (0, 1) reaches heights of
#: e^t, and centers within r of it (or tube-mc's draws) e^{t + r}.
#: :func:`_coshm1_to_segment` and bg-convergence's distances square them, which
#: overflows once t + r passes 354.5 (r small) to 354.9 (r large).
#: flight-baseline squares nothing, but its flow's e^t overflows past t = 709.78.
_COMMANDS = {
    "free-path": (_drive_free_path, math.inf, "", None, True),
    "nearest-neighbor": (_drive_nearest_neighbor, math.inf, "", None, False),
    "deflection": (_drive_deflection, math.inf, "", None, True),
    "tube-mc": (_drive_tube_mc, 354.0, "points of its enclosing ball overflow", None, False),
    "bg-convergence": (_drive_bg_convergence, 354.0, "coordinates of its paths overflow when squared",
                       "is the mean number of turns of a flight", True),
    "flight-baseline": (_drive_flight_baseline, 709.0, "e^t in its flow overflows",
                        "is the mean number of turns of a flight", False),
    "export": (None, 354.0, "coordinates of its path overflow when squared",
               "is about the mean number of collisions of the path", True),
}

EXPERIMENTS = tuple(name for name, (driver, *_) in _COMMANDS.items() if driver)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(columns, rows) -> str:
    """A header of the column names, then one line per row of values."""
    return "\n".join([",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Write each file's text to a temporary in out_dir, then rename them all
    into place, so a failed write leaves the previous files untouched."""
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = [out_dir / f".{name}.{os.getpid()}.tmp" for name in files]
    try:
        for tmp, text in zip(temps, files.values()):
            tmp.write_text(text)
        for tmp, name in zip(temps, files):
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise


def _write_report(report: Report, out_dir: Path) -> None:
    payload = dict(report.to_json_dict(), elapsed_s=None)
    _write_files(out_dir, {
        "report.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        "levels.csv": _csv(_LEVEL_COLUMNS, (s._values() for s in report.levels)),
    })


def _writable_dir(path: str | Path) -> Path:
    """The directory path, made if need be, once a file has been written
    in it: a run checks where it writes before it samples."""
    out_dir = Path(path)
    probe = out_dir / ".write-probe"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            probe.write_text("")
        finally:
            # A failed write may leave the file, and a run probing the same
            # directory at once may have removed it already.
            probe.unlink(missing_ok=True)
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
        levels = _COMMANDS[cfg.experiment][0](cfg, run)
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
    to horizon t among radius-r obstacles at collision rate sigma.

    It is one lazy-billiard block of one replica drawn from the export
    stream of the seed (:func:`billiard._explore`): the field is revealed
    only along the path, but each step races every center met so far and
    tests each proposal against every segment so far, so the cost grows
    about as the square of the events.  Its inputs obey the experiments'
    rules (:func:`_check_run`): t + r <= 354, r > 2^-26 and sigma * t below
    the event cap; the seed is an integer.  An event's ``obstacle_index`` is
    the round in which its obstacle was first met.
    """
    sigma, t, (r,) = _check_run("export", sigma, t, (r,))
    seed = _integer("seed", seed)
    record: list = []
    _explore([(_derive_rng(seed, _TAG_EXPORT, 0, 0), 1, lambda_for(sigma, r), r)], t, record=record)
    return _trajectory(_START, t, record)


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
    # A grid time within 1e-12 of an event gives way to the event's row: test
    # the two event times around its place in the increasing event times.
    event_times = [ev.time for ev in traj.events]
    near = (event_times[max(k - 1, 0) : k + 1] for k in (bisect_left(event_times, t) for t in times))
    rows = [(t, 0) for t, pair in zip(times, near) if all(abs(t - e) > 1e-12 for e in pair)]
    rows += [(t, 1) for t in event_times]
    rows.sort()

    table = []
    for t, flag in rows:
        s = position_at(traj, t)
        x, y, alpha = s.point.x, s.point.y, s.dir.alpha
        if model == "disk":
            x, y = cayley(s.point)
            alpha = _wrap(alpha + cayley_angle_shift(s.point))
        table.append((t, x, y, alpha, flag))
    dest = Path(dest)
    _write_files(dest.parent, {dest.name: _csv(("t", "x", "y", "alpha", "event"), table)})
    return dest
