"""Experiment orchestration: Monte Carlo drivers, reports, file export.

Every experiment runs ``samples`` independent replicas through one runner,
``_Runner``: stream k of level L is a counter-based Philox stream keyed by
the tuple (seed, tag, L, k) and covers replicas [kB, (k+1)B) for a fixed
block size B.  free-path and deflection draw blocks of B = 8192 replicas
from one stream, tube-mc counts blocks of 200 000 draws, and the
bg-convergence billiard levels explore blocks of B = 256 fields lazily.
The other experiments, and the bg-convergence flight, keep one stream per
replica (B = 1); nearest-neighbor and the flight advance the replicas of a
chunk of streams together (fields in batches of at most 16 384 obstacles),
each on its own stream, so that no result depends on the chunk.  B and
the batch cap never depend on the worker count, and the runner
concatenates per-stream results in stream order, so reports depend only
on the configuration and are byte-identical for any worker count.  One
process pool serves the whole run, with no more workers than there are
chunks of streams.

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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy import stats as sps

from .billiard import (
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
    Direction,
    Point,
    State,
    ball_area,
    cayley,
    cayley_angle_shift,
    distance_xy,
)
from .obstacles import (
    _sample_fields,
    expected_T1,
    nearest_neighbor_tail,
    sample_annulus,
    sample_field,
)
# Unused here, but perfbench/tracing.py patches these names in this module;
# drop them when its targets move to the batch entry points (ROADMAP D1).
from .billiard import recollision_count, sample_first_collision  # noqa: F401
from .geometry import hyp_distance  # noqa: F401
from .stats import bootstrap_half_width_w1, ks_statistic, wasserstein1

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

_START = State(Point(0.0, 1.0), Direction(0.5 * math.pi))

_TUBE_BLOCK = 200_000  # rejection draws per deterministic block
_FC_BLOCK = 8192  # first-collision replicas per deterministic block
_LAZY_BLOCK = 256  # bg-convergence billiard replicas per deterministic block


def lambda_for(sigma: float, r: float) -> float:
    """Obstacle intensity for collision rate sigma at radius r."""
    return sigma / (2.0 * math.sinh(r))


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

@dataclass(frozen=True)
class ExperimentConfig:
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
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        for name, value in (("sigma", self.sigma), ("t", self.t)):
            if not (0.0 < value < math.inf):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if not all(math.isfinite(r) for r in self.r_levels):
            raise ValidationError("r levels must be finite")
        if self.experiment != "flight-baseline":
            if not self.r_levels:
                raise ValidationError(f"{self.experiment} needs at least one r level")
            if any(r <= 0.0 for r in self.r_levels):
                raise ValidationError("r levels must be positive")
        if self.experiment == "bg-convergence" and any(
            r2 >= r1 for r1, r2 in zip(self.r_levels, self.r_levels[1:])
        ):
            raise ValidationError("bg-convergence needs strictly decreasing r levels")


@dataclass(frozen=True)
class LevelStat:
    """One named statistic, with its sample count; r/lam where they apply."""

    r: float | None
    lam: float | None
    stat_name: str
    value: float
    half_width: float | None
    n: int


@dataclass(frozen=True)
class Report:
    experiment: str
    params: dict
    levels: tuple[LevelStat, ...]
    seed: int
    elapsed_s: float | None

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
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
            "elapsed_s": self.elapsed_s if include_elapsed else None,
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


def _run_range(kernel, params, seed, tag, level, total, size, lo, hi):
    """Streams lo..hi-1 of a level, through one kernel call."""
    ks = range(lo, hi)
    rngs = [_derive_rng(seed, tag, level, k) for k in ks]
    return kernel(rngs, [min(size, total - k * size) for k in ks], *params)


class _Runner:
    """Runs kernels over the streams of one run, on one process pool.

    ``run(kernel, level, params, tag, size)`` calls ``kernel(rngs, sizes,
    *params)`` on consecutive chunks of the level's streams: stream k draws
    from ``_derive_rng(cfg.seed, tag, level, k)`` and covers replicas
    [k*size, k*size + sizes[k]), sizes[k] = min(size, samples - k*size).
    The kernel returns a tuple of columns over its streams' replicas (or
    over its streams); each comes back concatenated in stream order,
    whatever the workers.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def __call__(self, kernel, level, params, tag=_TAG_REPLICA, size=1):
        cfg = self.cfg
        n = -(-cfg.samples // size)
        chunk = max(1, min(8192, -(-n // (cfg.workers * 4))))
        los = range(0, n, chunk)
        his = [min(lo + chunk, n) for lo in los]
        run = partial(_run_range, kernel, params, cfg.seed, tag, level, cfg.samples, size)
        if cfg.workers == 1 or len(los) == 1:
            parts = list(map(run, los, his))
        else:
            if self._pool is None:
                # A fork pool starts all its workers at once: no more than there is work for.
                self._pool = ProcessPoolExecutor(max_workers=min(cfg.workers, len(los)))
            parts = list(self._pool.map(run, los, his))
        return _columns(parts)


def _columns(parts):
    """Each column of a list of column tuples, concatenated in list order."""
    return tuple(np.concatenate(col) for col in zip(*parts))


# Kernels: kernel(rngs, sizes, *params) -> tuple of columns for a chunk of
# streams.  _first_collisions and _lorentz_disp run a block of replicas per
# stream, _lorentz_disp's in fields revealed along their paths; the
# per-replica kernels but _flight_count advance their streams together.

def _first_collisions(rngs, sizes, lam, r, horizon):
    return _columns(
        [sample_first_collisions(lam, r, horizon, rng, m) for rng, m in zip(rngs, sizes)]
    )


def _nearest(rngs, sizes, lam, R):
    parts = []
    for fields in _sample_fields(lam, _START.point, R, 0.0, rngs, radius=R):
        d = distance_xy(fields.x, fields.y, _START.point.x, _START.point.y)
        hit = fields.counts > 0
        near = np.full(len(hit), R)
        if d.size:
            near[hit] = np.minimum.reduceat(d, (np.cumsum(fields.counts) - fields.counts)[hit])
        parts.append((near, ~hit))
    return _columns(parts)


def _lorentz_disp(rngs, sizes, lam, r, t):
    parts = []
    for rng, m in zip(rngs, sizes):
        x, y, events, recollisions = _explore(_START, lam, r, t, rng, m)
        parts.append((distance_xy(_START.point.x, _START.point.y, x, y), recollisions, events))
    return _columns(parts)


def _flight_disp(rngs, sizes, sigma, t):
    x, y, _ = _flight_ends(_START, FlightConfig(sigma, t), rngs)
    return (distance_xy(_START.point.x, _START.point.y, x, y),)


def _flight_count(rngs, sizes, sigma, t):
    cfg = FlightConfig(sigma, t)
    return (np.array([len(simulate_flight(_START, cfg, rng).events) for rng in rngs]),)


def _tube(rngs, sizes, r, t):
    """Hits among m uniform draws from the ball enclosing the tube, per stream.

    The tube around the unit-speed vertical geodesic from (0, 1) is tested
    in closed form by :func:`_cosh_to_segment`.  The enclosing ball is
    centered at the segment midpoint (0, e^{t/2}) with radius t/2 + r.
    """
    hits = []
    for rng, m in zip(rngs, sizes):
        pts = sample_annulus(Point(0.0, math.exp(0.5 * t)), 0.0, 0.5 * t + r, rng, m)
        hits.append(np.count_nonzero(_cosh_to_segment(pts[:, 0], pts[:, 1], t) < math.cosh(r)))
    return np.array(hits), np.array(sizes)


def _mean_hw(x) -> tuple[float, float]:
    """Sample mean and 95% normal half-width."""
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(1.96 * x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def _drive_free_path(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        times, _, censored = run(_first_collisions, li, (lam, r, cfg.t), size=_FC_BLOCK)
        n = cfg.samples
        ks = ks_statistic(times, exp_cdf(cfg.sigma))
        mean, hw = _mean_hw(times)
        levels += [
            LevelStat(r, lam, "ks_exp", ks, None, n),
            LevelStat(r, lam, "mean_free_path", mean, hw, n),
            LevelStat(r, lam, "censored_count", float(censored.sum()), None, n),
        ]
    return levels


def _drive_nearest_neighbor(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        # Ball large enough that Pr(T1 > R) ~ e^-30; censoring is negligible.
        R = 2.0 * math.asinh(math.sqrt(30.0 / (4.0 * math.pi * lam)))
        t1, censored = run(_nearest, li, (lam, R))
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
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        times, betas, censored = run(_first_collisions, li, (lam, r, cfg.t), size=_FC_BLOCK)
        keep = ~censored
        betas = betas[keep]
        n = int(keep.sum())
        ks = ks_statistic(betas, deflection_cdf)
        rho = float(sps.spearmanr(times[keep], betas).statistic) if n > 2 else 0.0
        levels += [
            LevelStat(r, lam, "ks_deflection", ks, None, n),
            LevelStat(r, lam, "spearman_tau_beta", rho, None, n),
            LevelStat(r, lam, "censored_count", float((~keep).sum()), None, cfg.samples),
        ]
    return levels


def _drive_tube_mc(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        hits, draws = run(_tube, li, (r, cfg.t), size=_TUBE_BLOCK)
        draws = int(draws.sum())
        p = hits.sum() / draws
        area = ball_area(0.5 * cfg.t + r)
        hw = 1.96 * area * math.sqrt(p * (1.0 - p) / draws)
        levels += [
            LevelStat(r, None, "tube_area_mc", float(area * p), float(hw), draws),
            LevelStat(r, None, "tube_area_formula", tube_area(cfg.t, r), None, 0),
        ]
    return levels


def _drive_bg_convergence(cfg: ExperimentConfig, run: _Runner) -> list[LevelStat]:
    (flight,) = run(_flight_disp, 0, (cfg.sigma, cfg.t), tag=_TAG_FLIGHT)
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        disp, recollisions, events = run(_lorentz_disp, li, (lam, r, cfg.t), size=_LAZY_BLOCK)
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
    (counts,) = run(_flight_count, 0, (cfg.sigma, cfg.t))
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
    payload = report.to_json_dict(include_elapsed=False)
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


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one experiment and write report.json / levels.csv to output_dir.

    The written files depend only on (experiment, params, seed); the worker
    count affects wall clock only.
    """
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ValidationError(f"output directory {out_dir} is not writable: {exc}") from exc

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
    rng = _derive_rng(seed, _TAG_EXPORT, 0, 0)
    field = sample_field(lambda_for(sigma, r), _START.point, t + r, r, rng)
    return simulate(_START, field, t)


def export_trajectory(
    traj: Trajectory, model: str, dest: str | Path, grid_step: float = 0.05
) -> Path:
    """Write a trajectory as CSV rows t,x,y,alpha,event.

    Rows sample a uniform time grid plus the exact event times (flagged
    event=1, carrying the post-collision direction).  model='disk' maps
    positions through the Cayley transform and turns directions by its
    conformal rotation.
    """
    if model not in ("halfplane", "disk"):
        raise ValidationError(f"model must be 'halfplane' or 'disk', got {model!r}")
    if grid_step <= 0.0:
        raise ValidationError(f"grid step must be positive, got {grid_step}")
    times = [float(t) for t in np.arange(0.0, traj.horizon, grid_step)]
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
