"""Experiment orchestration: Monte Carlo drivers, reports, file export.

Every experiment runs ``samples`` independent replicas.  Replica i of
level L draws all of its randomness from a dedicated counter-based stream
(Philox keyed by the tuple (seed, tag, L, i)), so results depend only on
the configuration seed and the replica index, never on scheduling.
free-path and deflection instead advance fixed-size blocks of B replicas
together: block k of level L covers replicas [kB, (k+1)B) and draws from
one stream keyed (seed, tag, L, k); B never depends on the worker count.
Aggregation reduces per-replica arrays in index order, which makes reports
byte-identical for any worker count.

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
from pathlib import Path

import numpy as np
from scipy import stats as sps

from .billiard import (
    Trajectory,
    position_at,
    recollision_count,
    sample_first_collision,  # noqa: F401  unused; perfbench/tracing.py patches it here
    sample_first_collisions,
    simulate,
    tube_area,
)
from .errors import ValidationError
from .flight import FlightConfig, sample_deflection, simulate_flight
from .geometry import (
    TWO_PI,
    Direction,
    Point,
    State,
    ball_area,
    cayley,
    cayley_angle_shift,
    distance_xy,
    hyp_distance,
)
from .obstacles import expected_T1, nearest_neighbor_tail, sample_annulus, sample_field
from .stats import bootstrap_half_width_w1, ks_statistic, wasserstein1

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "LevelStat",
    "Report",
    "run_experiment",
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


def _blocks(seed, level, lo, hi, total, size):
    """(replica count, stream) of blocks lo..hi-1; block k covers replicas
    [k*size, min((k+1)*size, total)) and draws from one stream."""
    for k in range(lo, hi):
        yield min(size, total - k * size), _derive_rng(seed, _TAG_REPLICA, level, k)


def _chunk_first_collision(seed, level, lo, hi, lam, r, horizon, total, size):
    blocks = _blocks(seed, level, lo, hi, total, size)
    parts = [sample_first_collisions(lam, r, horizon, rng, m) for m, rng in blocks]
    keys = ("time", "deflection", "censored")
    return {key: np.concatenate(col) for key, col in zip(keys, zip(*parts))}


def _chunk_nearest(seed, level, lo, hi, lam, R):
    n = hi - lo
    out = np.empty(n)
    out_c = np.zeros(n, dtype=bool)
    origin = _START.point
    for j in range(n):
        rng = _derive_rng(seed, _TAG_REPLICA, level, lo + j)
        field = sample_field(lam, origin, R, 0.0, rng, radius=R)
        if len(field):
            d = distance_xy(field.centers[:, 0], field.centers[:, 1], origin.x, origin.y)
            out[j] = float(d.min())
        else:
            out[j] = R
            out_c[j] = True
    return {"t1": out, "censored": out_c}


def _chunk_lorentz_disp(seed, level, lo, hi, lam, r, t):
    n = hi - lo
    disp = np.empty(n)
    reco = np.empty(n, dtype=np.int64)
    nev = np.empty(n, dtype=np.int64)
    for j in range(n):
        rng = _derive_rng(seed, _TAG_REPLICA, level, lo + j)
        field = sample_field(lam, _START.point, t + r, r, rng)
        traj = simulate(_START, field, t)
        disp[j] = hyp_distance(_START.point, position_at(traj, t).point)
        reco[j] = recollision_count(traj)
        nev[j] = len(traj.events)
    return {"disp": disp, "recollisions": reco, "events": nev}


def _chunk_flight_disp(seed, level, lo, hi, sigma, t):
    n = hi - lo
    disp = np.empty(n)
    cfg = FlightConfig(sigma, t)
    for j in range(n):
        rng = _derive_rng(seed, _TAG_FLIGHT, level, lo + j)
        traj = simulate_flight(_START, cfg, rng)
        disp[j] = hyp_distance(_START.point, position_at(traj, t).point)
    return {"disp": disp}


def _chunk_flight_counts(seed, level, lo, hi, sigma, t):
    n = hi - lo
    counts = np.empty(n, dtype=np.int64)
    cfg = FlightConfig(sigma, t)
    for j in range(n):
        rng = _derive_rng(seed, _TAG_REPLICA, level, lo + j)
        counts[j] = len(simulate_flight(_START, cfg, rng).events)
    return {"count": counts}


def _chunk_tube(seed, level, lo, hi, r, t, total, size):
    """Rejection draws in blocks (see _blocks).

    The tube around the unit-speed vertical geodesic from (0, 1) is tested
    in closed form: the squared Euclidean norm fixes the nearest flow time
    s* = clip(log(x^2+y^2)/2, 0, t), and the point is inside iff its
    distance to (0, e^{s*}) is below r.  The enclosing ball is centered at
    the segment midpoint (0, e^{t/2}) with radius t/2 + r.
    """
    center = Point(0.0, math.exp(0.5 * t))
    outer = 0.5 * t + r
    cosh_r = math.cosh(r)
    hits = np.zeros(hi - lo, dtype=np.int64)
    draws = np.zeros(hi - lo, dtype=np.int64)
    for j, (m, rng) in enumerate(_blocks(seed, level, lo, hi, total, size)):
        pts = sample_annulus(center, 0.0, outer, rng, m)
        x, y = pts[:, 0], pts[:, 1]
        ssq = x * x + y * y
        w = np.exp(np.clip(0.5 * np.log(ssq), 0.0, t))
        cosh_d = (ssq + w * w) / (2.0 * y * w)
        hits[j] = int(np.count_nonzero(cosh_d < cosh_r))
        draws[j] = m
    return {"hits": hits, "draws": draws}


_CHUNK_FUNCS = {
    "first_collision": _chunk_first_collision,
    "nearest": _chunk_nearest,
    "lorentz_disp": _chunk_lorentz_disp,
    "flight_disp": _chunk_flight_disp,
    "flight_counts": _chunk_flight_counts,
    "tube": _chunk_tube,
}


def _run_chunk(task):
    kind, seed, level, lo, hi, params = task
    return _CHUNK_FUNCS[kind](seed, level, lo, hi, *params)


def _run_replicas(kind, seed, level, n, params, workers):
    """Run n replicas of a chunk kind, merged in index order."""
    chunk = max(1, min(8192, -(-n // max(workers * 4, 1))))
    tasks = [(kind, seed, level, lo, min(lo + chunk, n), params) for lo in range(0, n, chunk)]
    if workers == 1 or len(tasks) == 1:
        parts = [_run_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, tasks))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _run_blocks(kind, cfg, level, size, params):
    """Run the ceil(samples / size) blocks of a block chunk kind."""
    n_blocks = -(-cfg.samples // size)
    return _run_replicas(kind, cfg.seed, level, n_blocks, (*params, cfg.samples, size), cfg.workers)


def _mean_hw(x) -> tuple[float, float]:
    """Sample mean and 95% normal half-width."""
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(1.96 * x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def _drive_free_path(cfg: ExperimentConfig) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        res = _run_blocks("first_collision", cfg, li, _FC_BLOCK, (lam, r, cfg.t))
        n = cfg.samples
        ks = ks_statistic(res["time"], exp_cdf(cfg.sigma))
        mean, hw = _mean_hw(res["time"])
        levels += [
            LevelStat(r, lam, "ks_exp", ks, None, n),
            LevelStat(r, lam, "mean_free_path", mean, hw, n),
            LevelStat(r, lam, "censored_count", float(res["censored"].sum()), None, n),
        ]
    return levels


def _drive_nearest_neighbor(cfg: ExperimentConfig) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        # Ball large enough that Pr(T1 > R) ~ e^-30; censoring is negligible.
        R = 2.0 * math.asinh(math.sqrt(30.0 / (4.0 * math.pi * lam)))
        res = _run_replicas("nearest", cfg.seed, li, cfg.samples, (lam, R), cfg.workers)
        n = cfg.samples
        ks = ks_statistic(res["t1"], t1_cdf(lam))
        mean, hw = _mean_hw(res["t1"])
        levels += [
            LevelStat(r, lam, "mean_t1", mean, hw, n),
            LevelStat(r, lam, "ks_t1_tail", ks, None, n),
            LevelStat(r, lam, "expected_t1", expected_T1(lam), None, 0),
            LevelStat(r, lam, "censored_count", float(res["censored"].sum()), None, n),
        ]
    return levels


def _drive_deflection(cfg: ExperimentConfig) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        res = _run_blocks("first_collision", cfg, li, _FC_BLOCK, (lam, r, cfg.t))
        keep = ~res["censored"]
        betas = res["deflection"][keep]
        n = int(keep.sum())
        ks = ks_statistic(betas, deflection_cdf)
        rho = float(sps.spearmanr(res["time"][keep], betas).statistic) if n > 2 else 0.0
        levels += [
            LevelStat(r, lam, "ks_deflection", ks, None, n),
            LevelStat(r, lam, "spearman_tau_beta", rho, None, n),
            LevelStat(r, lam, "censored_count", float((~keep).sum()), None, cfg.samples),
        ]
    return levels


def _drive_tube_mc(cfg: ExperimentConfig) -> list[LevelStat]:
    levels = []
    for li, r in enumerate(cfg.r_levels):
        res = _run_blocks("tube", cfg, li, _TUBE_BLOCK, (r, cfg.t))
        draws = int(res["draws"].sum())
        p = res["hits"].sum() / draws
        area = ball_area(0.5 * cfg.t + r)
        hw = 1.96 * area * math.sqrt(p * (1.0 - p) / draws)
        levels += [
            LevelStat(r, None, "tube_area_mc", float(area * p), float(hw), draws),
            LevelStat(r, None, "tube_area_formula", tube_area(cfg.t, r), None, 0),
        ]
    return levels


def _drive_bg_convergence(cfg: ExperimentConfig) -> list[LevelStat]:
    flight = _run_replicas(
        "flight_disp", cfg.seed, 0, cfg.samples, (cfg.sigma, cfg.t), cfg.workers
    )["disp"]
    levels = []
    for li, r in enumerate(cfg.r_levels):
        lam = lambda_for(cfg.sigma, r)
        res = _run_replicas("lorentz_disp", cfg.seed, li, cfg.samples, (lam, r, cfg.t), cfg.workers)
        w1 = wasserstein1(res["disp"], flight)
        hw = bootstrap_half_width_w1(
            res["disp"], flight, _derive_rng(cfg.seed, _TAG_BOOT, li, 0)
        )
        n = cfg.samples
        levels += [
            LevelStat(r, lam, "wasserstein1_displacement", w1, hw, n),
            LevelStat(r, lam, "recollision_fraction", float((res["recollisions"] > 0).mean()), None, n),
            LevelStat(r, lam, "mean_collisions", float(res["events"].mean()), None, n),
        ]
    return levels


def _drive_flight_baseline(cfg: ExperimentConfig) -> list[LevelStat]:
    res = _run_replicas("flight_counts", cfg.seed, 0, cfg.samples, (cfg.sigma, cfg.t), cfg.workers)
    counts = res["count"].astype(float)
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
    levels = _DRIVERS[cfg.experiment](cfg)
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
