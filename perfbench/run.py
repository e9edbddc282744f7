"""Benchmark of the hyperlorentz Monte Carlo lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one experiment of the command line.  A benchmark run
makes about S seconds of fixed-size CLI runs, each a call of
``hyperlorentz.cli.main`` in a fresh process forked from a server that has
just imported the package (child.py).  The server also times a fixed
calibration next to each CLI run, and end-to-end times are scaled by it to a
steady host speed.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it pairs untraced and traced CLI runs and prints the
per-layer metrics.  Every report is checked against
closed-form laws and for byte-identical repeats.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hyperlorentz"
CHILD = Path(__file__).resolve().parent / "child.py"

#: A benchmark run starts no CLI run after STOP_FACTOR x --seconds + STOP_SLACK_S
#: (the slack covers the fork servers' start-up in short runs), and kills what
#: is still running after KILL_S, so that it exits within 180 s.
STOP_FACTOR = 1.1
STOP_SLACK_S = 2.0
KILL_S = 165.0

#: The time of child.calibrate() on the box the benchmark was tuned on.  Every
#: end-to-end time is scaled by CAL_REF_S over the calibration measured next to
#: it, so that it reads as on that box at a steady speed (see README.md).
CAL_REF_S = 0.1

MODULES = ("geometry", "obstacles", "billiard", "flight", "stats", "experiments", "cli")


# ---------------------------------------------------------------------------
# Correctness checks: closed-form laws, never the criterion-5 KS ordering
# ---------------------------------------------------------------------------

#: Mean and standard deviation of the Kolmogorov law of sqrt(n) D_n.  At
#: finite n the mean is a little lower (0.862 at n = 500), so a test that
#: the pooled mean is not too high errs on the side of passing.
KOLMOGOROV_MEAN = math.sqrt(math.pi / 2.0) * math.log(2.0)
KOLMOGOROV_SD = 0.2603
#: One-sided 0.999 normal quantile, for the pooled KS check.
Z_999 = 3.09


def ks_band(m: int) -> float:
    """Bound on sqrt(n) D_n that m Kolmogorov statistics all stay below with
    probability 0.999: tail 2 exp(-2 x^2) and a union bound.  m = 1 gives
    the single-test 0.999 band 1.95."""
    return math.sqrt(math.log(2000.0 * max(m, 1)) / 2.0)


def _rows(report: dict, stat: str) -> list[dict]:
    return [lv for lv in report["levels"] if lv["stat_name"] == stat]


def _ks_errors(rows: list[dict], band: float) -> list[str]:
    return [
        f"{lv['stat_name']} {lv['value']:.4g} at r={lv['r']} is not below {band:.3f}/sqrt({lv['n']})"
        for lv in rows
        if not lv["value"] < band / math.sqrt(lv["n"])
    ]


def check_ks_pooled(reports: list[dict]) -> list[str]:
    """sqrt(n) D_n averaged over all KS values stays near the Kolmogorov mean.

    One CLI run's band lets a few-percent error in a law pass; pooled over
    the benchmark run, a systematic error lifts the mean above the band.
    """
    scaled = [lv["value"] * math.sqrt(lv["n"]) for rep in reports for lv in rep["levels"]
              if lv["stat_name"].startswith("ks_")]
    if not scaled:
        return []
    limit = KOLMOGOROV_MEAN + Z_999 * KOLMOGOROV_SD / math.sqrt(len(scaled))
    mean = sum(scaled) / len(scaled)
    if mean < limit:
        return []
    return [f"mean sqrt(n) D_n {mean:.4f} over {len(scaled)} KS values is not below {limit:.4f}"]


def check_deflection(report: dict, w: "Workload", band: float) -> list[str]:
    """The first-collision deflection law is exact at every radius."""
    rows = _rows(report, "ks_deflection")
    if len(rows) != len(w.r):
        return [f"expected {len(w.r)} ks_deflection rows, got {len(rows)}"]
    return _ks_errors(rows, band)


def check_flight_baseline(report: dict, w: "Workload", band: float) -> list[str]:
    """Turn counts are Poisson(sigma t); deflections follow sin^2(beta/4)."""
    (mean,) = _rows(report, "event_count_mean")  # a malformed report raises
    mu = w.sigma * w.t
    errors = _ks_errors(_rows(report, "ks_deflection"), band)
    if not abs(mean["value"] - mu) <= 4.0 * math.sqrt(mu / mean["n"]):
        errors.append(f"event_count_mean {mean['value']:.6g} is not within 4 SE of {mu:g}")
    return errors


def check_bg_convergence(report: dict, w: "Workload", band: float) -> list[str]:
    """W1 and its bootstrap half-width are finite and >= 0 at every level."""
    w1 = _rows(report, "wasserstein1_displacement")
    if len(w1) != len(w.r) or len(_rows(report, "mean_collisions")) != len(w.r):
        return [f"expected {len(w.r)} wasserstein1 and mean_collisions rows"]
    return [
        f"W1 {lv['value']!r} +/- {lv['half_width']!r} at r={lv['r']} is not finite and >= 0"
        for lv in w1
        if not all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in (lv["value"], lv["half_width"]))
    ]


def check_bg_collisions(reports: list[dict], w: "Workload") -> list[str]:
    """Collisions per replica average sigma t within 10 %, over all CLI runs.

    Pooled, because a replica trapped between near-touching obstacles can
    collide hundreds of times, which gives one CLI run's mean a heavy tail.
    """
    mu = w.sigma * w.t
    errors = []
    for r in w.r:
        rows = [lv for rep in reports for lv in _rows(rep, "mean_collisions") if lv["r"] == r]
        n = sum(lv["n"] for lv in rows)
        mean = sum(lv["value"] * lv["n"] for lv in rows) / n if n else math.nan
        if not abs(mean - mu) <= 0.1 * mu:
            errors.append(f"mean_collisions {mean:.4g} at r={r} over {n} replicas is not within 10% of {mu:g}")
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    experiment: str
    sigma: float
    r: tuple[float, ...]
    t: float
    workers: int
    samples: int  # per CLI run
    levels: int  # replicas per sample: radii, plus the bg-convergence flight baseline
    run_s: float  # seconds of benchmark run per untraced CLI run, on a 2-CPU box
    check: Callable[[dict, "Workload", float], list[str]]  # one report
    pooled_check: Callable[[list[dict], "Workload"], list[str]] | None = None  # all reports

    def cli_args(self, seed: int, workers: int, out: Path) -> list[str]:
        args = [self.experiment, "--sigma", repr(self.sigma), "--t", repr(self.t)]
        if self.r:
            args += ["--r", ",".join(map(repr, self.r))]
        return args + ["--samples", str(self.samples), "--seed", str(seed), "--workers", str(workers), "--out", str(out)]


# Samples per CLI run are small so that many CLI runs fit in one benchmark run
# and their best and median are steady across seeds: a deflection replica with free
# path s costs about e^s and P(T > s) = e^-s, so one long path can take
# seconds and hundreds of MB (see README.md).
WORKLOADS = {
    "deflection": Workload("deflection", 1.0, (0.5, 0.1, 0.02), 12.0, 1, 500, 3, 0.58, check_deflection),
    "bg-convergence": Workload("bg-convergence", 1.0, (0.4, 0.2, 0.1), 4.0, 2, 1000, 4, 1.7, check_bg_convergence, check_bg_collisions),
    "flight-baseline": Workload("flight-baseline", 6.0, (), 1.0, 1, 5000, 1, 1.1, check_flight_baseline),
}


def cli_seed(seed: int, j: int) -> int:
    """Seed of the j-th CLI run of a benchmark run at ``seed``."""
    return seed * 1000 + j


# ---------------------------------------------------------------------------
# CLI runs, forked one at a time from a server that has imported the package
# ---------------------------------------------------------------------------

#: Fork servers, and so fresh interpreters timed for set-up, per benchmark run,
#: and the seconds of benchmark run that one server's start takes on a 2-CPU box.
SETUP_SAMPLES = 10
SETUP_EST_S = 1.0


@dataclass
class CliRun:
    seed: int
    workers: int
    mode: str
    rc: int = -1
    elapsed_s: float = math.nan
    cal_s: float = math.nan  # child.calibrate() just before and after the run, averaged
    peak_rss_mb: float = math.nan
    pools: int = 0
    files: bytes = b""
    report: dict | None = None
    errors: list[str] = field(default_factory=list)
    spans: dict | None = None

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.errors)


@dataclass
class Setup:
    setup_s: float  # spawn until hyperlorentz.cli is imported
    import_s: float  # the import alone, timed inside the interpreter
    cal_s: float  # child.calibrate() just after the import


@dataclass(frozen=True)
class Budget:
    stop_at: float  # time.monotonic() after which no CLI run starts
    kill_at: float  # time.monotonic() at which running CLI runs are killed

    @classmethod
    def of(cls, seconds: float) -> "Budget":
        now = time.monotonic()
        return cls(now + STOP_FACTOR * seconds + STOP_SLACK_S, now + KILL_S)


def execute(w: Workload, runs: list[CliRun], home: Path, budget: Budget) -> tuple[Setup | None, list[CliRun]]:
    """Start a fork server in the new directory ``home``, make ``runs`` in
    order and fill in their results.

    Returns the server's set-up times (None if it did not finish) and the
    runs it made; a run planned after ``budget.stop_at`` is not made.
    """
    home.mkdir(parents=True)
    plan = []
    for i, run in enumerate(runs):
        out = home / str(i)
        out.mkdir()
        plan.append({"mode": run.mode, "args": w.cli_args(run.seed, run.workers, out / "cli"), "result": str(out / "run.json")})
    (home / "plan.json").write_text(json.dumps({"stop_at": budget.stop_at, "runs": plan}))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(home / "plan.json")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, budget.kill_at - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the server, its forks and their pool workers
        stdout, stderr = proc.communicate()
    try:
        server = json.loads(stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        server = None
    made = runs[: server["made"]] if server else runs
    for i, run in enumerate(made):
        collect(run, home / str(i), stderr)
        if server:
            run.cal_s = (server["cal_s"][i] + server["cal_s"][i + 1]) / 2.0
    if not server:
        return None, made
    return Setup(server["imported_at"] - spawned, server["import_s"], server["cal_s"][0]), made


def collect(run: CliRun, out: Path, stderr: str) -> None:
    """Read one CLI run's result, report and spans.  A missing or malformed
    output is recorded as an error of the run."""
    result = out / "run.json"
    if not result.is_file():
        run.errors.append(f"no result (timed out or crashed): {stderr.strip()[-500:]}")
        return
    try:
        res = json.loads(result.read_text())
        run.rc, run.elapsed_s = res["rc"], res["elapsed_s"]
        run.peak_rss_mb, run.pools = res["peak_rss_mb"], res["pools"]
        if not res["restored"]:
            run.errors.append("a wrapped module attribute was not restored")
        if run.rc != 0:
            run.errors.append(f"cli exited {run.rc}: {stderr.strip()[-500:]}")
            return
        report = (out / "cli" / "report.json").read_bytes()
        files = report + (out / "cli" / "levels.csv").read_bytes()
        parsed = json.loads(report)
        if not all(isinstance(lv["stat_name"], str) for lv in parsed["levels"]):
            raise ValueError("a level without a stat_name")
        if run.mode == "trace":
            with np.load(out / "run.json.npz") as z:
                run.spans = {k: z[k] for k in z.files}
        run.files, run.report = files, parsed
    except Exception as exc:  # noqa: BLE001 - any unreadable output fails the run
        run.errors.append(f"unreadable output: {exc!r}")


def execute_all(w: Workload, runs: list[CliRun], workdir: Path, budget: Budget) -> tuple[list[Setup], list[CliRun]]:
    """Make ``runs`` in order on SETUP_SAMPLES fork servers, one after another.

    Each server's start is one set-up sample, so the samples are spread over
    the benchmark run instead of sharing one stretch of machine load.
    Returns the set-up samples and the runs made.
    """
    k = SETUP_SAMPLES
    setups, made = [], []
    for i in range(k):
        part = runs[len(runs) * i // k : len(runs) * (i + 1) // k]
        setup, part = execute(w, part, workdir / f"server-{i}", budget)
        setups += [setup] if setup else []
        made += part
    return setups, made


def check(w: Workload, runs: list[CliRun]) -> None:
    """Check every report.  The KS band and the pooled checks cover the
    benchmark run as a whole, each CLI seed once (runs at one seed write the
    same report); a pooled failure fails every CLI run in it."""
    done = [r for r in runs if r.report is not None]
    distinct = {r.seed: r.report for r in done}
    band = ks_band(sum(lv["stat_name"].startswith("ks_") for rep in distinct.values() for lv in rep["levels"]))
    malformed = set()
    for r in done:
        try:
            r.errors += w.check(r.report, w, band)
        except (KeyError, TypeError, ValueError) as exc:
            r.errors.append(f"malformed report: {exc!r}")
            malformed.add(r.seed)
    done = [r for r in done if r.seed not in malformed]
    distinct = list({r.seed: r.report for r in done}.values())
    if done:
        errors = check_ks_pooled(distinct) + (w.pooled_check(distinct, w) if w.pooled_check else [])
        for r in done:
            r.errors += errors


def same_files(a: CliRun, b: CliRun) -> None:
    """Record a failure on ``b`` if two runs at one seed wrote different reports."""
    if not a.failed and not b.failed and a.files != b.files:
        b.errors.append(f"report.json/levels.csv differ from the {a.mode} workers-{a.workers} run at seed {a.seed}")


def ref_s(seconds: float, cal_s: float) -> float:
    """``seconds`` timed while child.calibrate() took ``cal_s``, scaled to the
    host speed at which it takes CAL_REF_S."""
    return seconds * CAL_REF_S / cal_s


def rate(w: Workload, run: CliRun) -> float:
    return w.samples * w.levels / ref_s(run.elapsed_s, run.cal_s)


def raw_rate(w: Workload, run: CliRun) -> float:
    return w.samples * w.levels / run.elapsed_s


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return float(statistics.median(values)) if values else 0.0


def cli_runs(w: Workload, seconds: float) -> int:
    return max(3, round((seconds - SETUP_SAMPLES * SETUP_EST_S) / w.run_s))


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path, budget: Budget):
    """CLI runs at seeds j = 0, 0, 1, 2, ...; the repeat checks determinism."""
    seeds = [cli_seed(seed, 0)] + [cli_seed(seed, j) for j in range(cli_runs(w, seconds) - 1)]
    setup, runs = execute_all(w, [CliRun(s, w.workers, "plain") for s in seeds], workdir, budget)
    check(w, runs)
    if len(runs) > 1:
        same_files(runs[0], runs[1])
    return runs, setup


def end_to_end(w: Workload, runs: list[CliRun], setup: list[Setup]) -> dict[str, tuple[float, str]]:
    ok = [r for r in runs if not r.failed]
    return {
        "replicas_per_s": (_median(rate(w, r) for r in ok), "replicas/s"),
        "setup_s": (_median(ref_s(s.setup_s, s.cal_s) for s in setup), "s"),
        "peak_rss_mb": (_median(r.peak_rss_mb for r in ok), "MB"),
        "passed_share": (_ratio(len(ok), len(runs)), "fraction"),
    }


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def run_traced(w: Workload, seed: int, seconds: float, workdir: Path, budget: Budget):
    """Per seed: untraced at the workload's workers, untraced at workers 1,
    traced at workers 1.  Only workers 1 lets the wrappers see the replica
    calls, because pool children keep their spans."""
    plain, plain1, traced = [], [], []
    for j in range(max(1, cli_runs(w, seconds) // 3)):
        s = cli_seed(seed, j)
        plain.append(CliRun(s, w.workers, "plain"))
        plain1.append(plain[-1] if w.workers == 1 else CliRun(s, 1, "plain"))
        traced.append(CliRun(s, 1, "trace"))
    planned = list({id(r): r for trio in zip(plain, plain1, traced) for r in trio}.values())
    setup, runs = execute_all(w, planned, workdir, budget)
    made = {id(r) for r in runs}
    plain, plain1, traced = ([r for r in rs if id(r) in made] for rs in (plain, plain1, traced))
    check(w, runs)
    for a, b, t in zip(plain, plain1, traced):
        if b is not a:
            same_files(a, b)
        same_files(a, t)
    return runs, setup, (plain, plain1, traced)


def per_layer(w: Workload, trio, setup: list[Setup]) -> dict[str, tuple[float, str]]:
    plain, plain1, traced = trio
    agg: dict[tuple[str, str], tracing.Span] = {}
    for r in traced:
        if not r.failed:
            tracing.aggregate(r.spans, agg)

    def span(name: str, parent: str | None = None) -> tracing.Span:
        """Totals of ``name`` over all parents, or under one parent."""
        s = tracing.Span()
        for (p, n), row in agg.items():
            if n == name and parent in (None, p):
                s += row
        return s

    m: dict[str, tuple[float, str]] = {}

    def timing(name: str, metric: str, unit: str, scale: float, per: str = "calls") -> tracing.Span:
        s = span(name)
        m[f"{name}.{metric}"] = (_ratio(s.total_ns / scale, getattr(s, per)), unit)
        m[f"{name}.calls"] = (s.calls, "count")
        return s

    root = span(tracing.ROOT_SPAN).total_ns
    for mod in MODULES:
        own = sum(row.self_ns for (_, n), row in agg.items() if n.split(".")[0] == mod)
        m[f"{mod}.self_share"] = (_ratio(own, root), "fraction")

    timing("experiments.derive_rng", "us_per_call", "us", 1e3)
    ok_plain = [r for r in plain if not r.failed]
    m["experiments.pools_per_run"] = (_median(r.pools for r in ok_plain), "count")
    # The untraced runs' total rate and largest peak, which see deflection's heavy tail.
    m["replicas_per_s.total"] = (
        _ratio(w.samples * w.levels * len(ok_plain), sum(ref_s(r.elapsed_s, r.cal_s) for r in ok_plain)), "replicas/s")
    m["replicas_per_s.unscaled"] = (_median(raw_rate(w, r) for r in ok_plain), "replicas/s")
    m["host.calibrate_ms"] = (_median(r.cal_s * 1e3 for r in ok_plain), "ms")
    m["peak_rss_mb.max"] = (max((r.peak_rss_mb for r in ok_plain), default=0.0), "MB")

    fc = timing("billiard.sample_first_collision", "us_per_call", "us", 1e3)
    ann = timing("obstacles.sample_annulus", "ns_per_point", "ns", 1.0, per="units")
    m["billiard.annuli_per_replica"] = (_ratio(ann.calls, fc.calls), "count")
    m["billiard.hit_candidates_per_replica"] = (
        _ratio(span("geometry.mobius_xy", "billiard.sample_first_collision").units, fc.calls), "count")
    m["obstacles.annulus_points_per_replica"] = (_ratio(ann.units, fc.calls), "count")
    m["obstacles.max_annulus_points"] = (ann.max_units, "count")

    sim = timing("billiard.simulate", "us_per_event", "us", 1e3, per="units")
    m["billiard.events_per_replica"] = (_ratio(sim.units, sim.calls), "count")
    m["billiard.hit_candidates_per_event"] = (_ratio(span("geometry.mobius_xy", "billiard.simulate").units, sim.units), "count")
    timing("billiard.position_at", "us_per_call", "us", 1e3)

    fld = timing("obstacles.sample_field", "us_per_call", "us", 1e3)
    m["obstacles.sample_field.ns_per_point"] = (_ratio(fld.total_ns, fld.units), "ns")
    m["obstacles.points_per_field"] = (_ratio(fld.units, fld.calls), "count")

    mob = timing("geometry.mobius_xy", "ns_per_element", "ns", 1.0, per="units")
    timing("geometry.flow_xy", "ns_per_element", "ns", 1.0, per="units")
    timing("geometry.hyp_distance", "us_per_call", "us", 1e3)

    fl = timing("flight.simulate_flight", "us_per_call", "us", 1e3)
    m["flight.us_per_event"] = (_ratio(fl.total_ns / 1e3, fl.units), "us")
    m["flight.events_per_replica"] = (_ratio(fl.units, fl.calls), "count")

    timing("stats.bootstrap_half_width_w1", "s_per_call", "s", 1e9)
    timing("stats.ks_statistic", "ms_per_call", "ms", 1e6)

    m["cli.import_s"] = (_median(ref_s(s.import_s, s.cal_s) for s in setup), "s")  # over SETUP_SAMPLES imports

    ok_traced = [r for r in traced if not r.failed]
    m["counters.replicas"] = (w.samples * w.levels * len(ok_traced), "count")
    m["counters.annulus_points"] = (ann.units, "count")
    m["counters.field_points"] = (fld.units, "count")
    m["counters.hit_candidates"] = (mob.units, "count")
    m["counters.events"] = (sim.units + fl.units, "count")

    untraced_rate = _median(rate(w, r) for r in plain1 if not r.failed)
    traced_rate = _median(rate(w, r) for r in ok_traced)
    m["trace.overhead"] = (_ratio(untraced_rate, traced_rate) - 1.0 if traced_rate else 0.0, "fraction")
    return m


# ---------------------------------------------------------------------------
# Machine and code record
# ---------------------------------------------------------------------------

def src_loc() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(PACKAGE.glob("*.py")))


def record() -> dict:
    digest = hashlib.sha256()
    for p in sorted(PACKAGE.glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": src_loc(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no hyperlorentz sources at {PACKAGE}", file=sys.stderr)
        return 2
    started = time.monotonic()
    budget = Budget.of(args.seconds)
    w = WORKLOADS[args.workload]
    print("record " + json.dumps(record(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            runs, setup, trio = run_traced(w, args.seed, args.seconds, Path(tmp), budget)
            metrics = per_layer(w, trio, setup)
        else:
            runs, setup = run_untraced(w, args.seed, args.seconds, Path(tmp), budget)
            metrics = end_to_end(w, runs, setup)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for e in r.errors:
            print(f"FAIL {r.mode} workers={r.workers} seed={r.seed}: {e}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print("cli.main wall per CLI run (s): " + " ".join(f"{r.elapsed_s:.3f}" for r in runs))
    print("calibration per CLI run (ms): " + " ".join(f"{r.cal_s * 1e3:.1f}" for r in runs))
    print("peak RSS per CLI run (MB): " + " ".join(f"{r.peak_rss_mb:.1f}" for r in runs))
    print("set-up per server, unscaled (s): " + " ".join(f"{s.setup_s:.3f}" for s in setup))
    if not args.trace:
        ok = [r for r in runs if not r.failed]
        print(f"unscaled: replicas_per_s {_median(raw_rate(w, r) for r in ok):.6g}, "
              f"setup_s {_median(s.setup_s for s in setup):.6g}")
    print(f"{len(runs)} CLI runs, {failed} failed, {time.monotonic() - started:.1f} s")
    result = {  # a benchmark run that made no CLI run counts as one failed attempt
        "correct": failed == 0 and bool(runs),
        "attempted": max(1, len(runs)),
        "failed": failed if runs else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
