import csv
import errno
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hyperlorentz import (
    Direction,
    ExperimentConfig,
    Point,
    State,
    ValidationError,
    ball_area,
    export_trajectory,
    hyp_distance,
    lambda_for,
    position_at,
    recollision_count,
    run_experiment,
    simulate,
    simulate_flight,
    tube_area,
)
from hyperlorentz import FlightConfig, ObstacleField, BallRegion, expected_T1
from hyperlorentz import billiard, cli, experiments, obstacles
from hyperlorentz.cli import main
from hyperlorentz.experiments import (
    _FC_BLOCK,
    _LAZY_BLOCK,
    _TAG_EXPORT,
    _derive_rng,
    deflection_cdf,
    exp_cdf,
    sample_trajectory,
    t1_cdf,
)
from hyperlorentz.obstacles import nearest_neighbor_tail

START = State(Point(0.0, 1.0), Direction(math.pi / 2))
SIGMA_HALF = 2.0 * math.sinh(0.5)  # sigma matching (lam, r) = (1, 0.5)


def cfg_for(tmp_path, **kw):
    base = dict(
        experiment="free-path",
        sigma=SIGMA_HALF,
        r_levels=(0.5,),
        t=10.0,
        samples=400,
        seed=11,
        workers=1,
        output_dir=str(tmp_path),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ValidationError):
        cfg_for(tmp_path, samples=0)
    with pytest.raises(ValidationError):
        cfg_for(tmp_path, experiment="nope")
    with pytest.raises(ValidationError):
        cfg_for(tmp_path, sigma=-1.0)
    with pytest.raises(ValidationError):
        cfg_for(tmp_path, r_levels=())
    with pytest.raises(ValidationError):
        cfg_for(tmp_path, experiment="bg-convergence", r_levels=(0.2, 0.4))
    with pytest.raises(ValidationError):
        cfg_for(tmp_path, workers=0)
    for name, value in (("samples", 2.5), ("samples", True), ("workers", 1.5), ("workers", True),
                        ("seed", 1.0), ("seed", "3"), ("seed", False)):
        with pytest.raises(ValidationError, match=name):
            cfg_for(tmp_path, **{name: value})
    assert cfg_for(tmp_path, samples=np.int64(7)).samples == 7
    for r in (710.0, 800.0):
        for experiment in ("free-path", "tube-mc"):
            with pytest.raises(ValidationError, match="positive and finite"):
                cfg_for(tmp_path, experiment=experiment, r_levels=(0.5, r))
    cfg_for(tmp_path, experiment="flight-baseline", r_levels=(800.0,))  # r is unused there
    with pytest.raises(ValidationError, match="samples >= 2"):
        cfg_for(tmp_path, experiment="flight-baseline", r_levels=(), samples=1)
    cfg_for(tmp_path, experiment="flight-baseline", r_levels=(), samples=2)
    # tube-mc's draws must square without overflow: t + r <= 354.
    for r, t in ((700.0, 100.0), (1.0, 1500.0), (1.0, 353.1), (0.5, 353.5 + 1e-9)):
        with pytest.raises(ValidationError, match="enclosing ball overflow"):
            cfg_for(tmp_path, experiment="tube-mc", r_levels=(0.5, r), t=t)
        cfg_for(tmp_path, experiment="free-path", r_levels=(0.5, r), t=t)
    cfg_for(tmp_path, experiment="tube-mc", r_levels=(0.5,), t=353.5)


def test_config_stores_its_checked_numbers_as_floats(tmp_path):
    # An int sigma or t is the same config as its float, and writes the same bytes.
    run_experiment(cfg_for(tmp_path / "int", experiment="deflection", sigma=1, t=2, samples=200))
    run_experiment(cfg_for(tmp_path / "float", experiment="deflection", sigma=1.0, t=2.0, samples=200))
    assert read_outputs(tmp_path / "int") == read_outputs(tmp_path / "float")
    assert b'"sigma": 1.0' in read_outputs(tmp_path / "int")[0]
    cfg = cfg_for(tmp_path, sigma=np.float32(2.0), t=3, r_levels=[np.int64(1)])
    assert [type(v) for v in (cfg.sigma, cfg.t, *cfg.r_levels)] == [float, float, float]


def test_closed_form_laws_are_distribution_functions_on_the_whole_line():
    # Below 0 a CDF is 0 and a tail is 1; NaN stays NaN; no value at x >= 0 moves.
    x = np.array([-math.inf, -5.0, -1.0, -1e-300, -0.0, 0.0, 0.5, 3.0, math.nan])
    neg, pos = slice(0, 5), slice(5, 8)
    for cdf in (exp_cdf(1.5), t1_cdf(0.7), deflection_cdf):
        f = cdf(x)
        assert np.all(f[neg] == 0.0) and math.isnan(f[-1])
        assert cdf(-1.0) == 0.0
    tail = nearest_neighbor_tail(x, 0.7, 3)
    assert np.all(tail[neg] == 1.0) and math.isnan(tail[-1])
    assert nearest_neighbor_tail(-1.0, 1.0) == 1.0
    assert np.array_equal(exp_cdf(1.5)(x[pos]), -np.expm1(-1.5 * x[pos]))
    mu = 4.0 * math.pi * 0.7 * np.sinh(x[pos] / 2.0) ** 2
    assert np.array_equal(tail[pos], np.exp(-mu) + np.exp(-mu) * mu + np.exp(-mu) * mu * mu / 2)


def test_lambda_scaling_recorded_in_report(tmp_path):
    rep = run_experiment(cfg_for(tmp_path, samples=50))
    s = rep.stat("mean_free_path", r=0.5)
    assert s.lam == pytest.approx(lambda_for(SIGMA_HALF, 0.5))
    assert s.lam == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def read_outputs(d):
    return (Path(d) / "report.json").read_bytes(), (Path(d) / "levels.csv").read_bytes()


def test_reports_identical_across_worker_counts(tmp_path):
    blobs = []
    for w in (1, 2, 5):
        out = tmp_path / f"w{w}"
        run_experiment(cfg_for(out, workers=w, samples=300))
        blobs.append(read_outputs(out))
    assert blobs[0] == blobs[1] == blobs[2]


def test_block_reports_identical_across_worker_counts(tmp_path, monkeypatch):
    # Several blocks and a ragged last one, run serially in one chunk a
    # batch (workers 1) or on a pool (workers 3, with batches of 256
    # replicas so that every call spans several chunks): for the
    # per-replica flight-baseline 12 chunks.
    for experiment, kw in {
        "free-path": dict(samples=2 * _FC_BLOCK + 7),
        "deflection": dict(samples=2 * _FC_BLOCK + 7),
        "bg-convergence": dict(sigma=1.0, r_levels=(0.4, 0.1), t=4.0, samples=2 * _LAZY_BLOCK + 7),
        "nearest-neighbor": dict(t=1.0, samples=2 * _FC_BLOCK + 7),
        "flight-baseline": dict(sigma=2.0, r_levels=(), t=3.0, samples=3001),
    }.items():
        blobs = []
        for w in (1, 3):
            out = tmp_path / f"{experiment}-w{w}"
            with monkeypatch.context() as m:
                if w > 1:
                    m.setattr(experiments, "_BATCH", _LAZY_BLOCK)
                run_experiment(cfg_for(out, experiment=experiment, workers=w, **kw))
            blobs.append(read_outputs(out))
        assert blobs[0] == blobs[1]


@pytest.fixture
def pool_log(monkeypatch):
    """Replace the process pool by one that runs its chunks in this process,
    and log the size of each pool made and each chunk run: its kernel,
    "caller" or "pool", and its streams as (L, k)."""
    made, ran, in_pool = [], [], [False]

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, chunks):
            def remote(chunk):
                in_pool[0] = True
                try:
                    return fn(chunk)
                finally:
                    in_pool[0] = False

            return map(remote, list(chunks))

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    run_chunk = experiments._run_chunk

    def spy(kernel, args, seed, tag, samples, size, levels, streams):
        n = -(-samples // size)
        pairs = [divmod(i, n) for i in streams]
        ran.append((kernel.__name__, "pool" if in_pool[0] else "caller", pairs))
        return run_chunk(kernel, args, seed, tag, samples, size, levels, streams)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments, "_run_chunk", spy)
    return made, ran


def test_one_pool_per_run_no_larger_than_its_chunks(tmp_path, monkeypatch, pool_log):
    # A fork pool starts all its workers at once, wanted or not; the caller
    # runs its own share of the chunks, so the pool needs one worker fewer.
    # Batches of one replica make these small runs span several chunks.
    made, ran = pool_log
    monkeypatch.setattr(experiments, "_BATCH", 1)
    # nearest-neighbor at 1 sample: one chunk, in the caller, and no pool.
    run_experiment(cfg_for(tmp_path / "0", experiment="nearest-neighbor", t=1.0, samples=1, workers=1000))
    assert made == [] and ran == [("_nearest", "caller", [(0, 0)])]
    ran.clear()
    run_experiment(
        cfg_for(tmp_path / "a", experiment="flight-baseline", r_levels=(), samples=2, workers=1000)
    )
    # flight-baseline at 2 samples: 2 one-stream chunks, a pool of 1.
    assert ran == [("_flight_count", "caller", [(0, 0)]), ("_flight_count", "pool", [(0, 1)])]
    ran.clear()
    run_experiment(
        cfg_for(
            tmp_path / "b",
            experiment="bg-convergence",
            sigma=1.0,
            r_levels=(0.4, 0.2, 0.1),
            t=1.0,
            samples=2 * experiments._LAZY_BLOCK + 1,
            workers=1000,
        )
    )
    # bg-convergence at 513 samples: its flight is 3 blocks in 3 chunks and
    # makes a pool of 2; its billiard's 9 blocks in 9 chunks reuse that pool.
    assert made == [1, 2]
    # With a pool of 2 the caller runs chunks 0, 3, 6, ...: here stream 0
    # of every level, and the pool every other stream; no chunk runs twice.
    def streams_of(kernel, place):
        return sorted(s for name, where, streams in ran if (name, where) == (kernel, place) for s in streams)

    for kernel, levels in (("_flight_ends", 1), ("_explore", 3)):
        assert streams_of(kernel, "caller") == [(L, 0) for L in range(levels)]
        assert streams_of(kernel, "pool") == [(L, k) for L in range(levels) for k in (1, 2)]
    assert len(ran) == 3 + 9


@pytest.mark.parametrize("experiment, kw, size, kernels, pool", [
    ("free-path", dict(), _FC_BLOCK, ["_first_collisions"], 1),
    ("bg-convergence", dict(sigma=1.0, r_levels=(0.4,), t=1.0), _LAZY_BLOCK,
     ["_flight_ends", "_explore"], 32),
    ("nearest-neighbor", dict(t=1.0), _FC_BLOCK, ["_nearest"], 1),
])
def test_pool_only_for_calls_of_more_than_one_batch(tmp_path, pool_log, experiment, kw, size, kernels, pool):
    # A batch is cap = _BATCH // size streams of one level.  A call of cap
    # blocks is one chunk in the caller, as at workers 1; a call of cap + 1
    # blocks makes a pool at workers 1000 (free-path and nearest-neighbor:
    # 2 one-stream chunks; bg-convergence: 33 one-stream chunks, the
    # billiard's on the flight's pool).
    made, ran = pool_log
    cap = experiments._BATCH // size
    for streams, samples in ((cap, cap * size), (cap + 1, cap * size + 1)):
        blobs, logs = [], []
        for w in (1, 1000):
            out = tmp_path / f"{samples}-w{w}"
            run_experiment(cfg_for(out, experiment=experiment, samples=samples, workers=w, **kw))
            blobs.append(read_outputs(out))
            logs.append(ran[:])
            ran.clear()
        assert blobs[0] == blobs[1]
        if streams == cap:
            assert made == []
            assert logs[0] == logs[1] == [(name, "caller", [(0, k) for k in range(cap)]) for name in kernels]
        else:
            assert made == [pool]
            for name in kernels:
                runs = [(where, s) for kernel, where, chunk in logs[1] if kernel == name for s in chunk]
                assert sorted(s for _, s in runs) == [(0, k) for k in range(streams)]
                assert {where for where, _ in runs} == {"caller", "pool"}


def test_one_replica_streams_cut_for_the_workers(tmp_path, pool_log):
    # A call of one-replica streams (flight-baseline's) is cut for the
    # workers even within one batch: 3 samples are 3 one-stream chunks on a
    # pool of 2 beside the caller.
    made, ran = pool_log
    kernel = "_flight_count"
    kw = dict(experiment="flight-baseline", sigma=2.0, r_levels=(), t=3.0, samples=3)
    blobs = []
    for w in (1, 1000):
        run_experiment(cfg_for(tmp_path / f"w{w}", workers=w, **kw))
        blobs.append(read_outputs(tmp_path / f"w{w}"))
    assert blobs[0] == blobs[1]
    assert made == [2]
    assert ran == [
        (kernel, "caller", [(0, 0), (0, 1), (0, 2)]),
        (kernel, "caller", [(0, 0)]),
        (kernel, "pool", [(0, 1)]),
        (kernel, "pool", [(0, 2)]),
    ]


def test_small_multi_level_calls_of_blocks_start_no_pool(tmp_path, pool_log):
    # The benchmark configs hold at most one batch of replicas a call, so at
    # workers 1000 a run makes no pool, runs every chunk in the caller and
    # writes the bytes of workers 1.  deflection at 3 levels of 500 samples
    # is 3 one-stream chunks; bg-convergence at 3 levels of 1 000 samples is
    # one chunk of the flight's 4 streams, then one of the billiard's 12.
    made, ran = pool_log
    configs = [
        (["deflection", "--samples", "500", "--r", "0.5,0.1,0.02", "--t", "12"],
         [("_first_collisions", [(L, 0)]) for L in range(3)]),
        (["bg-convergence", "--samples", "1000", "--r", "0.4,0.2,0.1", "--t", "4"],
         [("_flight_ends", [(0, k) for k in range(4)]),
          ("_explore", [(L, k) for L in range(3) for k in range(4)])]),
    ]
    for argv, chunks in configs:
        blobs, logs = [], []
        for w in (1, 1000):
            out = tmp_path / argv[0] / f"w{w}"
            assert main([*argv, "--workers", str(w), "--out", str(out)]) == 0
            blobs.append(read_outputs(out))
            logs.append(ran[:])
            ran.clear()
        assert blobs[0] == blobs[1]
        assert logs[0] == logs[1] == [(kernel, "caller", streams) for kernel, streams in chunks]
    assert made == []


def _fail_in_caller(blocks, caller_pid):
    if os.getpid() == caller_pid:
        raise RuntimeError("chunk failed in the caller")
    return (np.zeros(sum(m for _, m in blocks)),)


def test_failure_in_callers_chunk_propagates_and_shuts_the_pool(tmp_path):
    run = experiments._Runner(cfg_for(tmp_path, samples=4, workers=2))
    with pytest.raises(RuntimeError, match="chunk failed in the caller"):
        with run:
            run(_fail_in_caller, [()], os.getpid())
    assert run._pool is not None  # the pool ran the other chunks
    assert multiprocessing.active_children() == []


def test_failed_report_write_keeps_previous_pair(tmp_path, monkeypatch):
    run_experiment(cfg_for(tmp_path, samples=50))
    before = read_outputs(tmp_path)
    write_text = Path.write_text

    def fail_on_levels(self, text, *args, **kwargs):
        if self.name.startswith(".levels.csv"):
            write_text(self, text[:10], *args, **kwargs)
            raise OSError("disk full")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_levels)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg_for(tmp_path, samples=50, seed=12))
    assert read_outputs(tmp_path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["levels.csv", "report.json"]


def test_rerun_is_byte_identical(tmp_path):
    run_experiment(cfg_for(tmp_path / "a", samples=200))
    run_experiment(cfg_for(tmp_path / "b", samples=200))
    assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")


def test_different_seeds_differ(tmp_path):
    r1 = run_experiment(cfg_for(tmp_path / "a", samples=200, seed=1))
    r2 = run_experiment(cfg_for(tmp_path / "b", samples=200, seed=2))
    assert r1.stat("mean_free_path").value != r2.stat("mean_free_path").value


def test_report_schema(tmp_path):
    rep = run_experiment(cfg_for(tmp_path, samples=60))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == {"experiment", "params", "levels", "seed", "elapsed_s"}
    assert payload["elapsed_s"] is None  # deterministic on disk
    assert rep.elapsed_s > 0.0  # measured value on the in-memory report
    assert payload["seed"] == 11
    assert set(payload["params"]) == {"sigma", "r_levels", "t", "samples"}
    for level in payload["levels"]:
        assert set(level) == {"r", "lambda", "stat_name", "value", "half_width", "n"}
        assert isinstance(level["n"], int)
    rows = list(csv.DictReader((tmp_path / "levels.csv").read_text().splitlines()))
    assert len(rows) == len(payload["levels"])
    assert set(rows[0]) == {"r", "lambda", "stat_name", "value", "half_width", "n"}


# ---------------------------------------------------------------------------
# small statistical smoke runs per experiment
# ---------------------------------------------------------------------------

def test_free_path_experiment(tmp_path):
    rep = run_experiment(cfg_for(tmp_path, samples=4000, workers=2))
    assert rep.stat("mean_free_path").value == pytest.approx(1.0 / SIGMA_HALF, rel=0.05)
    assert rep.stat("ks_exp").value < 0.03
    assert rep.stat("censored_count").value == 0.0


def test_free_path_ks_exp_tests_the_censored_law(tmp_path):
    # At sigma t = 2 about e^-2 of the replicas fly past t and are recorded
    # at t.  Compared below t only, ks_exp lies in the 0.999 Kolmogorov band
    # (DKW, c = sqrt(ln(2000) / 2)); against the uncensored CDF it would
    # read at least e^-2 at any sample count.
    for seed, samples in ((0, 1000), (3, 20_000)):
        rep = run_experiment(cfg_for(tmp_path, sigma=1.0, t=2.0, samples=samples, seed=seed))
        assert rep.stat("censored_count").value > 0.1 * samples
        assert rep.stat("ks_exp").value < math.sqrt(math.log(2000.0) / 2.0) / math.sqrt(samples)


def test_nearest_neighbor_experiment(tmp_path):
    rep = run_experiment(
        cfg_for(tmp_path, experiment="nearest-neighbor", t=1.0, samples=3000, workers=2)
    )
    lam = lambda_for(SIGMA_HALF, 0.5)
    assert rep.stat("mean_t1").value == pytest.approx(expected_T1(lam), rel=0.03)
    assert rep.stat("ks_t1_tail").value < 0.03
    assert rep.stat("expected_t1").n == 0


def test_deflection_experiment(tmp_path):
    rep = run_experiment(
        cfg_for(tmp_path, experiment="deflection", sigma=1.0, r_levels=(0.5, 0.1), t=10.0, samples=2500)
    )
    for r in (0.5, 0.1):
        assert rep.stat("ks_deflection", r=r).value < 0.04
        assert abs(rep.stat("spearman_tau_beta", r=r).value) < 0.08


def test_cli_deflection_with_every_replica_censored(tmp_path, capsys):
    # At sigma t = 0.01 every one of 10 replicas is censored (probability
    # about 0.9): the level has no deflection to test, so its KS statistic
    # and its rank correlation are NaN with n = 0, not an error.
    assert main(["deflection", "--sigma", "0.01", "--t", "1", "--samples", "10", "--out", str(tmp_path)]) == 0
    rows = {row["stat_name"]: row for row in json.loads((tmp_path / "report.json").read_text())["levels"]}
    assert math.isnan(rows["ks_deflection"]["value"]) and rows["ks_deflection"]["n"] == 0
    assert math.isnan(rows["spearman_tau_beta"]["value"]) and rows["spearman_tau_beta"]["n"] == 0
    assert rows["censored_count"]["value"] == 10.0 and rows["censored_count"]["n"] == 10
    assert "ks_deflection = nan (n=0)" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, t", [(0.02, 200.0), (0.001, 3000.0)])
def test_cli_deflection_after_long_free_paths(tmp_path, sigma, t):
    # Free paths of hundreds or thousands: the deflection law does not
    # depend on where the hit happens, so its KS distance lies in the 0.999
    # Kolmogorov band and its rank correlation with the free path in the
    # 0.999 normal band of independence, with no numpy warning on the way.
    args = ["--sigma", str(sigma), "--r", "0.5", "--t", str(t), "--samples", "4000"]
    assert main(["deflection", *args, "--out", str(tmp_path)]) == 0
    rows = {row["stat_name"]: row for row in json.loads((tmp_path / "report.json").read_text())["levels"]}
    ks, rho, n = rows["ks_deflection"]["value"], rows["spearman_tau_beta"]["value"], rows["ks_deflection"]["n"]
    assert n > 3500
    assert ks < math.sqrt(math.log(2000.0) / 2.0) / math.sqrt(n)
    assert abs(rho) < 3.29 / math.sqrt(n - 1)


def test_deflection_level_with_every_replica_censored_leaves_the_others(tmp_path):
    # Of 4 replicas a level at seed 0, level 0 keeps 2 uncensored and level
    # 1 none: level 1 reports NaN, and level 0 the rows it reports alone.
    kw = dict(experiment="deflection", sigma=0.2, t=1.0, samples=4, seed=0)
    both = run_experiment(cfg_for(tmp_path / "both", r_levels=(0.5, 0.1), **kw))
    alone = run_experiment(cfg_for(tmp_path / "alone", r_levels=(0.5,), **kw))
    assert list(map(repr, both.levels[:3])) == list(map(repr, alone.levels))  # NaN-safe
    assert alone.stat("censored_count").value == 2.0
    # Two uncensored replicas have no rank correlation to report either.
    assert math.isnan(alone.stat("spearman_tau_beta").value) and alone.stat("spearman_tau_beta").n == 2
    assert math.isnan(both.stat("ks_deflection", r=0.1).value)
    assert both.stat("ks_deflection", r=0.1).n == 0
    assert both.stat("censored_count", r=0.1).value == 4.0


def test_tube_mc_experiment(tmp_path):
    # The second input is a thin tube, r -> 0: tested against the rounded
    # cosh r, no draw fell in it and the run read 0 +/-1.69e-20.
    for r, t, samples in [(0.5, 2.0, 500_000), (1e-9, 1e-8, 20_000)]:
        out = tmp_path / f"r={r}"
        rep = run_experiment(cfg_for(out, experiment="tube-mc", r_levels=(r,), t=t, samples=samples))
        mc = rep.stat("tube_area_mc")
        exact = rep.stat("tube_area_formula")
        assert exact.value == tube_area(t, r)
        assert abs(mc.value - exact.value) < 3.0 * mc.half_width
        assert mc.n == samples


@pytest.mark.parametrize("r, t, share", [(1.0, 245.33, 0.0), (0.5, 1e-6, 1.0)])
def test_tube_mc_half_width_with_no_hit_or_no_miss(tmp_path, r, t, share):
    # No draw hits a tube that is a share of about e^{-t/2} of its ball, and
    # every draw hits one that fills it.  The binomial half-width would be 0;
    # the run reports the one-sided 95 % bound, about 3/draws of the ball.
    draws = 1000
    rep = run_experiment(cfg_for(tmp_path, experiment="tube-mc", r_levels=(r,), t=t, samples=draws))
    mc = rep.stat("tube_area_mc")
    area = ball_area(0.5 * t + r)
    assert mc.value == share * area
    assert mc.half_width == pytest.approx(area * (1.0 - 0.05 ** (1.0 / draws)), rel=1e-12)
    assert mc.half_width == pytest.approx(3.0 * area / draws, rel=0.01)


def test_cli_tube_mc_without_a_hit_prints_a_nonzero_half_width(tmp_path, capsys):
    argv = ["tube-mc", "--r", "1", "--t", "245.33", "--samples", "300000", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "r=1 tube_area_mc = 0 +/-1.6e+49 (n=300000)" in out
    assert "r=1 tube_area_formula = 580.036 (n=0)" in out


def test_bg_convergence_experiment(tmp_path):
    rep = run_experiment(
        cfg_for(
            tmp_path,
            experiment="bg-convergence",
            sigma=1.0,
            r_levels=(0.4, 0.2),
            t=2.0,
            samples=800,
            workers=2,
        )
    )
    for r in (0.4, 0.2):
        w1 = rep.stat("wasserstein1_displacement", r=r)
        assert w1.value >= 0.0 and w1.half_width > 0.0
        assert 0.0 <= rep.stat("recollision_fraction", r=r).value <= 1.0
        assert rep.stat("mean_collisions", r=r).value == pytest.approx(2.0, rel=0.25)


def test_bg_convergence_level_rows_do_not_depend_on_other_levels(tmp_path):
    # The billiard streams of every level run as one batch: a level's rows
    # are the same whichever levels run beside it.
    rows = []
    for levels in ((0.4, 0.2), (0.4, 0.2, 0.1)):
        cfg = cfg_for(tmp_path / str(len(levels)), experiment="bg-convergence", sigma=1.0,
                      r_levels=levels, t=2.0, samples=600, workers=len(levels) - 1)
        rows.append([s for s in run_experiment(cfg).levels if s.r in (0.4, 0.2)])
    assert len(rows[0]) == 6 and rows[0] == rows[1]


def test_bg_convergence_long_time(tmp_path):
    # At t = 10 a path collides about 10 times, and a trapped one a hundred
    # times or more: the run finishes, and its mean collision count is the
    # one of the same streams run directly, within 4 standard errors of
    # sigma t.
    cfg = cfg_for(tmp_path, experiment="bg-convergence", sigma=1.0, r_levels=(0.1,), t=10.0, samples=1024)
    mean = run_experiment(cfg).stat("mean_collisions", r=0.1).value
    with experiments._Runner(cfg) as run:
        [(*_, events, _)] = run(experiments._explore, [(lambda_for(1.0, 0.1), 0.1)], 10.0, size=_LAZY_BLOCK)
    assert mean == events.mean()
    assert abs(mean - 10.0) < 4.0 * events.std(ddof=1) / math.sqrt(events.size)


def test_flight_baseline_experiment(tmp_path):
    rep = run_experiment(
        cfg_for(tmp_path, experiment="flight-baseline", sigma=2.0, r_levels=(), t=3.0, samples=4000)
    )
    assert rep.stat("event_count_mean").value == pytest.approx(6.0, rel=0.05)
    assert rep.stat("event_count_var").value == pytest.approx(6.0, rel=0.10)
    assert rep.stat("ks_deflection").value < 0.03


_PINNED = {
    "bg-convergence": (
        "ff9c73ba5e1e9f71ca0783d98cf1764180c3205a18f764e3ac4238587460522a",
        "ff10b61554d467bebf40625a265538837c2f89d594b03a7cf5c6d71a78bdf32d",
    ),
    "flight-baseline": (
        "61598883e99a0d7b42ac510d2b5d367327f22c4373da746efce0386e0e148dc5",
        "72e73f2673079914684fb4dbcab2cf79f9f7403c524e7cf2d0a1399d4dea902d",
    ),
}


@pytest.mark.parametrize("experiment, kw, workers", [
    ("bg-convergence", dict(sigma=1.0, r_levels=(0.4, 0.2, 0.1), t=4.0, samples=600), 1),
    ("bg-convergence", dict(sigma=1.0, r_levels=(0.4, 0.2, 0.1), t=4.0, samples=600), 2),
    ("flight-baseline", dict(sigma=2.0, r_levels=(0.5,), t=3.0, samples=2000), 1),
])
def test_flight_reports_keep_their_bytes(tmp_path, experiment, kw, workers):
    # sha256 of report.json and levels.csv at seed 19, the files the CLI
    # writes for these flags: how the drivers reach the billiard and flight
    # engines may change, these bytes may not.
    run_experiment(cfg_for(tmp_path, experiment=experiment, seed=19, workers=workers, **kw))
    assert tuple(hashlib.sha256(b).hexdigest() for b in read_outputs(tmp_path)) == _PINNED[experiment]


def test_unwritable_output_dir():
    cfg = ExperimentConfig(
        experiment="flight-baseline",
        sigma=1.0,
        r_levels=(),
        t=1.0,
        samples=5,
        seed=0,
        output_dir="/proc/definitely/not/writable",
    )
    with pytest.raises((ValidationError, OSError)):
        run_experiment(cfg)


def _disk_full(self, text):
    self.touch()
    raise OSError(errno.ENOSPC, "No space left on device")


def _removed_by_another_run(self, text):
    self.touch()
    self.unlink()


@pytest.mark.parametrize(
    "write, writable",
    [(_disk_full, False), (_removed_by_another_run, True)],
    ids=["disk-full", "removed-by-another-run"],
)
def test_write_probe_leaves_no_file(tmp_path, monkeypatch, write, writable):
    # A write that fails after making the probe, and a run probing the same
    # directory that removed the probe first: neither leaves a file, and
    # only the failed write makes the directory unwritable.
    monkeypatch.setattr(Path, "write_text", write)
    if writable:
        assert experiments._writable_dir(tmp_path) == tmp_path
    else:
        with pytest.raises(ValidationError, match="is not writable: .*No space left on device"):
            experiments._writable_dir(tmp_path)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def empty_field(outer):
    return ObstacleField(np.empty((0, 2)), 0.5, 1.0, BallRegion(START.point, outer))


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_export_disk_center_row(tmp_path):
    traj = simulate(START, empty_field(3.0), 2.0)
    dest = export_trajectory(traj, "disk", tmp_path / "t.csv")
    rows = read_rows(dest)
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["x"]) == pytest.approx(0.0, abs=1e-15)
    assert float(rows[0]["y"]) == pytest.approx(0.0, abs=1e-15)
    for row in rows:
        assert float(row["x"]) ** 2 + float(row["y"]) ** 2 < 1.0


def test_export_vertical_geodesic_constant_alpha(tmp_path):
    traj = simulate(START, empty_field(3.0), 2.0)
    rows = read_rows(export_trajectory(traj, "halfplane", tmp_path / "v.csv"))
    alphas = [float(row["alpha"]) for row in rows]
    assert max(alphas) - min(alphas) < 1e-12  # vertical geodesic keeps alpha fixed
    assert all(row["event"] == "0" for row in rows)


def test_export_nonvertical_alpha_varies(tmp_path):
    traj = simulate(State(START.point, Direction(0.3)), empty_field(3.0), 2.0)
    rows = read_rows(export_trajectory(traj, "halfplane", tmp_path / "n.csv"))
    assert len({row["alpha"] for row in rows}) > 1


def colliding_trajectory(t_max=3.0, r=0.4):
    from hyperlorentz import sample_field

    lam = lambda_for(1.0, r)
    for seed in range(40):
        field = sample_field(lam, START.point, t_max + r, r, _derive_rng(seed, 0, 0, 0))
        traj = simulate(START, field, t_max)
        if traj.events:
            return traj
    raise AssertionError("no collision in 40 sampled scenarios")


def test_export_unit_speed_between_rows(tmp_path):
    # consecutive rows are joined by geodesic arcs run at unit speed
    traj = colliding_trajectory()
    rows = read_rows(export_trajectory(traj, "halfplane", tmp_path / "u.csv"))
    assert any(r["event"] == "1" for r in rows)
    for r1, r2 in zip(rows, rows[1:]):
        dt = float(r2["t"]) - float(r1["t"])
        d = hyp_distance(
            Point(float(r1["x"]), float(r1["y"])), Point(float(r2["x"]), float(r2["y"]))
        )
        assert d == pytest.approx(dt, abs=1e-6)


def test_export_event_rows_carry_post_direction(tmp_path):
    traj = colliding_trajectory()
    rows = read_rows(export_trajectory(traj, "halfplane", tmp_path / "e.csv"))
    ev_rows = [r for r in rows if r["event"] == "1"]
    assert len(ev_rows) == len(traj.events)
    for row, ev in zip(ev_rows, traj.events):
        assert float(row["t"]) == pytest.approx(ev.time, abs=1e-15)
        assert float(row["alpha"]) == pytest.approx(ev.post_dir.alpha, abs=1e-12)


def test_export_flight_trajectory_roundtrip(tmp_path):
    traj = simulate_flight(START, FlightConfig(2.0, 3.0), _derive_rng(23, 0, 0, 0))
    rows = read_rows(export_trajectory(traj, "halfplane", tmp_path / "f.csv"))
    assert float(rows[-1]["t"]) == pytest.approx(3.0)


def test_export_rejects_bad_model(tmp_path):
    traj = simulate(START, empty_field(3.0), 2.0)
    with pytest.raises(ValidationError):
        export_trajectory(traj, "klein", tmp_path / "x.csv")


def test_export_rows_at_events_on_and_near_grid_times(tmp_path):
    # Events exactly on grid times and within 1e-12 of them, either side,
    # and two just farther: a grid row gives way to an event's row where the
    # nearest event time, over all of them, lies within 1e-12 (six of the
    # eight here), and every row is position_at's.
    grid = [float(v) for v in np.arange(0.0, 2.0, 0.05)]
    times = [grid[3], grid[7] + 5e-13, grid[11] - 1e-12, grid[15] + 2e-12, grid[20] - 9e-13,
             grid[25], grid[26] - 1e-12 * (1 + 1e-9), grid[39]]
    events = [
        billiard.CollisionEvent(t, Point(0.1 * k, 1.0 + k), Direction(0.3), Direction(1.0 + 0.1 * k), 0.7, k)
        for k, t in enumerate(times)
    ]
    traj = billiard.Trajectory(START, 2.0, events)
    rows = read_rows(export_trajectory(traj, "halfplane", tmp_path / "g.csv"))
    kept = [t for t in [*grid, 2.0] if min(abs(t - e) for e in times) > 1e-12]
    assert sorted(kept + times) == [float(row["t"]) for row in rows]
    assert [float(row["t"]) for row in rows if row["event"] == "1"] == times
    assert len(kept) == len(grid) + 1 - 6
    for row in rows:
        s = position_at(traj, float(row["t"]))
        assert [row["x"], row["y"], row["alpha"]] == [repr(s.point.x), repr(s.point.y), repr(s.dir.alpha)]


def test_failed_export_write_keeps_previous_csv(tmp_path, monkeypatch):
    dest = tmp_path / "traj.csv"
    assert main(["export", "--seed", "2", "--out", str(dest)]) == 0
    before = dest.read_bytes()
    write_text = Path.write_text

    def fail_halfway(self, text, *args, **kwargs):
        if self.name.startswith(".traj.csv"):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_halfway)
    assert main(["export", "--seed", "3", "--out", str(dest)]) == 3
    assert dest.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_experiment(tmp_path, capsys):
    code = main(
        [
            "flight-baseline",
            "--sigma", "2", "--t", "3", "--samples", "500",
            "--seed", "9", "--workers", "1", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert "event_count_mean" in capsys.readouterr().out


def test_cli_export(tmp_path):
    dest = tmp_path / "traj.csv"
    code = main(["export", "--model", "disk", "--seed", "4", "--out", str(dest), "--t", "3"])
    assert code == 0
    rows = read_rows(dest)
    assert {"t", "x", "y", "alpha", "event"} == set(rows[0])


def test_sample_trajectory_is_one_lazy_billiard_block():
    # The path export writes is the lazy billiard's run of one block of one
    # replica on the export stream: the same events and recollisions, and
    # its position at the horizon is the engine's end point, bit for bit.
    # An event's obstacle index is the round its obstacle was first met in.
    for seed, sigma, r, t in itertools.product(range(10), (0.5, 3.0), (0.4, 0.05), (3.0, 20.0)):
        block = (_derive_rng(seed, _TAG_EXPORT, 0, 0), 1, lambda_for(sigma, r), r)
        x, y, events, recollisions = experiments._explore([block], t)
        traj = sample_trajectory(sigma, r, t, seed)
        assert (len(traj.events), recollision_count(traj)) == (events[0], recollisions[0])
        end = position_at(traj, t).point
        assert (end.x, end.y) == (x[0], y[0])
        for k, ev in enumerate(traj.events):
            assert traj.events[ev.obstacle_index].obstacle_index == ev.obstacle_index <= k


def test_export_never_samples_a_full_ball(tmp_path, monkeypatch):
    # At r = 0.1 the ball of radius t + r would hold 8.4e9 obstacles at
    # t = 20, past the field cap, and took 1.56 s at t = 12.  The lazy
    # billiard reveals the field along the path only.
    def full_ball(*args, **kw):
        raise AssertionError("export sampled a full ball")

    for module, name in ((experiments, "sample_field"), (experiments, "simulate"),
                         (obstacles, "sample_field"), (billiard, "simulate")):
        monkeypatch.setattr(module, name, full_ball)
    for t in ("20", "40"):
        dest = tmp_path / f"{t}.csv"
        start = time.perf_counter()
        assert main(["export", "--seed", "1", "--r", "0.1", "--t", t, "--out", str(dest)]) == 0
        elapsed = time.perf_counter() - start
        rows = read_rows(dest)
        assert float(rows[-1]["t"]) == float(t) and any(row["event"] == "1" for row in rows)
    assert elapsed < 1.0  # at t = 40


@pytest.mark.parametrize("sigma", ["0.1", "0.001"])
@pytest.mark.parametrize("command", ["bg-convergence", "export"])
def test_lazy_billiard_commands_run_up_to_the_float_range(tmp_path, capsys, command, sigma):
    # At t + r = 354 both run with no numpy warning (the suite makes
    # warnings errors) and write finite values; at sigma 0.1 a path has
    # about 35 collisions, at 0.001 most run straight up to a height of
    # e^t.  Just past the bound they exit 2 before sampling.
    t, args = 354.0 - 0.4, ["--sigma", sigma, "--r", "0.4"]
    if command == "export":
        out, past, extra = tmp_path / "traj.csv", tmp_path / "past.csv", []
    else:
        out, past, extra = tmp_path / "out", tmp_path / "past", ["--samples", "200"]
    assert main([command, *args, "--t", repr(t), *extra, "--out", str(out)]) == 0
    if command == "export":
        values = [float(v) for row in read_rows(out) for v in row.values()]
    else:
        rows = json.loads((out / "report.json").read_text())["levels"]
        values = [row[k] for row in rows for k in ("value", "half_width") if row[k] is not None]
    assert np.isfinite(values).all()
    capsys.readouterr()
    assert main([command, *args, "--t", repr(t + 1e-9), *extra, "--out", str(past)]) == 2
    assert f"{command} needs at most 354" in capsys.readouterr().err
    assert not past.exists()


@pytest.mark.parametrize("sigma", ["0.001", "0.1"])
def test_flight_baseline_runs_up_to_t_709(tmp_path, capsys, sigma):
    # Past t = 709.78 the flow's e^t overflows; at 709 the flights run with
    # no numpy warning, and just past it the run exits 2 before sampling.
    args = ["flight-baseline", "--sigma", sigma, "--samples", "100"]
    assert main([*args, "--t", "709", "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["levels"]
    assert np.isfinite([row["value"] for row in rows]).all()
    capsys.readouterr()
    assert main([*args, "--t", repr(709.0 + 1e-9), "--out", str(tmp_path / "past")]) == 2
    assert "flight-baseline needs at most 709" in capsys.readouterr().err
    assert not (tmp_path / "past").exists()


def test_cli_validation_exit_code(tmp_path):
    assert main(["free-path", "--samples", "0", "--out", str(tmp_path)]) == 2
    assert main(["bg-convergence", "--r", "0.1,0.4", "--out", str(tmp_path)]) == 2


def test_cli_rejects_flight_baseline_of_one_sample(tmp_path, capsys):
    # One sample has no event-count variance: the report would hold NaN.
    out = tmp_path / "out"
    assert main(["flight-baseline", "--samples", "1", "--out", str(out)]) == 2
    assert "samples >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--sigma", "--r", "--t"])
@pytest.mark.parametrize("command", ["free-path", "flight-baseline", "export"])
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, command, flag, value):
    out = tmp_path / ("traj.csv" if command == "export" else "out")
    assert main([command, f"{flag}={value}", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["710", "800"])
@pytest.mark.parametrize("command", ["free-path", "nearest-neighbor", "deflection", "tube-mc",
                                     "bg-convergence", "export"])
def test_cli_rejects_radii_with_no_positive_finite_intensity(tmp_path, capsys, command, r):
    # 2 sinh r overflows near r = 710, so sigma / (2 sinh r) is 0 there.
    out = tmp_path / ("traj.csv" if command == "export" else "out")
    assert main([command, "--r", r, "--out", str(out)]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["1e-9", "1e-17", "1e-300", "2e-8"])
@pytest.mark.parametrize("command", ["deflection", "bg-convergence", "export", "free-path"])
def test_cli_rejects_radii_too_small_to_reflect(tmp_path, capsys, command, r):
    # Below 2^-26 cosh r rounds to 1, and the reflection's normal is lost.
    # Every command that draws deflections refuses such an r before --out.
    if command == "export":
        out, written, extra = tmp_path / "traj.csv", tmp_path / "traj.csv", []
    else:
        out, written, extra = tmp_path / "out", tmp_path / "out" / "report.json", ["--samples", "50"]
    code = main([command, "--r", r, "--t", "2", *extra, "--out", str(out)])
    if r == "2e-8":
        assert code == 0 and written.exists()
    else:
        assert code == 2
        assert f"too small for {command}: cosh r rounds to 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("r, t", [("700", "100"), ("1", "1500"), ("1", "708"), ("1", "353.5")])
def test_cli_rejects_tube_mc_whose_enclosing_ball_overflows(tmp_path, capsys, r, t):
    # Points of the ball of radius t/2 + r around (0, e^(t/2)) reach
    # e^(t + r), whose square overflows beyond t + r = 354.5; tube-mc takes
    # t + r <= 354.
    out = tmp_path / "out"
    assert main(["tube-mc", "--r", r, "--t", t, "--samples", "10", "--out", str(out)]) == 2
    assert "enclosing ball overflow" in capsys.readouterr().err
    assert not out.exists()


class _ExtremeDraws:
    """Stands in for a generator in experiments._tube: every draw on the edge
    of the ball, in directions all round and packed within 3e-8 of straight
    up and down, where the ball's coordinates are largest."""

    def __init__(self):
        near = np.linspace(-3e-8, 3e-8, 6001)
        self.phi = np.concatenate((np.linspace(0.0, 2.0 * math.pi, 10_001), 0.5 * math.pi + near, 1.5 * math.pi + near))

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def uniform(self, low, high, size):
        assert (low, high, size) == (0.0, 2.0 * math.pi, self.phi.size)
        return self.phi


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e-3, 1.0, 50.0, 184.9])
def test_tube_mc_bound_on_both_sides(tmp_path, r):
    t = 354.0 - r
    draws = _ExtremeDraws()
    # At the bound, the most extreme draws run with no numpy warning...
    experiments._tube([(draws, draws.phi.size, r)], t)
    assert main(["tube-mc", "--r", str(r), "--t", repr(t), "--samples", "1000", "--out", str(tmp_path)]) == 0
    # ...and past t + r = 354.9 they overflow, so the bound is needed.
    with pytest.raises(RuntimeWarning, match="overflow"):
        experiments._tube([(draws, draws.phi.size, r)], 355.0 - r)
    assert main(["tube-mc", "--r", str(r), "--t", repr(t + 1e-9), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_cli_rejects_bad_worker_environment(tmp_path, monkeypatch, value):
    monkeypatch.setenv("HYPERLORENTZ_WORKERS", value)
    argv = ["flight-baseline", "--samples", "10", "--out", str(tmp_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects what int() cannot read
        code = exc.code
    assert code == 2
    assert not (tmp_path / "report.json").exists()


def test_cli_reads_workers_from_environment(tmp_path, monkeypatch):
    seen = []
    run = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg.workers) or run(cfg))
    monkeypatch.setenv("HYPERLORENTZ_WORKERS", "2")
    argv = ["flight-baseline", "--samples", "10", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main([*argv, "--workers", "3"]) == 0
    monkeypatch.delenv("HYPERLORENTZ_WORKERS")
    assert main(argv) == 0
    assert seen == [2, 3, 1]


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2
