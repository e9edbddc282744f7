import csv
import json
import math
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
    run_experiment,
    simulate,
    simulate_flight,
    tube_area,
)
from hyperlorentz import FlightConfig, ObstacleField, BallRegion, expected_T1
from hyperlorentz import experiments
from hyperlorentz.cli import main
from hyperlorentz.experiments import _FC_BLOCK, _derive_rng

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


def test_block_reports_identical_across_worker_counts(tmp_path):
    # Several first-collision blocks and a ragged last one; for the
    # per-replica experiments, 4 (workers 1) or 12 (workers 3) chunks, and
    # at workers 1 chunks whose fields fill more than one batch of obstacles.
    for experiment, kw in {
        "free-path": dict(samples=2 * _FC_BLOCK + 7),
        "deflection": dict(samples=2 * _FC_BLOCK + 7),
        "bg-convergence": dict(sigma=1.0, r_levels=(0.4, 0.1), t=4.0, samples=241),
        "nearest-neighbor": dict(t=1.0, samples=3001),
        "flight-baseline": dict(sigma=2.0, r_levels=(), t=3.0, samples=3001),
    }.items():
        blobs = []
        for w in (1, 3):
            out = tmp_path / f"{experiment}-w{w}"
            run_experiment(cfg_for(out, experiment=experiment, workers=w, **kw))
            blobs.append(read_outputs(out))
        assert blobs[0] == blobs[1]


def test_one_pool_per_run_no_larger_than_its_chunks(tmp_path, monkeypatch):
    # A fork pool starts all its workers at once, wanted or not.
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    run_experiment(
        cfg_for(tmp_path / "a", experiment="flight-baseline", r_levels=(), samples=2, workers=1000)
    )
    run_experiment(
        cfg_for(
            tmp_path / "b",
            experiment="bg-convergence",
            sigma=1.0,
            r_levels=(0.4, 0.2, 0.1),
            t=1.0,
            samples=5,
            workers=1000,
        )
    )
    assert made == [2, 5]


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


def test_tube_mc_experiment(tmp_path):
    rep = run_experiment(
        cfg_for(tmp_path, experiment="tube-mc", r_levels=(0.5,), t=2.0, samples=500_000)
    )
    mc = rep.stat("tube_area_mc")
    exact = rep.stat("tube_area_formula")
    assert exact.value == pytest.approx(tube_area(2.0, 0.5), abs=1e-15)
    assert abs(mc.value - exact.value) < 3.0 * mc.half_width
    assert mc.n == 500_000


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


def test_flight_baseline_experiment(tmp_path):
    rep = run_experiment(
        cfg_for(tmp_path, experiment="flight-baseline", sigma=2.0, r_levels=(), t=3.0, samples=4000)
    )
    assert rep.stat("event_count_mean").value == pytest.approx(6.0, rel=0.05)
    assert rep.stat("event_count_var").value == pytest.approx(6.0, rel=0.10)
    assert rep.stat("ks_deflection").value < 0.03


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


def test_cli_validation_exit_code(tmp_path):
    assert main(["free-path", "--samples", "0", "--out", str(tmp_path)]) == 2
    assert main(["bg-convergence", "--r", "0.1,0.4", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--sigma", "--r", "--t"])
@pytest.mark.parametrize("command", ["free-path", "flight-baseline", "export"])
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, command, flag, value):
    out = tmp_path / ("traj.csv" if command == "export" else "out")
    assert main([command, f"{flag}={value}", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2
