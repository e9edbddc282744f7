"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import importlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has child c [15, 25).
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    assert tracing.self_times(parent, start, end).tolist() == [30, 20, 10, 40]


def test_aggregate_keys_by_parent_and_sums_units():
    rec = tracing.Recorder()
    leaf = rec.wrap("geometry.flow_xy", lambda n: (np.zeros(n),), units=tracing._elements)
    outer = rec.wrap("billiard.simulate", lambda: [leaf(3), leaf(4)])
    outer()
    leaf(5)
    agg = {}
    tracing.aggregate(rec.arrays(), agg)
    assert agg[("billiard.simulate", "geometry.flow_xy")].units == 7
    assert agg[("billiard.simulate", "geometry.flow_xy")].calls == 2
    assert agg[("", "geometry.flow_xy")].max_units == 5
    row = agg[("", "billiard.simulate")]
    assert 0 <= row.self_ns <= row.total_ns


def test_traced_cli_run_restores_every_attribute(tmp_path):
    import hyperlorentz.cli as cli

    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.TARGETS
    }
    rec = tracing.Recorder()
    with tracing.traced(rec):
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in originals.items())
        rc = cli.main(["flight-baseline", "--samples", "50", "--out", str(tmp_path)])
    assert rc == 0
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())
    names = set(rec.names[i] for i in rec.arrays()["name"])
    assert {"experiments.derive_rng", "flight.simulate_flight", "geometry.flow_xy"} <= names


def test_patched_restores_when_the_block_raises():
    import hyperlorentz.experiments as ex

    original = ex._derive_rng
    with pytest.raises(RuntimeError):
        with tracing.patched([("hyperlorentz.experiments", "_derive_rng", lambda f: None)]):
            raise RuntimeError
    assert ex._derive_rng is original


def _small(w, **kw):
    fields = dict(w.__dict__, samples=200, run_s=1.0)
    fields.update(kw)
    return run.Workload(**fields)


def test_clean_runs_pass(tmp_path):
    w = _small(run.WORKLOADS["flight-baseline"])
    runs, setup = run.run_untraced(w, 0, 3, tmp_path, run.Budget.of(60))
    assert len(runs) == 3 and not any(r.failed for r in runs)
    assert len(setup) == run.SETUP_SAMPLES
    assert all(r.cal_s > 0 for r in runs) and all(s.cal_s > 0 for s in setup)
    assert run.end_to_end(w, runs, setup)["passed_share"] == (1.0, "fraction")


def test_forced_check_failure_is_counted(tmp_path):
    w = _small(run.WORKLOADS["flight-baseline"], check=lambda report, w, band: ["forced"])
    runs, setup = run.run_untraced(w, 0, 3, tmp_path, run.Budget.of(60))
    assert all(r.failed for r in runs)
    assert run.end_to_end(w, runs, setup)["passed_share"][0] == 0.0


def test_nonzero_exit_is_counted(tmp_path):
    w = _small(run.WORKLOADS["flight-baseline"], sigma=-1.0)
    runs, _ = run.run_untraced(w, 0, 3, tmp_path, run.Budget.of(60))
    assert all(r.rc == 2 and r.failed for r in runs)


def test_no_cli_run_starts_after_the_stop_time(tmp_path):
    w = _small(run.WORKLOADS["flight-baseline"])
    runs, setup = run.run_untraced(w, 0, 3, tmp_path, run.Budget(stop_at=0.0, kill_at=time.monotonic() + 60))
    assert runs == [] and len(setup) == run.SETUP_SAMPLES


def test_unreadable_output_is_counted(tmp_path):
    (tmp_path / "run.json").write_text(
        json.dumps({"rc": 0, "elapsed_s": 1.0, "peak_rss_mb": 70.0, "pools": 0, "restored": True})
    )
    (tmp_path / "cli").mkdir()
    (tmp_path / "cli" / "report.json").write_text('{"levels": []}')  # levels.csv is missing
    r = run.CliRun(0, 1, "plain")
    run.collect(r, tmp_path, "")
    assert r.failed and r.report is None


def test_malformed_report_is_counted():
    w = run.WORKLOADS["flight-baseline"]
    bad, good = run.CliRun(1, 1, "plain", rc=0, report={"levels": []}), run.CliRun(2, 1, "plain", rc=0)
    good.report = {"levels": [
        {"stat_name": "event_count_mean", "value": 6.0, "n": 5000},
        {"stat_name": "ks_deflection", "value": 0.01, "n": 5000},
    ]}
    run.check(w, [bad, good])
    assert bad.failed and not good.failed


def test_pooled_ks_catches_a_bias_that_each_run_passes():
    def report(d):
        return {"levels": [{"stat_name": "ks_deflection", "r": 0.1, "value": d, "n": 500}]}

    assert run.check_ks_pooled([report(run.KOLMOGOROV_MEAN / math.sqrt(500))] * 200) == []
    biased = [report(0.06)] * 200  # sqrt(500) D_n = 1.34, inside each run's band
    assert run._ks_errors(biased[0]["levels"], run.ks_band(200)) == []
    assert len(run.check_ks_pooled(biased)) == 1


def test_report_mismatch_is_counted():
    a = run.CliRun(0, 2, "plain", rc=0, files=b"x")
    b = run.CliRun(0, 1, "trace", rc=0, files=b"y")
    run.same_files(a, b)
    assert b.failed and not a.failed


def test_checks_accept_and_reject():
    w = run.WORKLOADS["bg-convergence"]
    good = {"levels": [
        {"stat_name": s, "r": r, "value": v, "half_width": hw, "n": 1000}
        for r in w.r
        for s, v, hw in (("wasserstein1_displacement", 0.1, 0.02), ("mean_collisions", 4.1, None))
    ]}
    assert run.check_bg_convergence(good, w, 1.95) == []
    assert run.check_bg_collisions([good], w) == []
    good["levels"][0]["half_width"] = float("nan")
    good["levels"][1]["value"] = 3.5
    assert len(run.check_bg_convergence(good, w, 1.95)) == 1
    assert len(run.check_bg_collisions([good], w)) == 1


def test_ref_s_scales_to_the_reference_speed():
    # On a host at half the reference speed the calibration takes twice as long.
    assert run.ref_s(2.0, 2 * run.CAL_REF_S) == pytest.approx(1.0)


def test_ks_band():
    assert run.ks_band(1) == pytest.approx(1.95, abs=0.005)
    assert run.ks_band(200) > run.ks_band(3) > run.ks_band(1)
