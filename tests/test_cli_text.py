"""The CLI's help, usage and error texts, byte for byte.

A call builds the sub-parser of its command alone; these texts are those of
the parser that held every command, at an 80-column terminal.
"""

import os

import pytest

from hyperlorentz import cli, experiments
from hyperlorentz.cli import main

USAGE = """\
usage: hyperlorentz [-h]
                    {free-path,nearest-neighbor,deflection,tube-mc,bg-convergence,flight-baseline,export}
                    ...
"""

HELP = (
    USAGE
    + """
Monte Carlo experiments for geodesic billiards among Poisson disk obstacles

positional arguments:
  {free-path,nearest-neighbor,deflection,tube-mc,bg-convergence,flight-baseline,export}
    free-path           run the free-path experiment
    nearest-neighbor    run the nearest-neighbor experiment
    deflection          run the deflection experiment
    tube-mc             run the tube-mc experiment
    bg-convergence      run the bg-convergence experiment
    flight-baseline     run the flight-baseline experiment
    export              simulate one billiard trajectory and write it as CSV

options:
  -h, --help            show this help message and exit
"""
)

DEFLECTION_USAGE = """\
usage: hyperlorentz deflection [-h] [--sigma SIGMA] [--r F[,F...]] [--t T]
                               [--samples SAMPLES] [--seed SEED]
                               [--workers WORKERS] [--out OUT]
"""

FREE_PATH_USAGE = """\
usage: hyperlorentz free-path [-h] [--sigma SIGMA] [--r F[,F...]] [--t T]
                              [--samples SAMPLES] [--seed SEED]
                              [--workers WORKERS] [--out OUT]
"""

DEFLECTION_HELP = (
    DEFLECTION_USAGE
    + """
options:
  -h, --help         show this help message and exit
  --sigma SIGMA      collision rate (default 1.0)
  --r F[,F...]       obstacle radius level(s) (default 0.5)
  --t T              time horizon (default 2.0)
  --samples SAMPLES  replica count (default 1000)
  --seed SEED        base seed (default 0)
  --workers WORKERS  worker process count (default 1, or HYPERLORENTZ_WORKERS)
  --out OUT          output directory
"""
)

EXPORT_HELP = """\
usage: hyperlorentz export [-h] [--model {halfplane,disk}] [--seed SEED] --out
                           OUT [--sigma SIGMA] [--r R] [--t T]

options:
  -h, --help            show this help message and exit
  --model {halfplane,disk}
  --seed SEED
  --out OUT             destination CSV file
  --sigma SIGMA
  --r R
  --t T
"""

CASES = [
    # (argv, HYPERLORENTZ_WORKERS, exit code, stdout, stderr)
    (["--help"], None, 0, HELP, ""),
    (["deflection", "--help"], None, 0, DEFLECTION_HELP, ""),
    (["export", "--help"], None, 0, EXPORT_HELP, ""),
    ([], None, 2, "", USAGE + "hyperlorentz: error: the following arguments are required: command\n"),
    (
        ["bogus"],
        None,
        2,
        "",
        USAGE
        + "hyperlorentz: error: argument command: invalid choice: 'bogus' (choose from 'free-path', "
        "'nearest-neighbor', 'deflection', 'tube-mc', 'bg-convergence', 'flight-baseline', 'export')\n",
    ),
    (["deflection", "--bogus"], None, 2, "", USAGE + "hyperlorentz: error: unrecognized arguments: --bogus\n"),
    (
        ["deflection", "--samples", "x"],
        None,
        2,
        "",
        DEFLECTION_USAGE + "hyperlorentz deflection: error: argument --samples: invalid int value: 'x'\n",
    ),
    (
        ["deflection"],
        "x",
        2,
        "",
        DEFLECTION_USAGE + "hyperlorentz deflection: error: argument --workers: invalid int value: 'x'\n",
    ),
    (
        ["free-path", "--r", "a"],
        None,
        2,
        "",
        FREE_PATH_USAGE
        + "hyperlorentz free-path: error: argument --r: expected numbers separated by commas, got 'a'\n",
    ),
    (
        ["free-path", "--r", "0.5,"],
        None,
        2,
        "",
        FREE_PATH_USAGE
        + "hyperlorentz free-path: error: argument --r: expected numbers separated by commas, got '0.5,'\n",
    ),
]


@pytest.mark.parametrize("argv, workers, code, out, err", CASES)
def test_cli_text(monkeypatch, capsys, argv, workers, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    if workers is None:
        monkeypatch.delenv("HYPERLORENTZ_WORKERS", raising=False)
    else:
        monkeypatch.setenv("HYPERLORENTZ_WORKERS", workers)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "out, err",
    [
        ("", "export writes a CSV file, but --out {out} is a directory\n"),
        # A regular file where the destination's directory should be.
        ("file/a.csv", "output directory {dir} is not writable: [Errno 17] File exists: '{dir}'\n"),
        ("file/sub/a.csv", "output directory {dir} is not writable: [Errno 20] Not a directory: '{dir}'\n"),
    ],
    ids=["directory", "file-as-parent", "file-as-grandparent"],
)
def test_export_to_a_directory_exits_2_before_sampling(monkeypatch, capsys, tmp_path, out, err):
    def sample(*args):
        raise AssertionError("sampled a path it cannot write")

    monkeypatch.setattr(cli, "sample_trajectory", sample)
    (tmp_path / "file").write_text("kept")
    out = str(tmp_path / out) if out else str(tmp_path)
    assert main(["export", "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: " + err.format(out=out, dir=out.rpartition("/")[0]))
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize(
    "argv",
    [
        ["flight-baseline", "--samples", "2", "--sigma", "1e6", "--t", "1"],
        ["flight-baseline", "--sigma", "4e5", "--t", "3"],
        ["bg-convergence", "--samples", "2", "--sigma", "1e6", "--t", "1", "--r", "0.4"],
        ["export", "--r", "0.4", "--sigma", "1e6", "--t", "1"],
    ],
)
def test_flights_past_the_event_cap_exit_2_before_sampling(monkeypatch, capsys, tmp_path, argv):
    # export's path is the lazy billiard's, which stops at the same cap.
    def run(*args):
        raise AssertionError("ran a path that cannot end within the event cap")

    monkeypatch.setattr(cli, "run_experiment", run)
    monkeypatch.setattr(experiments, "_explore", run)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    mean = "1e+06" if argv[4] == "1e6" else "1.2e+06"
    if argv[0] == "export":
        counts = "is about the mean number of collisions of the path"
    else:
        counts = "is the mean number of turns of a flight"
    assert capsys.readouterr() == (
        "",
        f"error: sigma * t = {mean} {counts}; {argv[0]} needs it below the cap of 1000000 events a path\n",
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["flight-baseline", "--t", "800", "--sigma", "0.001", "--samples", "100"],
            "t = 800.0; flight-baseline needs at most 709, or e^t in its flow overflows",
        ),
        (
            ["bg-convergence", "--sigma", "0.001", "--t", "360", "--r", "0.4"],
            "t = 360.0 and r = 0.4 give t + r = 360.4; bg-convergence needs at most 354, "
            "or coordinates of its paths overflow when squared",
        ),
        (
            ["export", "--t", "360", "--r", "0.4"],
            "t = 360.0 and r = 0.4 give t + r = 360.4; export needs at most 354, "
            "or coordinates of its path overflow when squared",
        ),
        (
            # t + r is printed exactly: rounded, it would read 354.
            ["export", "--sigma", "0.1", "--t", "353.6000001", "--r", "0.4"],
            "t = 353.6000001 and r = 0.4 give t + r = 354.00000009999997; export needs at most 354, "
            "or coordinates of its path overflow when squared",
        ),
        (
            ["tube-mc", "--t", "360", "--r", "0.4"],
            "t = 360.0 and r = 0.4 give t + r = 360.4; tube-mc needs at most 354, "
            "or points of its enclosing ball overflow",
        ),
    ],
    ids=["flight-baseline", "bg-convergence", "export", "export-just-past", "tube-mc"],
)
def test_runs_past_the_float_range_exit_2_before_sampling(monkeypatch, capsys, tmp_path, argv, err):
    def sample(*args):
        raise AssertionError("sampled past the float range")

    monkeypatch.setattr(cli, "run_experiment", sample)
    monkeypatch.setattr(experiments, "_explore", sample)
    out = tmp_path / ("traj.csv" if argv[0] == "export" else "out")
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["export", "--out", "/proc/nope/x.csv"], ["free-path", "--out", "/proc/nope"]],
    ids=["export", "free-path"],
)
def test_inputs_are_checked_before_out(capsys, argv):
    # Every command names its bad input before it probes --out.
    assert main([*argv, "--sigma", "nan"]) == 2
    assert capsys.readouterr() == ("", "error: sigma must be positive and finite, got nan\n")
    assert not os.path.exists("/proc/nope")
