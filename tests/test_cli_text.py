"""The CLI's help, usage and error texts, byte for byte.

A call builds the sub-parser of its command alone; these texts are those of
the parser that held every command, at an 80-column terminal.
"""

import pytest

from hyperlorentz import cli
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


def test_export_to_a_directory_exits_2_before_sampling(monkeypatch, capsys, tmp_path):
    def sample(*args):
        raise AssertionError("sampled a path it cannot write")

    monkeypatch.setattr(cli, "sample_trajectory", sample)
    assert main(["export", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: export writes a CSV file, but --out {tmp_path} is a directory\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["flight-baseline", "--samples", "2", "--sigma", "1e6", "--t", "1"],
        ["flight-baseline", "--sigma", "4e5", "--t", "3"],
        ["bg-convergence", "--samples", "2", "--sigma", "1e6", "--t", "1", "--r", "0.4"],
    ],
)
def test_flights_past_the_event_cap_exit_2_before_sampling(monkeypatch, capsys, argv):
    def run(cfg):
        raise AssertionError("ran a flight that cannot end within the event cap")

    monkeypatch.setattr(cli, "run_experiment", run)
    assert main(argv) == 2
    mean = "1e+06" if argv[4] == "1e6" else "1.2e+06"
    assert capsys.readouterr() == (
        "",
        f"error: sigma * t = {mean} is the mean number of turns of a flight; "
        f"{argv[0]} needs it below the cap of 1000000 events a path\n",
    )
