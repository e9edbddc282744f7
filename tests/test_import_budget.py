"""The CLI imports numpy but not scipy, the process pool or numpy.ma, and
runs import nothing more, but nearest-neighbor's closed forms, which load
scipy.special on first use, and a run's first pool, which loads
concurrent.futures.

Importing scipy costs each CLI call about a second, several times the rest
of its start-up; concurrent.futures, with multiprocessing, logging, socket
and subprocess, and numpy.ma cost it 30-45 ms more.  Each check runs in a
fresh interpreter, as a CLI call does.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import hyperlorentz
from hyperlorentz import experiments

SRC = str(Path(hyperlorentz.__file__).resolve().parent.parent)

# Packages that no call pays for unless its run needs them.
HEAVY = ("scipy", "concurrent", "multiprocessing", "logging", "numpy.ma")

RUNS = """
import contextlib, io, json, os, sys
import hyperlorentz.cli as cli

loaded = set(sys.modules)
added = {"import": sorted(loaded)}
for argv in json.loads(sys.argv[1]):
    out = os.path.join(sys.argv[2], str(len(added)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", out]) == 0
    added[" ".join(argv)] = sorted(set(sys.modules) - loaded)
    loaded |= set(sys.modules)
print(json.dumps(added))
"""

SCIPY_SPECIAL = """
import json, sys
import hyperlorentz.cli

loaded = set(sys.modules)
from scipy import special
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""

POOL = """
import json, sys
import hyperlorentz.cli

loaded = set(sys.modules)
from concurrent.futures import ProcessPoolExecutor
with ProcessPoolExecutor(max_workers=1) as pool:
    list(pool.map(abs, [-1, -2]))
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""


# What the CLI imports anyway, before the package: numpy, json, argparse and
# locale (argparse's gettext loads it on the first parse).
BASE = """
import json, sys
import numpy, json, argparse, locale

loaded = set(sys.modules)
import hyperlorentz.cli

records = sorted(
    f"{module.__name__}.{name}"
    for module in list(sys.modules.values())
    if module is not None and module.__name__.startswith("hyperlorentz")
    for name, value in vars(module).items()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
)
print(json.dumps({"added": sorted(set(sys.modules) - loaded), "records": records}))
"""


def _run(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def _heavy(modules):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in HEAVY)]


def test_cli_imports_no_scipy_and_runs_import_nothing_new(tmp_path):
    argvs = [
        ["free-path", "--samples", "50", "--workers", "1"],
        ["deflection", "--samples", "50", "--workers", "1"],
        # Nor does a multi-level call of blocks within one batch of replicas.
        ["deflection", "--samples", "500", "--r", "0.5,0.1,0.02", "--t", "12", "--workers", "2"],
        ["tube-mc", "--samples", "1000", "--workers", "1"],
        ["bg-convergence", "--samples", "20", "--r", "0.4,0.2", "--t", "2", "--workers", "1"],
        # At workers 2, a run of one batch of blocks a call starts no pool.
        ["bg-convergence", "--samples", "20", "--r", "0.4,0.2", "--t", "2", "--workers", "2"],
        ["flight-baseline", "--samples", "50", "--workers", "1"],
        ["export", "--t", "2"],
        # nearest-neighbor's fields are blocks too: within one batch, no pool.
        ["nearest-neighbor", "--samples", "50", "--workers", "2"],
        ["nearest-neighbor", "--samples", "50", "--workers", "1"],
    ]
    added = _run(RUNS, json.dumps(argvs[:-3]), str(tmp_path))
    imported = added.pop("import")
    assert _heavy(imported) == []
    # argparse's gettext imports locale on the first parse: it comes with the package.
    assert "locale" in imported
    assert added == {" ".join(argv): [] for argv in argvs[:-3]}
    added = _run(RUNS, json.dumps(argvs[-3:]), str(tmp_path / "x"))
    added.pop("import")
    assert added.pop(" ".join(argvs[-3])) == []
    # nearest-neighbor adds scipy.special and what it imports, nothing else.
    nearest = added.pop(" ".join(argvs[-2]))
    assert "scipy.special" in nearest
    assert set(nearest) <= set(_run(SCIPY_SPECIAL))
    assert "concurrent.futures.process" not in nearest
    assert added == {" ".join(argvs[-1]): []}


def test_pool_run_imports_only_the_pool_and_writes_the_same_bytes(tmp_path):
    # At workers 2, flight-baseline's three one-replica streams are two
    # chunks, one of them on a pool of one worker.
    argvs = [["flight-baseline", "--samples", "3", "--workers", str(w)] for w in (1, 2)]
    added = _run(RUNS, json.dumps(argvs), str(tmp_path))
    pool = added[" ".join(argvs[1])]
    assert "concurrent.futures.process" in pool
    assert set(pool) <= set(_run(POOL))
    for name in ("report.json", "levels.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_pool_class_is_concurrent_futures_own():
    assert experiments.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


def test_cli_import_generates_no_record_code():
    # The package's records share one base class: importing them loads no
    # dataclasses, and no class of the package carries dataclass fields.
    found = _run(BASE)
    assert "dataclasses" not in found["added"]
    assert found["records"] == []
