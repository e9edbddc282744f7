"""The CLI imports numpy but not scipy, and runs import nothing more, but
nearest-neighbor's closed forms, which load scipy.special on first use.

Importing scipy costs each CLI call about a second, several times the rest
of its start-up.  Each check runs in a fresh interpreter, as a CLI call does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hyperlorentz

SRC = str(Path(hyperlorentz.__file__).resolve().parent.parent)

RUNS = """
import contextlib, io, json, sys
import hyperlorentz.cli as cli

loaded = set(sys.modules)
added = {"import": sorted(m for m in loaded if m.startswith("scipy"))}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--workers", "1", "--out", sys.argv[2]]) == 0
    added[argv[0]] = sorted(set(sys.modules) - loaded)
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


def _run(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_imports_no_scipy_and_runs_import_nothing_new(tmp_path):
    argvs = [
        ["free-path", "--samples", "50"],
        ["deflection", "--samples", "50"],
        ["tube-mc", "--samples", "1000"],
        ["bg-convergence", "--samples", "20", "--r", "0.4,0.2", "--t", "2"],
        ["flight-baseline", "--samples", "50"],
        ["nearest-neighbor", "--samples", "50"],
    ]
    added = _run(RUNS, json.dumps(argvs), str(tmp_path))
    assert added.pop("import") == []
    nearest = added.pop("nearest-neighbor")
    assert added == {argv[0]: [] for argv in argvs[:-1]}
    # nearest-neighbor adds scipy.special and what it imports, nothing else.
    assert "scipy.special" in nearest
    assert set(nearest) <= set(_run(SCIPY_SPECIAL))
