#!/usr/bin/env python3
"""Compare the bytes that two source trees write: the byte sweep.

    python3 tools/byte_sweep.py OLD_TREE NEW_TREE

Runs every case below through ``hyperlorentz.cli.main``, in a fresh
interpreter on each tree's ``src``, and compares what the two runs wrote:

- the golden cases at seeds 0-5: the six experiments at their defaults at
  workers 1 and 2, and export in both models;
- the two benchmark configurations, deflection ``--r 0.5,0.1,0.02 --t 12
  --samples 500`` and bg-convergence ``--r 0.4,0.2,0.1 --t 4 --samples
  1000 --workers 2``, whose calls of blocks all run in the caller;
- block kernels on a pool: bg-convergence's flight and billiard at
  ``--r 0.4,0.2,0.1 --t 4 --samples 9000 --workers 2`` and free-path's
  first collisions at ``--samples 20000 --workers 2``;
- long histories: bg-convergence ``--sigma 4 --t 20 --r 0.1 --samples
  1000``, with trapped replicas and long ``_explore`` histories, and export
  ``--sigma 100 --t 5 --r 0.1``, one replica's path of 810 collisions, 806
  of them recollisions, over as many rounds;
- a small radius: export ``--sigma 2000 --t 1 --r 3e-8``, a path of about
  2 000 collisions among obstacles where cosh r rounds to within a few
  ulps of 1, whose contact and membership tests must still resolve r.

For each file that moved it prints the case, the file, its sha256 in both
trees and the first row where they differ.  It exits 0 when no file moved
and every run succeeded, and 1 otherwise.  A run takes a fraction of a
second, so the sweep takes a minute or two.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Written here, not read from either tree, so that both trees run the same cases.
EXPERIMENTS = (
    "free-path",
    "nearest-neighbor",
    "deflection",
    "tube-mc",
    "bg-convergence",
    "flight-baseline",
)
REPORT = ("report.json", "levels.csv")
SEEDS = range(6)
RUN = "import sys; from hyperlorentz.cli import main; sys.exit(main(sys.argv[1:]))"


def cases():
    """(name, argv without --out, files written) of every case."""
    for command in EXPERIMENTS:
        for seed in SEEDS:
            for workers in (1, 2):
                argv = [command, "--seed", str(seed), "--workers", str(workers)]
                yield f"{command} seed={seed} workers={workers}", argv, REPORT
    for model in ("halfplane", "disk"):
        for seed in SEEDS:
            yield f"export seed={seed} model={model}", ["export", "--seed", str(seed), "--model", model], ("traj.csv",)
    yield "deflection benchmark", ["deflection", "--r", "0.5,0.1,0.02", "--t", "12", "--samples", "500"], REPORT
    yield "bg-convergence benchmark", [
        "bg-convergence", "--r", "0.4,0.2,0.1", "--t", "4", "--samples", "1000", "--workers", "2",
    ], REPORT
    yield "bg-convergence on a pool", [
        "bg-convergence", "--r", "0.4,0.2,0.1", "--t", "4", "--samples", "9000", "--workers", "2",
    ], REPORT
    yield "free-path on a pool", ["free-path", "--samples", "20000", "--workers", "2"], REPORT
    yield "bg-convergence long histories", [
        "bg-convergence", "--sigma", "4", "--t", "20", "--r", "0.1", "--samples", "1000",
    ], REPORT
    yield "export long path", ["export", "--sigma", "100", "--t", "5", "--r", "0.1"], ("traj.csv",)
    yield "export small radius", ["export", "--sigma", "2000", "--t", "1", "--r", "3e-8"], ("traj.csv",)


def run(tree: Path, argv: list[str], files: tuple[str, ...], out: Path) -> str | None:
    """Run one case on tree's src into out; the error text if it failed."""
    env = {k: v for k, v in os.environ.items() if k != "HYPERLORENTZ_WORKERS"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    dest = out / files[0] if argv[0] == "export" else out
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv, "--out", str(dest)], env=env, capture_output=True, text=True
    )
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


def first_difference(old: bytes, new: bytes) -> str:
    """The first row where two files differ, 1-based, in both versions."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    for i in range(max(len(a), len(b))):
        row_a = a[i] if i < len(a) else "<no row>"
        row_b = b[i] if i < len(b) else "<no row>"
        if row_a != row_b:
            return f"row {i + 1}\n    old: {row_a}\n    new: {row_b}"
    return "rows equal, line endings differ"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="tree of the parent commit")
    parser.add_argument("new", type=Path, help="tree of the change")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "hyperlorentz" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/hyperlorentz/cli.py")
    compared = moved = failed = 0
    with tempfile.TemporaryDirectory(prefix="byte-sweep-") as tmp:
        for k, (name, case_argv, files) in enumerate(cases()):
            outs = {side: Path(tmp, side, str(k)) for side in ("old", "new")}
            errors = {side: run(tree, case_argv, files, outs[side])
                      for side, tree in (("old", args.old), ("new", args.new))}
            if any(errors.values()):
                failed += 1
                for side, error in errors.items():
                    if error:
                        print(f"{name}: the {side} tree failed, {error}")
                continue
            for file in files:
                compared += 1
                old, new = ((outs[side] / file).read_bytes() for side in ("old", "new"))
                if old != new:
                    moved += 1
                    digests = " -> ".join(hashlib.sha256(b).hexdigest() for b in (old, new))
                    print(f"{name} {file}: {digests}\n  {first_difference(old, new)}")
    print(f"{compared} files compared, {moved} moved, {failed} cases failed")
    return 1 if moved or failed else 0


if __name__ == "__main__":
    sys.exit(main())
