#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in interleaved pairs.

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload W [--pairs 10]
        [--seconds 50] [--out BENCH_N.json]

Each pair runs ``perfbench/run.py --workload W --seed 0 --seconds S
--trace 0`` once on each tree, in a fresh interpreter that writes no
``.pyc`` files; the old tree runs first on even pairs, the new tree first on
odd pairs, so a drift of the host's speed weighs on both sides alike.  Each
run's last stdout line is its JSON result.

For every end-to-end metric that the new tree's ``BENCHMARK.json`` declares,
the block gives both medians and all runs, the old tree's quartiles and
IQR / median, the pairs the new tree won, ``change_worse_by`` (the relative
change, positive where the new tree is worse), the bound and whether the
change stays within it.  A metric whose old-tree IQR / median is wider than
its bound is marked ``unresolved``, unless every run of the new tree reads
better than every run of the old: such a spread cannot tell a change within
the bound from one past it.

The block ``{W: {...}}`` is printed; with ``--out`` it is also merged into
that file's ``benchmark`` object, which a run per workload fills in turn.
Pass trees without ``__pycache__`` directories (``git archive`` extracts, for
instance), so that neither side imports compiled files the other lacks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One benchmark run on tree: its JSON result, the last line of stdout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("HYPERLORENTZ_WORKERS", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{tree}: run exited {proc.returncode} without a JSON result\n{proc.stderr.strip()}")


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The block of one metric, from the runs of both sides in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    spread = (q3 - q1) / abs(p_med) if p_med else (0.0 if q3 == q1 else None)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else sign * (p_med - c_med)
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_iqr": [round(q1, 4), round(q3, 4)],
        "parent_iqr_over_median": None if spread is None else round(spread, 4),
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "change_worse_by": round(worse_by, 4),
        "bound": bound,
        "within_bound": worse_by <= bound,
        "unresolved": (spread is None or spread > bound) and not all(
            sign * (c - p) > 0 for p in parent for c in change
        ),
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="tree of the parent commit")
    parser.add_argument("new", type=Path, help="tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, help="BENCH file whose benchmark block to merge into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.old, args.new):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    declared = json.loads((args.new / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"BENCHMARK.json declares no workload {args.workload!r}")
    trees = dict(zip(SIDES, (args.old, args.new)))
    results = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            results[side].append(run_once(trees[side], args.workload, args.seconds))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)
    metrics = {
        m["name"]: compare(
            *([r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES),
            m["better"],
            m["bound"],
        )
        for m in declared["end_to_end"]
    }
    block = {args.workload: {
        "pairs": args.pairs,
        "failed_cli_runs": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }}
    print(json.dumps(block, indent=1))
    if args.out:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {}
        bench.setdefault("benchmark", {}).update(block)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
