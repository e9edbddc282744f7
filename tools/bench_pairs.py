#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in interleaved pairs.

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload W [--pairs 10]
        [--seconds 50] [--out BENCH_N.json]

Each pair runs ``perfbench/run.py --workload W --seed 0 --seconds S
--trace 0`` three times, each in a fresh interpreter that writes no ``.pyc``
files: once on the old tree, once on the new tree and once more on the old
tree (the A/A side).  The order of the three rotates from pair to pair, so a
drift of the host's speed weighs on every side alike.  Each run's last stdout
line is its JSON result.

For every end-to-end metric that the new tree's ``BENCHMARK.json`` declares,
the block gives both medians and all runs, the old tree's quartiles and
IQR / median, the pairs the new tree won, ``change_worse_by`` (the relative
change, positive where the new tree is worse), the bound and whether the
change stays within it.  A metric whose old-tree IQR / median is wider than
its bound is marked ``unresolved``, unless every run of the new tree reads
better than every run of the old: such a spread cannot tell a change within
the bound from one past it.  Each metric's ``verdict`` is ``gain`` where the
new tree wins at least 9 in 10 pairs and its median is better by more than
the old tree's IQR, else ``within_bound`` or ``past_bound`` where the metric
is resolved, else ``unresolved``.  The block keeps, under ``aa``, the same
verdicts for the old tree against its A/A runs, whose ``change`` fields hold
the A/A side: what the host's noise alone gives, measured in the same window
as the comparison.

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
#: The A/A side: the old tree again, run in every pair beside the other two.
AA = "aa"


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
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    separated = all(sign * (c - p) > 0 for p in parent for c in change)
    unresolved = (spread is None or spread > bound) and not separated
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        verdict = "gain"
    else:
        verdict = "unresolved" if unresolved else "within_bound" if worse_by <= bound else "past_bound"
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_iqr": [round(q1, 4), round(q3, 4)],
        "parent_iqr_over_median": None if spread is None else round(spread, 4),
        "change_better_pairs": wins,
        "change_worse_by": round(worse_by, 4),
        "bound": bound,
        "within_bound": worse_by <= bound,
        "unresolved": unresolved,
        "verdict": verdict,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def verdicts(results: dict, sides: tuple[str, str], declared: dict) -> dict:
    """The failed CLI runs of two sides and each metric's block, the first side as parent."""
    return {
        "failed_cli_runs": dict(zip(SIDES, (sum(r["failed"] for r in results[side]) for side in sides))),
        "metrics": {
            m["name"]: compare(
                *([r["metrics"][m["name"]]["value"] for r in results[side]] for side in sides),
                m["better"],
                m["bound"],
            )
            for m in declared["end_to_end"]
        },
    }


def run_pairs(old: Path, new: Path, workload: str, pairs: int, seconds: float, declared: dict) -> dict:
    """Interleaved runs of the old tree, the new tree and the old tree again: the comparison's
    block, with the A/A comparison of the old tree against its second runs under ``aa``."""
    trees = {SIDES[0]: old, SIDES[1]: new, AA: old}
    order = (*SIDES, AA)
    results = {side: [] for side in order}
    for k in range(pairs):
        for side in order[k % 3:] + order[:k % 3]:
            results[side].append(run_once(trees[side], workload, seconds))
        print(f"pair {k + 1}/{pairs} done", file=sys.stderr)
    return {**verdicts(results, SIDES, declared), AA: verdicts(results, (SIDES[0], AA), declared)}


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
    block = {args.workload: {
        "pairs": args.pairs,
        **run_pairs(args.old, args.new, args.workload, args.pairs, args.seconds, declared),
    }}
    print(json.dumps(block, indent=1))
    if args.out:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {}
        bench.setdefault("benchmark", {}).update(block)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
