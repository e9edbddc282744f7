"""Command line front end.

    hyperlorentz <experiment> --sigma F --r F[,F...] --t F --samples N
                 --seed N --workers N --out DIR
    hyperlorentz export --model halfplane|disk --seed N --out FILE
                 [--sigma F --r F --t F]

Exit codes: 0 success, 2 validation error, 3 runtime error.  The default
worker count may be overridden with the HYPERLORENTZ_WORKERS environment
variable; everything else is flags only.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  argparse's gettext imports it for a call's first parser; load it with the package
import os
import sys

from .errors import ValidationError
from .experiments import (
    _COMMANDS,
    ExperimentConfig,
    _check_run,
    _writable_dir,
    export_trajectory,
    run_experiment,
    sample_trajectory,
)


def _r_levels(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers separated by commas, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=1.0, help="collision rate (default 1.0)")
    p.add_argument(
        "--r",
        dest="r_levels",
        type=_r_levels,
        default=(0.5,),
        metavar="F[,F...]",
        help="obstacle radius level(s) (default 0.5)",
    )
    p.add_argument("--t", type=float, default=2.0, help="time horizon (default 2.0)")
    p.add_argument("--samples", type=int, default=1000, help="replica count (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument(
        "--workers",
        type=int,
        # argparse converts a string default with type, so a bad value exits 2.
        default=os.environ.get("HYPERLORENTZ_WORKERS") or "1",
        help="worker process count (default 1, or HYPERLORENTZ_WORKERS)",
    )
    p.add_argument("--out", default="hyperlorentz-out", help="output directory")


def _add_export(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("halfplane", "disk"), default="halfplane")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="destination CSV file")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--t", type=float, default=5.0)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with the sub-parser of ``command``
    alone, whose metavar keeps the full parser's usage line."""
    parser = argparse.ArgumentParser(
        prog="hyperlorentz",
        description="Monte Carlo experiments for geodesic billiards among Poisson disk obstacles",
    )
    # The metavar would rename "argument command" in the full parser's errors.
    kw = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **kw)
    for name in _COMMANDS if command is None else (command,):
        if name == "export":
            _add_export(sub.add_parser(name, help="simulate one billiard trajectory and write it as CSV"))
        else:
            _add_common(sub.add_parser(name, help=f"run the {name} experiment"))
    return parser


def _run_export(args: argparse.Namespace) -> None:
    # Inputs first, then --out, as an experiment's config is checked before
    # its run probes --out.
    _check_run("export", args.sigma, args.t, (args.r,))
    if os.path.isdir(args.out):
        raise ValidationError(f"export writes a CSV file, but --out {args.out} is a directory")
    _writable_dir(os.path.dirname(args.out) or ".")
    traj = sample_trajectory(args.sigma, args.r, args.t, args.seed)
    dest = export_trajectory(traj, args.model, args.out)
    print(f"wrote {dest} ({len(traj.events)} collision events, model={args.model})")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call builds only the sub-parser it runs.  With no command or a bad
    # one, the full parser writes the usage and the error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        if args.command == "export":
            _run_export(args)
        else:
            cfg = ExperimentConfig(
                experiment=args.command,
                sigma=args.sigma,
                r_levels=args.r_levels,
                t=args.t,
                samples=args.samples,
                seed=args.seed,
                workers=args.workers,
                output_dir=args.out,
            )
            report = run_experiment(cfg)
            print(f"{report.experiment}: seed={report.seed} elapsed={report.elapsed_s:.2f}s")
            for s in report.levels:
                tag = f"r={s.r:g} " if s.r is not None else ""
                hw = f" +/-{s.half_width:.3g}" if s.half_width is not None else ""
                print(f"  {tag}{s.stat_name} = {s.value:.6g}{hw} (n={s.n})")
            print(f"report written to {cfg.output_dir}/report.json")
    except ValueError as exc:  # ValidationError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: runaway loops, I/O, ...
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
