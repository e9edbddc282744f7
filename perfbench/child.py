"""Fork server for CLI runs: ``python3 child.py PLAN_JSON``.

The server imports ``hyperlorentz.cli`` before anything else and stamps the
finish with ``time.monotonic()``, a clock shared by all processes on Linux,
so the parent can time interpreter start-up plus import from its own spawn
time.  It prints ``{"imported_at", "import_s", "made", "cal_s"}`` as its
last stdout line, where ``made`` counts the runs it started and ``cal_s``
holds the time of ``calibrate()`` after the import and after each run.

Then, for each run in the plan, it forks a fresh process that calls
``hyperlorentz.cli.main`` once and writes a result JSON; the server itself
never runs the CLI, so every run starts from the same just-imported state.
PLAN_JSON is ``{"stop_at": <monotonic s>, "runs": [{"mode", "args",
"result"}]}``; no run starts after ``stop_at``.  Mode ``plain`` wraps only
``hyperlorentz.experiments.ProcessPoolExecutor``, to count pools and read
their workers' peak memory; ``trace`` also wraps every function in
``tracing.TARGETS`` and writes the spans to ``result + ".npz"``.
"""

import time

_started = time.perf_counter()
import hyperlorentz.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()
IMPORT_S = time.perf_counter() - _started

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402


def _peak_kb(pid: int) -> int:
    """Peak resident memory (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def counting_pool(pool_peaks_kb: list):
    """Subclass a pool executor so each pool appends its workers' summed peak."""

    def make(executor):
        class CountingPool(executor):
            def shutdown(self, *args, **kwargs):
                if not getattr(self, "_peak_read", False):
                    self._peak_read = True
                    # Workers are still alive here; ``_processes`` maps pid -> process.
                    pids = list(getattr(self, "_processes", None) or {})
                    pool_peaks_kb.append(sum(_peak_kb(pid) for pid in pids))
                super().shutdown(*args, **kwargs)

        return CountingPool

    return make


def calibrate() -> float:
    """Seconds of fixed numpy and interpreter work shaped like the lab's: a
    per-replica loop (one generator per replica, short arrays), then passes
    over arrays of 250k points, as in annulus and field sampling.  It never
    calls the package, so it measures how fast the host runs now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        x = np.random.default_rng(i).random(64)
        acc += float(np.sqrt(x * x + 1.0).sum())
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.random(250_000)
        acc += float((np.sqrt(x * x + 1.0) * np.cos(x))[x < 0.5].sum())
    return time.perf_counter() - t0


def run_once(mode: str, cli_args: list[str], result_path: str) -> None:
    """One CLI run in this process; writes its result JSON."""
    pool_peaks_kb: list[int] = []
    recorder = tracing.Recorder()
    run = cli.main
    with contextlib.ExitStack() as stack:
        saved = list(
            stack.enter_context(
                tracing.patched(
                    [("hyperlorentz.experiments", "ProcessPoolExecutor", counting_pool(pool_peaks_kb))]
                )
            )
        )
        if mode == "trace":
            saved += stack.enter_context(tracing.traced(recorder))
            run = recorder.wrap(tracing.ROOT_SPAN, cli.main)
        sink = stack.enter_context(open(os.devnull, "w"))
        stack.enter_context(contextlib.redirect_stdout(sink))
        t0 = time.perf_counter()
        try:
            rc = run(cli_args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    restored = all(getattr(module, attr) is original for module, attr, original in saved)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "trace":
        np.savez(result_path + ".npz", **recorder.arrays())
    with open(result_path, "w") as f:
        json.dump(
            {
                "rc": rc,
                "elapsed_s": elapsed,
                "peak_rss_mb": (self_kb + max(pool_peaks_kb, default=0)) / 1024.0,
                "pools": len(pool_peaks_kb),
                "restored": restored,
            },
            f,
        )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: child.py PLAN_JSON", file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        plan = json.load(f)
    made = 0
    cal_s = [calibrate()]
    for run in plan["runs"]:
        if time.monotonic() >= plan["stop_at"]:
            break
        made += 1
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                run_once(run["mode"], run["args"], run["result"])
            except Exception:
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.waitpid(pid, 0)
        cal_s.append(calibrate())
    print(json.dumps({"imported_at": IMPORTED_AT, "import_s": IMPORT_S, "made": made, "cal_s": cal_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
