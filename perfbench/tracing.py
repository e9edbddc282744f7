"""Spans around the calls into hyperlorentz's modules, recorded from outside.

The package is not edited: ``patched`` replaces module attributes with
timing wrappers for the length of a ``with`` block and puts the original
objects back on exit.  A wrapper replaces a function where its caller
imported it, so ``hyperlorentz.billiard.mobius_xy`` times only the hit-solve
transform and not every Mobius map in the package.

A span is ``[name index, parent span, start ns, end ns, units]``.  Units is
the work the call did, read from its result: points for samplers, elements
for array kernels, events for trajectories, 1 otherwise.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

import numpy as np


def _one(out) -> int:
    return 1


def _rows(out) -> int:
    return len(out)


def _elements(out) -> int:
    return int(np.size(out[0]))


def _events(out) -> int:
    return len(out.events)


# (module whose attribute is replaced, attribute, span name, units of the result)
TARGETS = (
    ("hyperlorentz.cli", "run_experiment", "experiments.run_experiment", _one),
    ("hyperlorentz.experiments", "_derive_rng", "experiments.derive_rng", _one),
    ("hyperlorentz.experiments", "sample_first_collision", "billiard.sample_first_collision", _one),
    ("hyperlorentz.experiments", "sample_field", "obstacles.sample_field", _rows),
    ("hyperlorentz.experiments", "simulate", "billiard.simulate", _events),
    ("hyperlorentz.experiments", "position_at", "billiard.position_at", _one),
    ("hyperlorentz.experiments", "recollision_count", "billiard.recollision_count", _one),
    ("hyperlorentz.experiments", "hyp_distance", "geometry.hyp_distance", _one),
    ("hyperlorentz.experiments", "simulate_flight", "flight.simulate_flight", _events),
    ("hyperlorentz.experiments", "ks_statistic", "stats.ks_statistic", _one),
    ("hyperlorentz.experiments", "wasserstein1", "stats.wasserstein1", _one),
    ("hyperlorentz.experiments", "bootstrap_half_width_w1", "stats.bootstrap_half_width_w1", _one),
    ("hyperlorentz.billiard", "sample_annulus", "obstacles.sample_annulus", _rows),
    ("hyperlorentz.billiard", "mobius_xy", "geometry.mobius_xy", _elements),
    ("hyperlorentz.billiard", "flow_xy", "geometry.flow_xy", _elements),
    ("hyperlorentz.obstacles", "flow_xy", "geometry.flow_xy", _elements),
    ("hyperlorentz.flight", "flow_xy", "geometry.flow_xy", _elements),
)

ROOT_SPAN = "cli.main"


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._open = [-1]

    def wrap(self, name: str, fn, units=_one):
        code = self._index.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [code, open_[-1], 0, 0, 1]
            open_.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            span[4] = units(out)
            return out

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        a = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {
            "names": np.array(self.names),
            "name": a[:, 0],
            "parent": a[:, 1],
            "start": a[:, 2],
            "end": a[:, 3],
            "units": a[:, 4],
        }


@contextlib.contextmanager
def patched(targets):
    """Replace each (module, attribute) with ``make(original)`` inside the block.

    ``targets`` yields (module name, attribute, make).  Originals are restored
    in reverse order on exit, also when the block raises.
    """
    saved = []
    try:
        for module_name, attr, make in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield saved
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced(recorder: Recorder):
    """Wrap every function in TARGETS so that its calls land in ``recorder``."""
    return patched(
        (module, attr, functools.partial(recorder.wrap, name, units=units))
        for module, attr, name, units in TARGETS
    )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it: the covered time is the sum of the child durations.
    """
    dur = (end - start).astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered.astype(np.int64)


@dataclass
class Span:
    """Totals over a set of spans."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: int = 0
    max_units: int = 0

    def __iadd__(self, other: "Span") -> "Span":
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.units += other.units
        self.max_units = max(self.max_units, other.max_units)
        return self


def aggregate(spans: dict[str, np.ndarray], into: dict[tuple[str, str], Span]) -> None:
    """Add each span to the totals of its (parent name, name) in ``into``.

    The parent name of a top-level span is "".
    """
    names = list(spans["names"])
    name, parent, units = spans["name"], spans["parent"], spans["units"]
    own = self_times(parent, spans["start"], spans["end"])
    dur = spans["end"] - spans["start"]
    for i in range(len(name)):
        p = parent[i]
        key = (names[name[p]] if p >= 0 else "", names[name[i]])
        row = into.setdefault(key, Span())
        row += Span(1, int(dur[i]), int(own[i]), int(units[i]), int(units[i]))
