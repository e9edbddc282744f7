"""perfbench/tracing.py replaces package attributes by name; each must exist,
or every traced benchmark run fails at its first getattr."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


@pytest.mark.parametrize("args, spans", [
    (["flight-baseline", "--samples", "50"],
     {"experiments.derive_rng", "flight.simulate_flight", "geometry.flow_xy"}),
    (["bg-convergence", "--r", "0.4,0.2", "--t", "2", "--samples", "100"],
     {"experiments.derive_rng", "geometry.flow_xy", "stats.bootstrap_half_width_w1"}),
])
def test_traced_cli_run_has_its_spans_and_restores_every_attribute(tmp_path, tracing, args, spans):
    # The spans perfbench's per-layer metrics read, on the calls a CLI run
    # makes; the package is as it was once the block ends.
    import hyperlorentz.cli as cli

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracing.TARGETS}
    rec = tracing.Recorder()
    with tracing.traced(rec):
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in originals.items())
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())
    assert spans <= {rec.names[i] for i in rec.arrays()["name"]}
