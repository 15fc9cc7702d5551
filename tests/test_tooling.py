"""The benchmark harness's view of the package: every name it wraps must exist, every call it makes bind."""

import importlib
import inspect
from pathlib import Path

from epdyn import analysis, propagation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # perfbench's tracer wraps module.attr for each target and ends a traced
    # run in AttributeError (exit code 2) when a module no longer has the name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    targets = measure.targets()
    assert targets
    for target in targets:
        assert target.module.__name__.startswith("epdyn."), target.name
        assert callable(getattr(target.module, target.attr, None)), f"{target.module.__name__}.{target.attr}"


def test_workload_calls_bind_to_the_signatures():
    # the library calls perfbench's workloads make, by position and keyword as
    # they make them: a removed or reordered parameter fails here, not first in
    # a benchmark run. Binding checks names and arity only, so the arguments
    # are stand-ins
    params, loop, state, config, spec = (object() for _ in range(5))
    calls = [
        (propagation.propagate_direct, (params, loop, state, config), {"n_output": 8}),
        (propagation.propagate_adiabatic, (params, loop, state, config), {}),
        (propagation.track_branches, (params, loop, 4096), {}),
        (propagation.accumulated_phase, (params, loop, 50.0), {"n_samples": 8192}),
        (analysis.sweep, (spec, params, config), {"jobs": 1}),
    ]
    bound = {f.__name__: inspect.signature(f).bind(*args, **kwargs).arguments for f, args, kwargs in calls}
    assert bound["track_branches"]["n_samples"] == 4096
    assert bound["accumulated_phase"]["t"] == 50.0
