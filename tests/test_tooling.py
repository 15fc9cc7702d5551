"""The benchmark harness's view of the package: every name it wraps must exist."""

import importlib
from pathlib import Path

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
