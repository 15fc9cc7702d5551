"""The package as its tools and documents see it: every name the benchmark harness wraps
must exist, every call it makes bind, and the README's config must match the schema table."""

import importlib
import inspect
import json
from pathlib import Path

from epdyn import analysis, cli, propagation, serialize

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_readme_config_names_every_field_once(tmp_path):
    # the config under README's "Command line" loads, and names each field of
    # each section of the schema table once, so the documented schema cannot drift
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    cli.load_config(str(path))
    doc = json.loads(block, object_pairs_hook=list)  # keeps a repeated key
    assert [section for section, _ in doc] == list(serialize.SECTIONS)
    for section, pairs in doc:
        assert sorted(key for key, _ in pairs) == sorted(serialize.SECTIONS[section][1]), section
