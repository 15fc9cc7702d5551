"""The package as its tools and documents see it: every name the benchmark harness wraps
must exist, every call it makes bind, the README's config must match the schema table and its commands run."""

import ast
import importlib
import inspect
import json
import shlex
from pathlib import Path

from epdyn import analysis, cli, propagation, serialize

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def readme_block(section: str, fence: str) -> str:
    """The first ```fence block under README's ``## section`` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"## {section}", 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


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


def test_the_exports_do_not_drift():
    # the package root imports exactly the __all__ of loops, model, presets
    # and propagation, and every module's __all__ names something it has
    src = ROOT / "src" / "epdyn"
    tree = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        node.module: {alias.name for alias in node.names} for node in tree.body if isinstance(node, ast.ImportFrom)
    }
    for name in ("loops", "model", "presets", "propagation"):
        assert imported[name] == set(importlib.import_module(f"epdyn.{name}").__all__), name
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module("epdyn" if path.stem == "__init__" else f"epdyn.{path.stem}")
        for entry in getattr(module, "__all__", ()):
            assert hasattr(module, entry), f"{module.__name__}.{entry}"


def test_workload_calls_bind_to_the_signatures():
    # the library calls perfbench's workloads make, by position and keyword as
    # they make them: a removed or reordered parameter fails here, not first in
    # a benchmark run. Binding checks names and arity only, so the arguments
    # are stand-ins
    params, loop, state, config, spec, traj, direction = (object() for _ in range(7))
    calls = [
        (propagation.propagate_direct, (params, loop, state, config), {"n_output": 8}),
        (propagation.propagate_adiabatic, (params, loop, state, config), {}),
        (propagation.track_branches, (params, loop, 4096), {}),
        (propagation.accumulated_phase, (params, loop, 50.0), {"n_samples": 8192}),
        (analysis.sweep, (spec, params, config), {"jobs": 1}),
        (analysis.final_state_report, (traj, direction), {}),
    ]
    bound = {f.__name__: inspect.signature(f).bind(*args, **kwargs).arguments for f, args, kwargs in calls}
    assert bound["track_branches"]["n_samples"] == 4096
    assert bound["accumulated_phase"]["t"] == 50.0


def test_readme_config_names_every_field_once(tmp_path):
    # the config under README's "Command line" loads, and names each field of
    # each section of the schema table once, so the documented schema cannot drift
    block = readme_block("Command line", "json")
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    cli.load_config(str(path))
    doc = json.loads(block, object_pairs_hook=list)  # keeps a repeated key
    assert [section for section, _ in doc] == list(serialize.SECTIONS)
    for section, pairs in doc:
        assert sorted(key for key, _ in pairs) == sorted(serialize.SECTIONS[section][1]), section


def test_readme_library_tour_runs():
    # the ```python block under README's "Library tour" runs as written, so the
    # documented calls cannot drift from the package's names and signatures
    block = readme_block("Library tour", "python")
    namespace = {}
    exec(compile(block, "README.md (Library tour)", "exec"), namespace)
    assert namespace["adia"].meta["method"] == "adiabatic"
    assert namespace["m"].steps > 0


def test_readme_commands_run(tmp_path, monkeypatch):
    # each ``epdyn`` line of README's "Command line" block exits 0 on the
    # config above it, so the documented commands and flags cannot drift
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(readme_block("Command line", "json"), encoding="utf-8")
    lines = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert len(lines) == 5
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "epdyn"
        assert cli.main(argv) == 0, line
    assert (tmp_path / "trajectory.csv").stat().st_size > 0
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8").count("\n") == 1 + 8 * 8
