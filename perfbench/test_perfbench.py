"""Tests of the benchmark itself: repeatable counts and checks with teeth.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs one real pass (module-scoped, about 20 s in all); the
check tests then feed copies of those outputs to the checks with one
expectation or one output deliberately wrong, and require a flagged op.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import epdyn.analysis  # noqa: E402
import epdyn.cli  # noqa: E402
import epdyn.loops  # noqa: E402
import epdyn.propagation  # noqa: E402
from epdyn import DEFAULT_PARAMS, Direction, StateVector  # noqa: E402
from epdyn.presets import diode_control_loop, diode_loop, encircling_loop  # noqa: E402

import inputs  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

#: Reference counts at the acceptance tolerances: one CW diode traversal from
#: bare state 1, and one adiabatic encircling_loop(50, CW) run from bare
#: state 2 (criterion 08's run).
DIRECT_DIODE_RHS = 13186
ADIABATIC_T50_RHS = 3998
ADIABATIC_T50_HAMILTONIANS = 14113


def traced(tmp_path, fn):
    tracer = Tracer("test", str(tmp_path))
    tracer.install(measure.targets())
    root = tracer.begin("bench.pass")
    try:
        fn()
    finally:
        tracer.end(root)
        tracer.uninstall()
    tracer.merge_workers()
    return measure.pass_layers(tracer)


def counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if measure.LAYER_UNITS[k] == "count"}


# -- tracing -----------------------------------------------------------------


def test_direct_counts_repeat_and_match_reference(tmp_path):
    def run():
        epdyn.propagation.propagate_direct(
            DEFAULT_PARAMS, diode_loop(Direction.CW), StateVector.basis(1), workloads.ACCEPT
        )

    first, second = traced(tmp_path, run), traced(tmp_path, run)
    assert counts(first) == counts(second)
    assert first["propagation.direct.rhs_calls"] == DIRECT_DIODE_RHS
    assert first["loops.field_at.calls"] == DIRECT_DIODE_RHS
    assert first["propagation.propagate_direct.calls"] == 1


def test_adiabatic_counts_repeat_and_match_reference(tmp_path):
    def run():
        epdyn.propagation.propagate_adiabatic(
            DEFAULT_PARAMS, encircling_loop(50.0, Direction.CW), StateVector.basis(2), workloads.ACCEPT
        )

    first, second = traced(tmp_path, run), traced(tmp_path, run)
    assert counts(first) == counts(second)
    assert first["loops.velocity_at.calls"] == ADIABATIC_T50_RHS
    assert first["propagation.adiabatic.rhs_calls"] == ADIABATIC_T50_RHS
    assert first["model.build_hamiltonian.calls"] == ADIABATIC_T50_HAMILTONIANS


def test_pool_workers_report_the_same_counts_as_one_process(tmp_path):
    spec = epdyn.analysis.SweepSpec(
        template=diode_loop(Direction.CW),
        durations=(300.0,),
        amp_scales=(1.0, 1.2),
        direction=Direction.CCW,
    )

    def sweep(jobs):
        return lambda: epdyn.analysis.sweep(spec, DEFAULT_PARAMS, workloads.ACCEPT, jobs=jobs)

    serial, pooled = traced(tmp_path, sweep(1)), traced(tmp_path, sweep(2))
    assert pooled["propagation.propagate_direct.calls"] == 2
    assert counts(pooled) == counts(serial)
    assert not os.listdir(tmp_path)  # worker span files were merged and removed


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    originals = (epdyn.loops.field_at, epdyn.analysis.propagate_direct, epdyn.cli.main)
    traced(tmp_path, lambda: None)
    assert (epdyn.loops.field_at, epdyn.analysis.propagate_direct, epdyn.cli.main) == originals


def test_trace_report_flags_counts_that_differ_between_passes(tmp_path):
    first, second = Tracer("a", str(tmp_path)), Tracer("b", str(tmp_path))
    for tracer in (first, second):
        tracer.counters["propagation.records"] = 8
    problems: list = []
    measure.trace_report([first, second], [1.0, 1.0], [1.0, 1.0], object(), problems)
    assert problems == []
    second.counters["propagation.records"] = 9
    measure.trace_report([first, second], [1.0, 1.0], [1.0, 1.0], object(), problems)
    assert len(problems) == 1 and "propagation.records" in problems[0]


def test_self_time_subtracts_same_process_children_and_leaves():
    parent = Span("r", 1, None, 10, "a", 0.0, 10.0, {"leaf": [5, 1.0]})
    child = Span("r", 2, 1, 10, "b", 2.0, 5.0)
    worker = Span("r", 3, 1, 11, "c", 1.0, 9.0)  # another process: not covered
    selfs = self_times([parent, child, worker])
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(8.0)


# -- inputs ------------------------------------------------------------------


def test_inputs_follow_the_seed():
    assert inputs.make_inputs(5) == inputs.make_inputs(5)
    assert inputs.make_inputs(5) != inputs.make_inputs(6)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adiabatic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# -- checks with teeth ---------------------------------------------------------


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One real pass of every workload, run once for all check tests."""
    work = str(tmp_path_factory.mktemp("work"))
    seed_inputs = inputs.make_inputs(7)
    out = {}
    for name, cls in workloads.WORKLOAD_CLASSES.items():
        config = os.path.join(work, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(inputs.config_doc(seed_inputs, name), fh)
        wl = cls(seed_inputs, work, config)
        wl.prepare()
        ops = wl.run_pass(1)
        wl.check(ops)
        assert [op.error for op in ops if op.error] == []
        out[name] = (wl, ops)
    return out


def flagged(ops) -> int:
    return sum(op.error is not None for op in ops)


def recheck(passes, name):
    wl, ops = passes[name]
    fresh = copy.deepcopy(ops)
    for op in fresh:
        op.error = None
    return wl, fresh


def test_selectivity_flags_wrong_selected_state(passes, monkeypatch):
    wl, ops = recheck(passes, "selectivity")
    monkeypatch.setattr(workloads, "SELECTED", {Direction.CW: 2, Direction.CCW: 1})
    wl.check(ops)
    assert flagged(ops) == len(ops)


def test_selectivity_flags_ratio_below_threshold(passes, monkeypatch):
    wl, ops = recheck(passes, "selectivity")
    monkeypatch.setattr(workloads, "RATIO_MIN", 1e30)
    wl.check(ops)
    assert flagged(ops[:4]) == 4


def test_selectivity_flags_unswapped_table(passes):
    wl, ops = recheck(passes, "selectivity")
    table = ops[0].data["result"]
    ops[0].data["result"] = type(table)(rows=table.rows, swapped=False)
    wl.check(ops)
    assert flagged(ops[:4]) == 4


def test_selectivity_flags_wrong_disagreement_count(passes):
    wl, ops = recheck(passes, "selectivity")
    table = ops[0].data["result"]
    agreeing = tuple(replace(row, adiabatic_final=row.exact_final) for row in table.rows)
    ops[0].data["result"] = type(table)(rows=agreeing, swapped=table.swapped)
    wl.check(ops)
    assert flagged(ops[:4]) == 4
    assert "disagreements 0 != 2" in ops[0].error


@pytest.mark.parametrize("corrupt", ["nan", "gain"])
def test_adiabatic_flags_nonfinite_or_growing_state(passes, corrupt):
    wl, ops = recheck(passes, "adiabatic")
    traj = ops[0].data["result"]
    if corrupt == "nan":
        states = traj.states.copy()
        states[-1, 0] = np.nan
        ops[0].data["result"] = replace(traj, states=states)
    else:  # survival above 1: the final norm exceeds the initial one
        log_scale = traj.log_scale.copy()
        log_scale[-1] += 50.0
        ops[0].data["result"] = replace(traj, log_scale=log_scale)
    wl.check(ops)
    assert [op.name for op in ops if op.error] == [ops[0].name]


def test_adiabatic_flags_phase_product(passes, monkeypatch):
    wl, ops = recheck(passes, "adiabatic")
    monkeypatch.setattr(workloads, "PHASE_PRODUCT_TOL", 0.0)
    wl.check(ops)
    assert [op.name for op in ops if op.error] == ["phase", "phase"]


def test_adiabatic_flags_unswapped_branches(passes):
    wl, ops = recheck(passes, "adiabatic")
    ops[-1].data["result"] = epdyn.propagation.track_branches(
        DEFAULT_PARAMS, diode_control_loop(Direction.CW), 1024
    )
    wl.check(ops)
    assert [op.name for op in ops if op.error] == ["track_branches"]


def test_adiabatic_cross_check_flags_disagreement(passes, monkeypatch):
    wl, ops = recheck(passes, "adiabatic")
    assert wl.check_run([ops]) == []
    monkeypatch.setattr(workloads, "CROSS_FIDELITY", 2.0)  # unreachable
    assert len(wl.check_run([ops])) == 2 * inputs.N_ADIABATIC_STATES


def test_trajectory_flags_wrong_dominant_state(passes, monkeypatch):
    wl, ops = recheck(passes, "trajectory")
    monkeypatch.setattr(workloads, "SELECTED", {Direction.CW: 2, Direction.CCW: 1})
    wl.check(ops)
    assert flagged(ops) == 2


def test_trajectory_flags_row_count(passes, monkeypatch):
    wl, ops = recheck(passes, "trajectory")
    monkeypatch.setattr(workloads, "TRAJECTORY_N_OUTPUT", 4095)
    wl.check(ops)
    assert flagged(ops) == 2


def test_trajectory_flags_nonzero_exit_code(passes):
    wl, ops = recheck(passes, "trajectory")
    _, stdout = ops[1].data["result"]
    ops[1].data["result"] = (1, stdout)
    wl.check(ops)
    assert [op.error for op in ops] == [None, "exit code 1"]


def test_trajectory_flags_changed_bytes(passes):
    wl, ops = recheck(passes, "trajectory")
    wl.check(ops)
    other = copy.deepcopy(ops)
    other[0].data["digest"] = "0" * 64
    assert wl.check_run([ops, ops]) == []
    assert len(wl.check_run([ops, other])) == 1


def test_sweep_flags_baseline_mismatch(passes):
    wl, ops = recheck(passes, "sweep")
    saved = wl.baseline
    cells = list(saved.cells)
    cells[5] = replace(cells[5], dominant_state=3 - cells[5].dominant_state)
    wl.baseline = type(saved)(spec=saved.spec, cells=tuple(cells))
    try:
        wl.check(ops)
    finally:
        wl.baseline = saved
    assert [op.name for op in ops if op.error] == ["cell-1-1"]


def test_sweep_flags_nonzero_exit_code(passes):
    wl, ops = recheck(passes, "sweep")
    ops[0].data["result"] = (1, "")
    wl.check(ops)
    assert [op.name for op in ops if op.error] == ["sweep-cli"]


def test_sweep_flags_cell_error(passes, tmp_path, monkeypatch):
    wl, ops = recheck(passes, "sweep")
    with open(wl.csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    for row in rows:
        if (row["i"], row["j"]) == ("2", "3"):
            row["error"] = "IntegrationError: step size too small"
    broken = tmp_path / "sweep.csv"
    with open(broken, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    monkeypatch.setattr(wl, "csv_path", str(broken))
    wl.check(ops)
    errors = {op.name: op.error for op in ops if op.error}
    assert list(errors) == ["cell-2-3"]
    assert errors["cell-2-3"].startswith("cell error: IntegrationError")


def test_sweep_flags_changed_bytes(passes):
    wl, ops = recheck(passes, "sweep")
    wl.check(ops)
    other = copy.deepcopy(ops)
    other[0].data["digest"] = "0" * 64
    assert wl.check_run([ops, ops]) == []
    assert len(wl.check_run([ops, other])) == 1

