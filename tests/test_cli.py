"""Command-line interface: config validation, subcommands, exit codes."""

import contextlib
import io
import json
import logging
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import config_reference
import epdyn
from epdyn import DEFAULT_PARAMS, FieldPoint, IntegratorConfig, StateVector, StaticDrive, propagate_direct
from epdyn.cli import load_config, main
from epdyn.errors import ConfigError
from epdyn.serialize import trajectory_to_json

BASE_CONFIG = {
    "system": {"e1": 0.0, "e2": 1.0, "gamma1": 0.1, "gamma2": 0.3, "d12_re": 1.0, "d12_im": 0.0},
    "loop": {
        "center_omega": 1.0,
        "center_eps0": 0.2,
        "semi_axis_omega": 0.05,
        "semi_axis_eps": 0.05,
        "direction": "ccw",
        "duration_T": 10.0,
        "start_phase": 0.0,
    },
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-12, "max_step": 1.0, "initial_step": 0.01},
    "initial": {"c1_re": 1.0, "c1_im": 0.0, "c2_re": 0.0, "c2_im": 0.0},
}


def write_config(tmp_path, doc=None, name="config.json"):
    doc = BASE_CONFIG if doc is None else doc
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def patched(overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for section, fields in overrides.items():
        if fields is None:
            doc.pop(section, None)
        else:
            doc.setdefault(section, {}).update(fields)
    return doc


class TestConfigValidation:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(path), "locate-ep"]) == 1
        assert "config" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        doc = patched({"system": {"gamma3": 1.0}})
        assert main(["--config", write_config(tmp_path, doc), "locate-ep"]) == 1
        assert "system.gamma3" in capsys.readouterr().err

    def test_unknown_section_named(self, tmp_path, capsys):
        doc = patched({})
        doc["extras"] = {}
        assert main(["--config", write_config(tmp_path, doc), "locate-ep"]) == 1
        assert "extras" in capsys.readouterr().err

    def test_invariant_violation_names_field(self, tmp_path, capsys):
        doc = patched({"system": {"gamma1": -0.5}})
        assert main(["--config", write_config(tmp_path, doc), "locate-ep"]) == 1
        assert "gamma1" in capsys.readouterr().err

    def test_bad_loop_geometry_names_field(self, tmp_path, capsys):
        doc = patched({"loop": {"semi_axis_eps": 0.5}})  # exceeds center_eps0
        assert main(["--config", write_config(tmp_path, doc), "winding"]) == 1
        err = capsys.readouterr().err
        assert "loop" in err and "eps" in err

    def test_missing_loop_section(self, tmp_path, capsys):
        doc = patched({"loop": None})
        assert main(["--config", write_config(tmp_path, doc), "winding"]) == 1
        assert "loop" in capsys.readouterr().err

    # validation runs before any propagation, so a non-finite value cannot
    # reach a solver loop, where an infinite duration_T never terminates
    @pytest.mark.parametrize(
        "section, key, value, command",
        [
            ("loop", "duration_T", math.nan, "winding"),
            ("system", "gamma1", math.nan, "locate-ep"),
            ("integrator", "rel_tol", math.nan, "simulate"),
            ("loop", "duration_T", math.inf, "simulate"),
            ("loop", "center_omega", math.inf, "winding"),
            ("loop", "center_omega", 10**400, "winding"),
        ],
        ids=["nan-duration", "nan-gamma1", "nan-rel_tol", "inf-duration", "inf-center", "huge-int"],
    )
    def test_non_finite_number_names_field(self, tmp_path, capsys, section, key, value, command):
        doc = patched({section: {key: value}})
        out = tmp_path / "traj.csv"
        code = main(["--config", write_config(tmp_path, doc), "--output", str(out), command])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "finite" in err
        assert not out.exists()

    def test_section_not_an_object_named(self, tmp_path, capsys):
        doc = patched({})
        doc["system"] = [1, 2]
        assert main(["--config", write_config(tmp_path, doc), "locate-ep"]) == 1
        err = capsys.readouterr().err
        assert "'system'" in err and "JSON object" in err


class TestLocateEP:
    def test_prints_closed_form(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path), "locate-ep"]) == 0
        out = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["omega_ep"]) == 1.0
        assert float(fields["eps0_ep"]) == pytest.approx(0.2, abs=1e-15)
        assert float(fields["residual"]) < 1e-12

    def test_imaginary_dipole_exit_2(self, tmp_path, capsys):
        doc = patched({"system": {"d12_re": 0.0, "d12_im": 1.0}})
        assert main(["--config", write_config(tmp_path, doc), "locate-ep"]) == 2
        assert "NoFiniteEP" in capsys.readouterr().err

    def test_works_without_loop_section(self, tmp_path):
        doc = patched({"loop": None})
        assert main(["--config", write_config(tmp_path, doc), "locate-ep"]) == 0

    @pytest.mark.parametrize("command", ["locate-ep", "winding"])
    def test_unresolvable_ep_exit_2(self, tmp_path, capsys, command):
        # at e1 = 1e20 the closed-form EP leaves a discriminant residual of ~1
        doc = patched({"system": {"e1": 1e20}})
        assert main(["--config", write_config(tmp_path, doc), command]) == 2
        err = capsys.readouterr().err
        assert "NoFiniteEP" in err and "residual" in err


class TestSimulate:
    def test_writes_trajectory_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        doc = patched({"loop": {"center_eps0": 0.35}})  # keep clear of the EP
        code = main(
            ["--config", write_config(tmp_path, doc), "--output", str(out), "simulate"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) >= 513 + 1
        assert lines[0].startswith("t,re_c1")
        summary = capsys.readouterr().out.strip()
        assert "dominant=" in summary and "survival=" in summary

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write_config(tmp_path)
        doc = patched({"loop": {"center_eps0": 0.35}})
        cfg = write_config(tmp_path, doc)
        main(["--config", cfg, "--output", str(out1), "simulate"])
        main(["--config", cfg, "--output", str(out2), "simulate"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_adiabatic_on_ep_touching_contour_exit_3(self, tmp_path, capsys):
        # contour passes through the EP at (1, 0.2)
        doc = patched({"loop": {"center_eps0": 0.25}})
        out = tmp_path / "traj.csv"
        code = main(
            [
                "--config",
                write_config(tmp_path, doc),
                "--output",
                str(out),
                "simulate",
                "--method",
                "adiabatic",
            ]
        )
        assert code == 3
        assert "EPOnContour" in capsys.readouterr().err

    def test_direction_override(self, tmp_path, capsys):
        doc = patched({"loop": {"center_eps0": 0.35}})
        out = tmp_path / "t.csv"
        main(["--config", write_config(tmp_path, doc), "--output", str(out), "simulate", "--direction", "cw"])
        assert "direction=cw" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        doc = patched({"loop": {"center_eps0": 0.35}})
        out = tmp_path / "traj.json"
        main(
            [
                "--config",
                write_config(tmp_path, doc),
                "--output",
                str(out),
                "--format",
                "json",
                "simulate",
                "--n-output",
                "32",
            ]
        )
        parsed = json.loads(out.read_text())
        assert parsed["meta"]["method"] == "direct"
        assert len(parsed["rows"]) >= 33

    def test_missing_output_path(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path), "simulate"]) == 1
        assert "output.path" in capsys.readouterr().err

    def test_too_few_output_intervals_exit_1(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        argv = ["--config", write_config(tmp_path), "--output", str(out), "simulate", "--n-output", "1"]
        assert main(argv) == 1
        assert "--n-output" in capsys.readouterr().err
        assert not out.exists()


class TestOutputPath:
    # a path that cannot be opened for writing is a config error naming the
    # field, on every command that writes a file; table1 writes "" too
    COMMANDS = [["simulate", "--n-output", "8"], ["table1"], ["--jobs", "1", "sweep", "--t-min", "10"]]

    @pytest.mark.parametrize("argv", COMMANDS, ids=["simulate", "table1", "sweep"])
    @pytest.mark.parametrize(
        "path, flag",
        [("", False), (".", False), ("missing/out", False), (".", True), ("missing/out", True)],
        ids=["empty", "directory", "missing-directory", "directory-flag", "missing-directory-flag"],
    )
    def test_unopenable_path_exits_1(self, tmp_path, capsys, argv, path, flag):
        path = str(tmp_path / path) if path else path
        doc = patched({"integrator": {"rel_tol": 1e-8}, "output": {} if flag else {"path": path}})
        config = write_config(tmp_path, doc)
        assert main(["--config", config, *(["--output", path] if flag else []), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: field 'output.path' (or --output) cannot be opened for writing")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()


class TestTable1:
    def test_non_encircling_exit_4(self, tmp_path, capsys):
        doc = patched({"loop": {"center_eps0": 0.5}})
        assert main(["--config", write_config(tmp_path, doc), "table1"]) == 4

    def test_renders_four_rows(self, tmp_path, capsys):
        doc = patched({"integrator": {"rel_tol": 1e-8}})
        assert main(["--config", write_config(tmp_path, doc), "table1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split()[0] == "direction"
        assert len(out) == 6

    def test_json_round_trip(self, tmp_path, capsys):
        from epdyn.serialize import table_from_json, table_to_text

        doc = patched({"integrator": {"rel_tol": 1e-8}})
        cfg = write_config(tmp_path, doc)
        assert main(["--config", cfg, "table1"]) == 0
        text = capsys.readouterr().out
        assert main(["--config", cfg, "--format", "json", "table1"]) == 0
        rebuilt = table_from_json(capsys.readouterr().out)
        assert table_to_text(rebuilt) == text


class TestWinding:
    def test_encircling(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path), "winding"]) == 0
        out = capsys.readouterr().out
        assert "winding=-1" in out and "rho=" in out

    def test_non_encircling(self, tmp_path, capsys):
        doc = patched({"loop": {"center_eps0": 0.5}})
        assert main(["--config", write_config(tmp_path, doc), "winding"]) == 0
        assert "winding=0" in capsys.readouterr().out

    def test_ep_on_contour_exit_3(self, tmp_path, capsys):
        doc = patched({"loop": {"center_eps0": 0.25}})
        assert main(["--config", write_config(tmp_path, doc), "winding"]) == 3
        assert "EPOnContour" in capsys.readouterr().err

    def test_too_few_samples_exit_1(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path), "winding", "--n-samples", "10"]) == 1
        assert "--n-samples" in capsys.readouterr().err


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging: raise TimeoutError after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestStepBudget:
    @pytest.mark.parametrize("method", ["direct", "adiabatic"])
    def test_huge_duration_exits_3(self, tmp_path, capsys, method):
        # duration_T = 1e300 used to run until killed. The direct route stops
        # at the step budget; the adiabatic route's step maps overflow float64
        # at every step count up to its cap: no step fits
        doc = with_field("loop", "duration_T", 1e300)
        doc["output"]["path"] = str(tmp_path / "out.csv")
        start = time.perf_counter()
        with time_limit(20):
            code = main(["--config", write_config(tmp_path, doc), "simulate", "--method", method])
        assert code == 3
        assert time.perf_counter() - start < 5.0
        reason = {"direct": "over the budget", "adiabatic": "no step fits"}[method]
        err = capsys.readouterr().err
        assert "error: StepBudgetError: " in err and reason in err

    @pytest.mark.parametrize("argv", [["table1"], ["sweep", "--t-min", "600"]], ids=["table1", "sweep"])
    def test_map_past_the_float64_floor_exits_3(self, tmp_path, capsys, argv):
        # at T = 600 no step count settles the diode map (rounding moves it by
        # more than 1e-3): the doubling stops where the change stalls, naming the loop
        doc = with_field("loop", "duration_T", 600.0)
        doc["output"]["path"] = str(tmp_path / "out.csv")
        start = time.perf_counter()
        with time_limit(20):
            code = main(["--config", write_config(tmp_path, doc), *argv])
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if argv[0] == "table1":
            assert code == 3
            assert "error: StepBudgetError: the traversal map of LoopSpec(" in err and "duration_T=600.0" in err
        else:  # the sweep records it in the cell; every cell failed
            assert code == 5
            assert "StepBudgetError: the traversal map of LoopSpec(" in (tmp_path / "out.csv").read_text()

    @pytest.mark.parametrize(
        "argv, name",
        [(["table1"], "traversal map"), (["simulate", "--method", "adiabatic"], "eigenframe map")],
        ids=["table1", "adiabatic"],
    )
    def test_stalled_map_exits_3_early(self, tmp_path, capsys, monkeypatch, argv, name):
        # at T = 600 the diode map's change stalls above 1e-3 once every step
        # is resolved (1024 steps): the doubling stops there, not at 2^17 steps
        from epdyn import traversal

        spent = []
        real = traversal._intervals

        def timed(*args):
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                spent.append(time.perf_counter() - start)

        monkeypatch.setattr(traversal, "_intervals", timed)
        doc = with_field("loop", "duration_T", 600.0)
        doc["output"]["path"] = str(tmp_path / "out.csv")
        assert main(["--config", write_config(tmp_path, doc), *argv]) == 3
        err = capsys.readouterr().err
        assert f"error: StepBudgetError: the {name} of LoopSpec(" in err
        assert "does not settle in float64: its change stalled at" in err and "at 1024 steps" in err
        assert sum(spent) < 0.1, spent

    def test_large_detuning_is_bounded_work(self, tmp_path, capsys):
        # with e1 = 18 the splitting is about 9: the eigenframe steps resolve
        # it only from 2048 steps on, and the run still ends in well under 1 s
        doc = with_field("system", "e1", 18.0)
        doc["output"]["path"] = str(tmp_path / "out.csv")
        start = time.perf_counter()
        code = main(["--config", write_config(tmp_path, doc), "simulate", "--method", "adiabatic"])
        assert time.perf_counter() - start < 1.0
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["direct", "adiabatic"])
    def test_tiny_initial_step_completes(self, tmp_path, method):
        # a short first step is no runaway: the budget must not stop the README run
        doc = with_field("integrator", "initial_step", 1e-12)
        doc["output"]["path"] = str(tmp_path / "out.csv")
        assert main(["--config", write_config(tmp_path, doc), "simulate", "--method", method]) == 0

    @pytest.mark.parametrize("method", ["direct", "adiabatic"])
    def test_underflowing_initial_state_completes(self, tmp_path, capsys, method):
        # |c|^2 of c1 = 1e-200 underflows to 0; the run printed survival=nan
        # over nan rows (direct) or ended in a ZeroDivisionError (adiabatic)
        survivals = []
        for c1 in (1e-200, 1.0):
            doc = with_field("initial", "c1_re", c1)
            doc["initial"]["c2_re"] = 0.0
            doc["output"]["path"] = str(tmp_path / f"{c1}.csv")
            assert main(["--config", write_config(tmp_path, doc), "simulate", "--method", method]) == 0
            survivals.append(float(capsys.readouterr().out.split("survival=")[1]))
            rows = Path(doc["output"]["path"]).read_text().splitlines()[1:]
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
        assert survivals[0] == pytest.approx(survivals[1], rel=1e-12, abs=0.0)



@pytest.mark.parametrize(
    "duration, argv",
    [
        (1e-320, ["simulate"]),
        (1e-320, ["simulate", "--method", "adiabatic"]),
        (348.75, ["--jobs", "1", "sweep", "--t-min", "1e-320"]),
        (1e-305, ["simulate", "--method", "adiabatic"]),
    ],
    ids=["direct", "adiabatic", "sweep", "adiabatic-subnormal-steps"],
)
def test_subnormal_duration_names_field(tmp_path, capsys, duration, argv):
    # 2*pi/T overflows below T = 3.5e-308: the loop is rejected up front
    # (simulate ended in a traceback from math.sin(inf), a sweep cell in an
    # error). The adiabatic route's steps T/2^17 are subnormal below about
    # T = 2.9e-303, which it also reports as a config error (it was a traceback)
    doc = with_field("loop", "duration_T", duration)
    doc["output"]["path"] = str(tmp_path / "out.csv")
    assert main(["--config", write_config(tmp_path, doc), *argv]) == 1
    assert "duration_T is too small" in capsys.readouterr().err


class TestSweep:
    # a one-point grid is bound-checked like a longer one; unchecked, a
    # non-positive value raises inside the sweep, inf never ends, nan fails late
    @pytest.mark.parametrize(
        "flags, what",
        [
            (["--t-min", "-5", "--nt", "1"], "duration"),
            (["--t-min", "0", "--nt", "1"], "duration"),
            (["--t-min", "inf", "--nt", "1"], "duration"),
            (["--t-min", "nan", "--nt", "1"], "duration"),
            (["--t-min", "10", "--amp-min", "0", "--namp", "1"], "amplitude"),
        ],
        ids=["negative-t", "zero-t", "inf-t", "nan-t", "zero-amp"],
    )
    def test_one_point_grid_bounds_checked(self, tmp_path, capsys, flags, what):
        out = tmp_path / "sweep.csv"
        argv = ["--config", write_config(tmp_path), "--output", str(out), "--jobs", "1", "sweep"]
        with time_limit(20):
            code = main(argv + flags)
        assert code == 1
        assert f"{what} grid" in capsys.readouterr().err
        assert not out.exists()

    # a NaN threshold passes a "<= 0" test and then fails every cell's check;
    # a NaN phase makes no initial state, which every cell would report
    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--ratio-min", "nan"], "--ratio-min"),
            (["--ratio-min", "inf"], "--ratio-min"),
            (["--survival-levels", "nan,0.1"], "--survival-levels"),
            (["--survival-levels", "abc"], "--survival-levels"),
            (["--survival-levels", "0.1,,0.01"], "--survival-levels"),
            (["--initial-phase", "nan"], "--initial-phase"),
            (["--initial-phase", "inf"], "--initial-phase"),
        ],
        ids=["nan-ratio", "inf-ratio", "nan-level", "abc-level", "empty-level", "nan-phase", "inf-phase"],
    )
    def test_non_finite_option_names_its_flag(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "sweep.csv"
        argv = ["--config", write_config(tmp_path), "--output", str(out), "--jobs", "1", "sweep", "--t-min", "10"]
        with time_limit(20):
            code = main(argv + flags)
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_matches_simulate_summary(self, tmp_path, capsys):
        # the cell's map against a direct run at rel_tol 1e-12, within the
        # map's floor plus that tolerance
        from epdyn.traversal import traversal_maps

        doc = patched({"loop": {"center_eps0": 0.35}, "initial": {"c1_re": 1.0, "c2_re": 1.0}})
        cfg = write_config(tmp_path, doc)
        fine = patched({"loop": {"center_eps0": 0.35}, "initial": {"c1_re": 1.0, "c2_re": 1.0},
                        "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-15}})
        traj_out = tmp_path / "traj.csv"
        main(["--config", write_config(tmp_path, fine, "fine.json"), "--output", str(traj_out), "simulate"])
        summary = capsys.readouterr().out
        ratio_sim = float(dict(kv.split("=") for kv in summary.split())["ratio"])

        sweep_out = tmp_path / "sweep.csv"
        code = main(
            [
                "--config",
                cfg,
                "--output",
                str(sweep_out),
                "--jobs",
                "1",
                "sweep",
                "--t-min",
                "10.0",
                "--nt",
                "1",
                "--namp",
                "1",
                "--dominant-target",
                "any",
                "--ratio-min",
                "2.0",
            ]
        )
        assert code == 0
        lines = sweep_out.read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        loop = epdyn.cli.load_config(cfg).loop
        (tmap,) = traversal_maps(epdyn.DEFAULT_PARAMS, [loop], BASE_CONFIG["integrator"]["rel_tol"])
        assert float(row["ratio"]) == pytest.approx(ratio_sim, rel=tmap.floor + 1e-12)
        # the equal superposition comes from the config's initial section
        assert row["error"] == ""

    def test_interrupted_run_leaves_valid_partial_csv(self, tmp_path, monkeypatch):
        import epdyn.analysis as analysis_mod

        real_run_batch = analysis_mod._run_batch
        calls = []

        def exploding_run_batch(*args):
            if len(calls) >= 1:
                raise KeyboardInterrupt
            calls.append(1)
            return real_run_batch(*args)

        monkeypatch.setattr(analysis_mod, "_run_batch", exploding_run_batch)
        monkeypatch.setattr(analysis_mod, "_BATCH_LOOPS", 2)  # the 2x2 grid in two batches
        doc = patched({"loop": {"center_eps0": 0.35}})
        out = tmp_path / "partial.csv"
        with pytest.raises(KeyboardInterrupt):
            main(
                [
                    "--config",
                    write_config(tmp_path, doc),
                    "--output",
                    str(out),
                    "--jobs",
                    "1",
                    "sweep",
                    "--t-min",
                    "5.0",
                    "--t-max",
                    "10.0",
                    "--nt",
                    "2",
                    "--amp-min",
                    "0.8",
                    "--amp-max",
                    "1.2",
                    "--namp",
                    "2",
                    "--dominant-target",
                    "any",
                ]
            )
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header plus the finished batch's two cells
        assert lines[0].startswith("i,j,")
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "0"], ["0", "1"]]

    def test_grid_csv_layout_and_progress(self, tmp_path, capsys):
        doc = patched({"loop": {"center_eps0": 0.35}})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "--config",
                cfg,
                "--output",
                str(out),
                "--jobs",
                "1",
                "sweep",
                "--t-min",
                "5.0",
                "--t-max",
                "10.0",
                "--nt",
                "2",
                "--amp-min",
                "0.8",
                "--amp-max",
                "1.2",
                "--namp",
                "2",
                "--dominant-target",
                "any",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("done") == 4
        assert err.splitlines()[0] == "cell (0,0) done steps=512 frame=eigen"
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[:2] == ["0", "0"]
        assert lines[4].split(",")[:2] == ["1", "1"]

    def test_progress_is_logged_once_per_call(self, tmp_path, capsys, caplog):
        # the lines go through the "epdyn.cli" logger; main's own handler
        # prints them and leaves with the call, so a second call prints once
        cfg = write_config(tmp_path, patched({"loop": {"center_eps0": 0.35}}))
        argv = ["--config", cfg, "--output", str(tmp_path / "sweep.csv"), "--jobs", "1", "sweep"]
        argv += ["--t-min", "5.0", "--t-max", "10.0", "--nt", "2", "--dominant-target", "any"]
        lines = ["cell (0,0) done steps=512 frame=eigen", "cell (1,0) done steps=512 frame=eigen"]
        with caplog.at_level(logging.INFO, logger="epdyn.cli"):
            for _ in range(2):
                assert main(argv) == 0
                assert capsys.readouterr().err == "".join(line + "\n" for line in lines)
        logged = [r.getMessage() for r in caplog.records if r.name == "epdyn.cli"]
        assert logged == lines * 2
        assert logging.getLogger("epdyn.cli").handlers == []


# -- fuzzing ------------------------------------------------------------------

#: the diode configuration from the README
DIODE_CONFIG = {
    "system": {"e1": 0.0, "e2": 1.0, "gamma1": 0.1, "gamma2": 0.3, "d12_re": 1.0, "d12_im": 0.0},
    "loop": {
        "center_omega": 0.92005,
        "center_eps0": 0.64976,
        "semi_axis_omega": 2.02446,
        "semi_axis_eps": 0.64973,
        "direction": "cw",
        "duration_T": 348.75,
        "start_phase": 4.35017,
    },
    "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-14, "max_step": 10.0, "initial_step": 0.01},
    "initial": {"c1_re": 0.0, "c1_im": 0.0, "c2_re": 1.0, "c2_im": 0.0},
    "output": {"path": "trajectory.csv", "format": "csv"},
}

FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 0, -1, -0.5, 5e-324, 1e308, -1e308]),
    st.floats(),
)

FIELDS = [(section, key) for section, fields in DIODE_CONFIG.items() for key in fields]


@st.composite
def mutated_configs(draw):
    doc = json.loads(json.dumps(DIODE_CONFIG))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "drop", "add", "section"]))
        section, key = draw(st.sampled_from(FIELDS))
        if op == "section":
            doc[section] = draw(st.one_of(st.just(None), FIELD_VALUES))
            if doc[section] is None and draw(st.booleans()):
                del doc[section]
        elif op == "add":
            target = doc if draw(st.booleans()) else doc.get(section)
            if isinstance(target, dict):
                target[draw(st.text(min_size=1, max_size=6))] = draw(FIELD_VALUES)
        elif isinstance(doc.get(section), dict):
            if op == "drop":
                doc[section].pop(key, None)
            else:
                doc[section][key] = draw(FIELD_VALUES)
    return doc


def with_field(section, key, value):
    doc = json.loads(json.dumps(DIODE_CONFIG))
    doc[section][key] = value
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated_configs(), command=st.sampled_from(["locate-ep", "winding"]))
@example(doc=with_field("system", "e1", 1e20), command="locate-ep")
@example(doc=with_field("system", "e1", 1e20), command="winding")
@example(doc=with_field("loop", "duration_T", math.nan), command="winding")
@example(doc=with_field("system", "d12_re", 5e-324), command="locate-ep")  # EP amplitude inf
@example(doc=with_field("system", "e1", 1e200), command="winding")  # discriminant overflows
def test_main_exits_cleanly_on_mutated_config(doc, command):
    # locate-ep and winding do bounded work, so every config must end in an
    # exit code of the CLI contract, never in a traceback or a hang
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with time_limit(20):
            code = main(["--config", path, command])
    assert code in range(6)


PROPAGATING_COMMANDS = [
    ["simulate", "--method", "direct", "--n-output", "8"],
    ["simulate", "--method", "adiabatic", "--n-output", "8"],
    ["table1"],
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated_configs(), argv=st.sampled_from(PROPAGATING_COMMANDS))
@example(doc=with_field("loop", "duration_T", 1e300), argv=PROPAGATING_COMMANDS[1])  # floor above cap
@example(doc=with_field("integrator", "max_step", 5e-324), argv=PROPAGATING_COMMANDS[0])
@example(doc=with_field("initial", "c2_re", 1e308), argv=PROPAGATING_COMMANDS[0])  # |c|^2 overflows
@example(doc=with_field("loop", "duration_T", 5e-324), argv=PROPAGATING_COMMANDS[0])  # 2*pi/T overflows
@example(doc=with_field("loop", "center_omega", 5.0), argv=PROPAGATING_COMMANDS[2])  # EP outside
def test_propagating_commands_exit_cleanly_on_mutated_config(doc, argv):
    # simulate and table1 propagate, and the step budget bounds their work,
    # so every config must end in an exit code of the CLI contract too
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with time_limit(20):
            code = main(["--config", path, "--output", f"{tmp}/out", *argv])
    assert code in range(6)


SWEEP_GRID = ["sweep", "--t-min", "300", "--t-max", "375", "--nt", "2", "--amp-min", "1", "--namp", "1"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated_configs(), fmt=st.sampled_from(["csv", "json"]))
@example(doc=with_field("loop", "duration_T", 1e300), fmt="csv")  # the grid sets T
@example(doc=with_field("loop", "center_omega", 5.0), fmt="json")  # EP outside: every cell fails
@example(doc=with_field("integrator", "max_step", 5e-324), fmt="csv")
def test_sweep_exits_cleanly_on_mutated_config(doc, fmt):
    # a 2x1 sweep in one process: every config ends in an exit code of the
    # CLI contract, and failing cells end in their error column, not a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        stderr = io.StringIO()
        with time_limit(20), contextlib.redirect_stderr(stderr):
            code = main(["--config", path, "--output", f"{tmp}/out", "--format", fmt, "--jobs", "1", *SWEEP_GRID])
    assert code in range(6)
    assert "Traceback" not in stderr.getvalue()


# -- the section reader against the per-section loader ----------------------------


def load_outcome(load, path, require_loop):
    """The ``RunConfig`` a loader builds, or its ``ConfigError`` message."""
    try:
        return load(path, require_loop=require_loop)
    except ConfigError as exc:
        return str(exc)


def without_field(section, key, **changes):
    doc = json.loads(json.dumps(DIODE_CONFIG))
    del doc[section][key]
    doc[section].update(changes)
    return doc


#: a negative centre and a missing later loop field: the one config class on
#: which the reader names another field than the per-section loader
CENTRE_FIRST = without_field("loop", "semi_axis_omega", center_eps0=-1.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=mutated_configs())
@example(doc=CENTRE_FIRST)
def test_load_config_matches_reference(tmp_path_factory, doc):
    # the table reader gives the old loader's RunConfig or its error message,
    # with and without a required loop section
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for require_loop in (True, False):
        got = load_outcome(load_config, path, require_loop)
        want = load_outcome(config_reference.load_config, path, require_loop)
        if want == "invalid 'loop' section: eps0 must be >= 0" and got != want:
            # the old loader built the centre's FieldPoint before it read the
            # loop's later numbers; the reader reads every field first
            assert got.startswith(("missing required field 'loop.", "field 'loop.")), got
            continue
        assert got == want


def test_fields_are_read_before_the_section_is_built(tmp_path):
    path = write_config(tmp_path, CENTRE_FIRST)
    with pytest.raises(ConfigError, match="^missing required field 'loop.semi_axis_omega'$"):
        load_config(path)
    with pytest.raises(ConfigError, match="^invalid 'loop' section: eps0 must be >= 0$"):
        load_config(write_config(tmp_path, with_field("loop", "center_eps0", -1.0)))


@pytest.mark.parametrize("method", ["direct", "adiabatic"])
def test_trajectory_meta_loads_as_the_run_config(tmp_path, capsys, method):
    # the sections a trajectory JSON writes in its meta read back, through the
    # config reader, as the run's SystemParams, LoopSpec and IntegratorConfig
    doc = json.loads(json.dumps(DIODE_CONFIG))
    doc["system"]["d12_im"] = -0.0
    doc["loop"].update(direction="ccw", start_phase=1.25)
    doc["integrator"] = {"rel_tol": 1e-9, "abs_tol": 3e-13, "max_step": 2.5, "initial_step": 0.125}
    config = write_config(tmp_path, doc)
    out = tmp_path / "trajectory.json"
    argv = ["--config", config, "--output", str(out), "--format", "json", "simulate", "--method", method]
    assert main([*argv, "--n-output", "4"]) == 0
    meta = json.loads(out.read_text(encoding="utf-8"))["meta"]
    assert sorted(meta) == ["integrator", "loop", "method", "system"]
    sections = {section: meta[section] for section in ("system", "loop", "integrator")}
    read_back = load_config(write_config(tmp_path, sections, name="meta.json"))
    run = load_config(config)
    assert (read_back.params, read_back.loop, read_back.integrator) == (run.params, run.loop, run.integrator)
    assert math.copysign(1.0, read_back.params.d12.imag) == -1.0


def test_static_drive_and_uncapped_step_meta_do_not_read_back(tmp_path):
    # the decision: a StaticDrive's meta (static_omega, static_eps0) and an
    # infinite max_step describe a library run; no config builds either, so
    # the reader refuses them as it refuses any config with those fields
    drive = StaticDrive(FieldPoint(1.0, 0.2), 5.0)
    config = IntegratorConfig(rel_tol=1e-8, max_step=math.inf)
    traj = propagate_direct(DEFAULT_PARAMS, drive, StateVector.basis(1), config, n_output=4)
    text = trajectory_to_json(traj)
    assert '"max_step": Infinity' in text
    meta = json.loads(text)["meta"]
    assert meta["loop"] == {"static_omega": 1.0, "static_eps0": 0.2, "duration_T": 5.0}
    loop_doc = {"system": meta["system"], "loop": meta["loop"]}
    with pytest.raises(ConfigError, match="^unknown config key 'loop.static_eps0'$"):
        load_config(write_config(tmp_path, loop_doc, name="loop.json"))
    integrator_doc = {"system": meta["system"], "integrator": meta["integrator"]}
    with pytest.raises(ConfigError, match="^field 'integrator.max_step' must be finite$"):
        load_config(write_config(tmp_path, integrator_doc, name="integrator.json"), require_loop=False)


# -- runtime dependencies -------------------------------------------------------

SRC = str(Path(epdyn.__file__).resolve().parents[1])


def run_python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the CLI must not pay its import
    code = "import sys, epdyn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_import_loads_no_process_pool():
    # the sweep runs in one process; the CLI must not pay for the pool's import
    code = "import sys, epdyn.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_import_builds_no_direct_step():
    # the direct route's run is compiled by the first direct run of a process, not by an import
    code = (
        "import epdyn, epdyn.cli, epdyn.propagation as p; print(p._dop853_run.cache_info().currsize); "
        "p.propagate_direct(epdyn.DEFAULT_PARAMS, epdyn.encircling_loop(5.0), (1, 0), n_output=2); "
        "print(p._dop853_run.cache_info().currsize)"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n1\n"


@pytest.mark.parametrize("argv", [["simulate"], ["table1"]], ids=["simulate", "table1"])
def test_main_runs_with_scipy_blocked(tmp_path, capsys, monkeypatch, argv):
    # the same call with scipy unimportable writes the same bytes as in this process
    config = write_config(tmp_path, DIODE_CONFIG)
    blocked, own = tmp_path / "blocked", tmp_path / "own"
    blocked.mkdir()
    own.mkdir()
    code = 'import sys; sys.modules["scipy"] = None; from epdyn.cli import main; sys.exit(main(sys.argv[1:]))'
    result = run_python(code, "--config", config, *argv, cwd=blocked)
    assert result.returncode == 0, result.stderr
    monkeypatch.chdir(own)
    assert main(["--config", config, *argv]) == 0
    assert result.stdout == capsys.readouterr().out
    assert (blocked / "trajectory.csv").read_bytes() == (own / "trajectory.csv").read_bytes()
