"""Command-line interface: config validation, subcommands, exit codes."""

import json
import math

import pytest

from epdyn.cli import main

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


class TestSweep:
    def test_single_cell_matches_simulate_summary(self, tmp_path, capsys):
        doc = patched({"loop": {"center_eps0": 0.35}, "initial": {"c1_re": 1.0, "c2_re": 1.0}})
        cfg = write_config(tmp_path, doc)
        traj_out = tmp_path / "traj.csv"
        main(["--config", cfg, "--output", str(traj_out), "simulate"])
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
        assert float(row["ratio"]) == pytest.approx(ratio_sim, rel=1e-9)
        # the equal superposition comes from the config's initial section
        assert row["error"] == ""

    def test_interrupted_run_leaves_valid_partial_csv(self, tmp_path, monkeypatch):
        import epdyn.analysis as analysis_mod

        real_run_cell = analysis_mod._run_cell
        calls = []

        def exploding_run_cell(args):
            if len(calls) >= 1:
                raise KeyboardInterrupt
            calls.append(1)
            return real_run_cell(args)

        monkeypatch.setattr(analysis_mod, "_run_cell", exploding_run_cell)
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
                    "--namp",
                    "1",
                    "--dominant-target",
                    "any",
                ]
            )
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header plus the one finished row
        assert lines[0].startswith("i,j,")
        assert lines[1].split(",")[:2] == ["0", "0"]

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
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[:2] == ["0", "0"]
        assert lines[4].split(",")[:2] == ["1", "1"]
