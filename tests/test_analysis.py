"""Projections, dominance reports, table pattern, and sweep machinery."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from epdyn import (
    DEFAULT_PARAMS,
    HERMITIAN_PARAMS,
    Direction,
    FieldPoint,
    IntegratorConfig,
    LoopSpec,
    NotEncirclingError,
    StateVector,
    StaticDrive,
    StepBudgetError,
    contains_ep,
    diode_loop,
    hermitian_loop,
    propagate_direct,
    track_branches,
)
from epdyn import analysis
from epdyn.analysis import (
    RATIO_CAP,
    SweepSpec,
    final_state_report,
    survival_fraction,
    sweep,
    table1,
)
from epdyn.cli import _parse_grid, main
from epdyn.propagation import _map_loop, _map_record
from epdyn.serialize import sweep_header_csv, sweep_row_csv, table_to_json, trajectory_to_csv
from epdyn.traversal import traversal_maps

REF = DEFAULT_PARAMS
FAST = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-12)


def fake_record(c1, c2):
    """Minimal two-row trajectory with the given final amplitudes."""
    from epdyn.propagation import TrajectoryRecord

    states = np.array([[1.0 + 0j, 0j], [c1, c2]])
    norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
    return TrajectoryRecord(
        times=np.array([0.0, 1.0]),
        states=states,
        norms_sq=norms,
        log_scale=np.zeros(2),
        meta={},
    )


def csv_projections(traj) -> tuple:
    """The W1 and W2 columns of the trajectory CSV, as floats."""
    rows = [line.split(",") for line in trajectory_to_csv(traj).splitlines()[1:]]
    return np.array([float(row[-2]) for row in rows]), np.array([float(row[-1]) for row in rows])


class TestProjections:
    # the normalized populations W1 = |c1|^2 / |c|^2 and W2 = 1 - W1: of the
    # final record in the report, of every record in the trajectory files

    def test_pure_state(self):
        # W1 = 1 and W2 = 0 exactly, whatever the norm
        report = final_state_report(fake_record(0.5, 0.0), Direction.CW)
        assert report.dominant_state == 1 and report.ratio == RATIO_CAP

    def test_balanced_state(self):
        amp = 1 / math.sqrt(2)
        report = final_state_report(fake_record(amp, amp * 1j), Direction.CW)
        assert report.ratio == pytest.approx(1.0)

    def test_closure_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            z = rng.normal(size=4)
            w1, w2 = csv_projections(fake_record(complex(z[0], z[1]), complex(z[2], z[3])))
            assert float(w1[-1] + w2[-1]) == 1.0

    def test_closure_on_real_trajectory(self):
        traj = propagate_direct(REF, hermitian_loop(5.0), StateVector.basis(1), FAST)
        w1, w2 = csv_projections(traj)
        assert len(w1) == len(traj.times) and np.all(w1 + w2 == 1.0)

    def test_zero_norm_rejected(self):
        from epdyn import ZeroNormError
        from epdyn.propagation import TrajectoryRecord

        record = TrajectoryRecord(
            times=np.array([0.0, 1.0]),
            states=np.array([[1.0 + 0j, 0j], [0j, 0j]]),
            norms_sq=np.array([1.0, 0.0]),
            log_scale=np.zeros(2),
            meta={},
        )
        with pytest.raises(ZeroNormError):
            final_state_report(record, Direction.CW)


class TestFinalStateReport:
    def test_dominant_first_state(self):
        report = final_state_report(fake_record(math.sqrt(0.999), math.sqrt(0.001)), Direction.CW)
        assert report.dominant_state == 1
        assert report.ratio == pytest.approx(999.0, rel=1e-9)

    def test_tie_has_no_dominant(self):
        amp = 1 / math.sqrt(2)
        report = final_state_report(fake_record(amp, amp), Direction.CCW)
        assert report.dominant_state is None
        assert report.ratio == 1.0

    def test_ratio_capped(self):
        report = final_state_report(fake_record(1.0, 0.0), Direction.CW)
        assert report.ratio == RATIO_CAP

    def test_ratio_is_the_quotient_of_the_populations(self):
        # populations 1 and 2^-36 have the quotient 2^36 exactly; through
        # W2 = 1 - W1 the ratio read 2^36 - 1, and its relative error grows
        # with the ratio
        report = final_state_report(fake_record(1.0, 2.0**-18), Direction.CW)
        assert (report.dominant_state, report.ratio) == (1, 2.0**36)
        report = final_state_report(fake_record(2.0**-18, 1.0), Direction.CW)
        assert (report.dominant_state, report.ratio) == (2, 2.0**36)


class TestSurvival:
    def test_hermitian_loop_survives_fully(self):
        traj = propagate_direct(HERMITIAN_PARAMS, hermitian_loop(20.0), StateVector.basis(1), FAST)
        assert survival_fraction(traj) == pytest.approx(1.0, abs=1e-7)

    def test_static_decay(self):
        drive = StaticDrive(FieldPoint(1.0, 0.0), 5.0)
        traj = propagate_direct(REF, drive, StateVector.basis(1), FAST)
        assert survival_fraction(traj) == pytest.approx(math.exp(-1.0), rel=1e-7)

    def test_decreases_with_duration(self):
        loops = [hermitian_loop(T) for T in (10.0, 20.0)]
        survs = [
            survival_fraction(propagate_direct(REF, loop, StateVector.basis(1), FAST))
            for loop in loops
        ]
        assert 0 < survs[1] < survs[0] < 1


class TestThresholdMonotonicity:
    def test_ratio_non_decreasing_over_doublings(self):
        # once past the selectivity threshold, slowing the traversal can only
        # sharpen the selected state's dominance (three doublings)
        from epdyn import diode_loop

        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
        ratios = []
        for k in range(4):
            loop = diode_loop(Direction.CW, 50.0 * 2**k)
            traj = propagate_direct(REF, loop, StateVector.basis(2), cfg, n_output=8)
            report = final_state_report(traj, Direction.CW)
            ratios.append(report.ratio)
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), ratios


class TestTable1:
    def test_rejects_non_encircling_loop(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.5),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CW,
            duration_T=10.0,
        )
        with pytest.raises(NotEncirclingError, match="EP-encircling"):
            table1(REF, loop, FAST)

    def test_adiabatic_column_is_flip_when_swapped(self):
        from epdyn import encircling_loop

        table = table1(REF, encircling_loop(15.0), FAST)
        assert table.swapped is True
        for row in table.rows:
            assert row.adiabatic_final == 3 - row.initial_state
        assert len(table.rows) == 4
        directions = [r.direction for r in table.rows]
        assert directions == [Direction.CW, Direction.CW, Direction.CCW, Direction.CCW]

    def test_adiabatic_column_is_the_slot_search(self):
        # the column used to follow the slot whose t = 0 vector leads in the
        # initial state's component and read the bare label of its vector at
        # T; on a closed loop that is the exchange rule, except where
        # |cos th_0| = |sin th_0| exactly, which sent both states down slot 0
        rng = np.random.default_rng(11)
        checked = {True: 0, False: 0}
        while min(checked.values()) < 8:
            eps = rng.uniform(0.15, 0.5)
            loop = LoopSpec(FieldPoint(rng.uniform(0.6, 1.4), eps), rng.uniform(0.05, 0.6),
                            rng.uniform(0.1, 1.0) * eps, Direction.CW, rng.uniform(5.0, 40.0),
                            rng.uniform(0.0, 2.0 * math.pi))
            frame = track_branches(REF, loop, n_samples=analysis._TRACK_SAMPLES)
            first = frame.vectors[0, 0]
            if abs(first[0]) == abs(first[1]):
                continue
            want = slot_search_column(frame)
            if contains_ep(loop, REF):
                got = [row.adiabatic_final for row in table1(REF, loop, FAST).rows]
                assert got == want + want
            else:  # table1 refuses the loop; the rule still reads off the swap
                assert want == ([2, 1] if frame.swapped else [1, 2])
            checked[contains_ep(loop, REF)] += 1


def slot_search_column(frame) -> list:
    """``table1``'s former adiabatic column, one label per basis state, from the tracked frame."""
    column = []
    for component in (0, 1):
        slot = 0 if abs(frame.vectors[0, 0, component]) >= abs(frame.vectors[0, 1, component]) else 1
        final = frame.vectors[-1, slot]
        column.append(1 if abs(final[0]) >= abs(final[1]) else 2)
    return column


class TestFloat64Floor:
    # The nine perturbed states of a row share the loop's one run of U, so
    # their ratios differ only by the rounding of U c0: at most 1.3e-12
    # relative over the three tolerances (notes/decisions.md). The decision
    # must not move.
    SELECTED = {Direction.CW: 1, Direction.CCW: 2}
    #: the ±4-ulp ratios of a row agree to this, relative (1.3e-12 measured)
    SPREAD = 1e-11

    @staticmethod
    def perturbed_basis(state: int, ulps: int) -> StateVector:
        x = 1.0
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return StateVector(x, 0.0) if state == 1 else StateVector(0.0, x)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-11, 1e-12])
    def test_table1_decisions_hold_within_4_ulp(self, rel_tol):
        config = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-14)
        for direction, selected in self.SELECTED.items():
            loop = diode_loop(direction)
            for state in (1, 2):
                ratios = []
                for ulps in (0, -4, -3, -2, -1, 1, 2, 3, 4):
                    init = self.perturbed_basis(state, ulps)
                    traj = propagate_direct(REF, loop, init, config, n_output=8)
                    report = final_state_report(traj, direction)
                    assert report.dominant_state == selected, (direction, state, ulps)
                    assert report.ratio >= 1e3, (direction, state, ulps, report.ratio)
                    ratios.append(report.ratio)
                assert max(ratios) - min(ratios) <= self.SPREAD * ratios[0], (direction, state, ratios)


class TestSweep:
    @staticmethod
    def direct_within_floor(spec, cell, loop):
        """The cell against a direct run at rel_tol 1e-12, within the map's floor plus 1e-12."""
        (tmap,) = traversal_maps(REF, [loop], FAST.rel_tol)
        traj = propagate_direct(REF, loop, spec.initial_state(), IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))
        report = final_state_report(traj, loop.direction)
        bound = tmap.floor + 1e-12
        assert cell.dominant_state == report.dominant_state
        assert cell.ratio == pytest.approx(report.ratio, rel=bound)
        assert cell.survival == pytest.approx(report.survival, rel=bound)
        return tmap

    def test_single_cell_matches_direct_report(self):
        template = hermitian_loop(10.0, Direction.CW)
        spec = SweepSpec(
            template=template,
            durations=(10.0,),
            amp_scales=(1.0,),
            direction=Direction.CW,
            dominant_target=None,
            ratio_min=1.5,
        )
        result = sweep(spec, REF, FAST)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.error is None
        self.direct_within_floor(spec, cell, template)

    THIN = LoopSpec(
        center=FieldPoint(1.0, 0.5),
        semi_axis_omega=1e-4,
        semi_axis_eps=0.25,
        direction=Direction.CW,
        duration_T=5.0,
    )

    # a NaN threshold passes a "<= 0" test and then fails every cell's check;
    # a NaN phase makes no initial state, which every cell would report
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ratio_min", math.nan, "ratio_min must be finite and > 0"),
            ("ratio_min", math.inf, "ratio_min must be finite and > 0"),
            ("ratio_min", 0.0, "ratio_min must be finite and > 0"),
            ("survival_levels", (math.nan, 0.1), "survival_levels must be finite and > 0"),
            ("survival_levels", (0.1, math.inf), "survival_levels must be finite and > 0"),
            ("survival_levels", (), "survival_levels must be finite and > 0"),
            ("initial_phase", math.nan, "initial_phase nan gives no initial state"),
        ],
    )
    def test_spec_rejects_what_no_cell_can_use(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(template=self.THIN, durations=(5.0,), amp_scales=(1.0,), **{field: value})

    def test_cells_in_batches_of_32_in_grid_order(self, monkeypatch):
        # 35 cells: one batch of 32 and one of 3, each taking its loops in
        # row-major order, so a batch spans rows and splits the last one
        spec = SweepSpec(
            template=hermitian_loop(4.0, Direction.CW),
            durations=(4.0, 4.5, 5.0, 5.5, 6.0),
            amp_scales=(0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3),
            direction=Direction.CW,
            dominant_target=None,
        )
        batches = []
        engine = analysis._maps

        def recording(params, loops, rel_tol):
            batches.append(loops)
            return engine(params, loops, rel_tol)

        monkeypatch.setattr(analysis, "_maps", recording)
        seen = []
        result = sweep(spec, REF, FAST, progress=lambda c: seen.append((c.i, c.j)))
        grid = [(i, j) for i in range(5) for j in range(7)]
        assert [len(b) for b in batches] == [32, 3]
        assert batches[0] + batches[1] == [spec.cell_loop(i, j) for i, j in grid]
        assert seen == grid == [(c.i, c.j) for c in result.cells]
        assert all(c.error is None for c in result.cells)

    def test_cell_error_recorded_and_sweep_continues(self, monkeypatch):
        # the engine fails for one cell: that cell records the error, the
        # other cell of its grid row still has its result
        spec = SweepSpec(
            template=hermitian_loop(5.0, Direction.CW),
            durations=(5.0,),
            amp_scales=(1.0, 1.2),
            direction=Direction.CW,
            dominant_target=None,
        )
        engine = analysis._maps

        def failing(params, loops, rel_tol):
            maps = engine(params, loops, rel_tol)
            return [StepBudgetError("injected")] + maps[1:]

        monkeypatch.setattr(analysis, "_maps", failing)
        result = sweep(spec, REF, FAST)
        assert result.cell(0, 0).error == "StepBudgetError: injected"
        assert result.cell(0, 0).ratio is None and result.cell(0, 0).pass_ratio is None
        assert result.cell(0, 1).error is None and result.cell(0, 1).ratio > 1.0
        assert not result.all_failed

    def test_thin_ellipse_cell_takes_the_bare_frame(self):
        # scale 0.4 centers the ellipse on the EP (1.0, 0.2): its contour
        # passes 1e-4 from it, where the eigenframe turns faster than the
        # steps resolve, so the cell's map is taken in the bare frame
        spec = SweepSpec(
            template=self.THIN,
            durations=(5.0,),
            amp_scales=(0.4, 1.0),
            direction=Direction.CW,
            dominant_target=None,
        )
        result = sweep(spec, REF, FAST)
        assert all(c.error is None for c in result.cells)
        tmap = self.direct_within_floor(spec, result.cell(0, 0), spec.cell_loop(0, 0))
        assert tmap.frame == "bare"

    def test_grid_ordering_and_rho_sign(self):
        template = LoopSpec(
            center=FieldPoint(1.0, 0.2),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CW,
            duration_T=4.0,
        )
        spec = SweepSpec(
            template=template,
            durations=(4.0, 8.0),
            amp_scales=(1.0, 3.0),
            direction=Direction.CW,
            dominant_target=None,
        )
        result = sweep(spec, REF, FAST)
        assert [(c.i, c.j) for c in result.cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # scale 1 keeps the EP centered (rho > 0); scale 3 pushes it outside
        assert result.cell(0, 0).rho > 0
        assert result.cell(0, 1).rho < 0

    def test_parallel_matches_serial(self):
        template = hermitian_loop(6.0, Direction.CW)
        spec = SweepSpec(
            template=template,
            durations=(6.0, 12.0),
            amp_scales=(1.0, 1.5),
            direction=Direction.CW,
            dominant_target=None,
        )
        serial = sweep(spec, REF, FAST, jobs=1)
        parallel = sweep(spec, REF, FAST, jobs=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.ratio == b.ratio and a.survival == b.survival

    def test_progress_callback(self):
        seen = []
        spec = SweepSpec(
            template=hermitian_loop(4.0, Direction.CW),
            durations=(4.0,),
            amp_scales=(1.0, 1.2),
            direction=Direction.CW,
            dominant_target=None,
        )
        sweep(spec, REF, FAST, progress=lambda c: seen.append((c.i, c.j)))
        assert sorted(seen) == [(0, 0), (0, 1)]

    def test_progress_arrives_in_grid_order_from_the_pool(self):
        # the first cell is the slowest, so with two workers the later cells
        # finish first; progress must still report them in grid order
        seen = []
        spec = SweepSpec(
            template=hermitian_loop(4.0, Direction.CW),
            durations=(400.0, 4.0, 4.0),
            amp_scales=(1.0,),
            direction=Direction.CW,
            dominant_target=None,
        )
        result = sweep(spec, REF, FAST, jobs=2, progress=lambda c: seen.append((c.i, c.j)))
        assert seen == [(0, 0), (1, 0), (2, 0)]
        assert [(c.i, c.j) for c in result.cells] == seen


class TestMapBits:
    """A report's bits do not depend on the loops that share its batch, and the CLI writes the library's."""

    ACCEPT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
    DIODE = {
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
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-14},
    }

    def config(self, tmp_path):
        path = tmp_path / "diode.json"
        path.write_text(json.dumps(self.DIODE), encoding="utf-8")
        return str(path)

    def test_table1_rows(self, tmp_path, capsys):
        loop = diode_loop(Direction.CW)
        table = table1(REF, loop, self.ACCEPT)
        for row in table.rows:  # both directions share a batch; each alone gives the same bits
            oriented = dataclasses.replace(loop, direction=row.direction)
            (tmap,) = traversal_maps(REF, [oriented], self.ACCEPT.rel_tol)
            init = StateVector.basis(row.initial_state)
            record = _map_record(REF, oriented, self.ACCEPT, _map_loop(REF, oriented, tmap), init)
            alone = final_state_report(record, oriented.direction)
            assert repr(alone) == repr(row.report)  # repr tells every float apart
        assert main(["--config", self.config(tmp_path), "--format", "json", "table1"]) == 0
        assert capsys.readouterr().out == table_to_json(table)

    def test_sweep_cells_alike_in_any_batching(self, monkeypatch):
        # batches of 1, of 3 (which split the rows of 4) and the default give
        # the same cells: bits, error text and the maps' steps and frame; the
        # grid holds a bare-frame cell (0.4) and a failing one (1e300)
        spec = SweepSpec(
            template=TestSweep.THIN,
            durations=(5.0, 6.0),
            amp_scales=(0.4, 1.0, 1.2, 1e300),
            direction=Direction.CW,
            dominant_target=None,
        )
        result = sweep(spec, REF, FAST)
        for batch in (1, 3):
            monkeypatch.setattr(analysis, "_BATCH_LOOPS", batch)
            assert [repr(c) for c in sweep(spec, REF, FAST).cells] == [repr(c) for c in result.cells]
        assert [(c.frame, c.steps is None) for c in result.cells[:4]] == [
            ("bare", False), ("eigen", False), ("eigen", False), (None, True)
        ]
        assert result.cell(1, 3).error.startswith("NonFiniteError: the drive (a, g) overflows float64")

    def test_sweep_cells(self, tmp_path):
        flags = ["--t-min", "300", "--t-max", "375", "--nt", "3", "--t-spacing", "linear"]
        flags += ["--amp-min", "0.05", "--amp-max", "1.3", "--namp", "3", "--initial-phase", "1.0"]
        flags += ["--direction", "ccw"]
        spec = SweepSpec(
            template=diode_loop(Direction.CW),
            durations=_parse_grid(300.0, 375.0, 3, "linear", "duration"),
            amp_scales=_parse_grid(0.05, 1.3, 3, "linear", "amplitude"),
            direction=Direction.CCW,
            initial_phase=1.0,
        )
        result = sweep(spec, REF, self.ACCEPT)
        assert all(cell.error is None for cell in result.cells)
        for cell in result.cells:  # the nine cells share a batch; each cell alone gives the same bits
            loop = spec.cell_loop(cell.i, cell.j)
            (tmap,) = traversal_maps(REF, [loop], self.ACCEPT.rel_tol)
            record = _map_record(REF, loop, self.ACCEPT, _map_loop(REF, loop, tmap), spec.initial_state())
            alone = final_state_report(record, loop.direction)
            assert (repr(alone.ratio), repr(alone.survival)) == (repr(cell.ratio), repr(cell.survival))
        out = tmp_path / "sweep.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["--config", self.config(tmp_path), "--output", str(out), "sweep", *flags]) == 0
        lines = [sweep_header_csv(), *map(sweep_row_csv, result.cells)]
        assert out.read_text() == "".join(f"{line}\n" for line in lines)
