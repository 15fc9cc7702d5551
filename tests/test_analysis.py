"""Projections, dominance reports, table pattern, and sweep machinery."""

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
    StateVector,
    StaticDrive,
    diode_loop,
    hermitian_loop,
    propagate_direct,
)
from epdyn import analysis
from epdyn.analysis import (
    RATIO_CAP,
    AsymmetryReport,
    SweepSpec,
    asymmetry_criterion,
    final_state_report,
    project_normalized,
    survival_fraction,
    sweep,
    table1,
)

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
        adiabatic_coeffs=None,
        branch_labels=None,
        meta={},
    )


class TestProjections:
    def test_pure_state(self):
        series = project_normalized(fake_record(0.5, 0.0))
        assert series.w1[-1] == 1.0 and series.w2[-1] == 0.0

    def test_balanced_state(self):
        amp = 1 / math.sqrt(2)
        series = project_normalized(fake_record(amp, amp * 1j))
        assert series.w1[-1] == pytest.approx(0.5)
        assert series.w2[-1] == pytest.approx(0.5)

    def test_closure_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            z = rng.normal(size=4)
            series = project_normalized(fake_record(complex(z[0], z[1]), complex(z[2], z[3])))
            assert float(series.w1[-1] + series.w2[-1]) == 1.0

    def test_closure_on_real_trajectory(self):
        traj = propagate_direct(REF, hermitian_loop(5.0), StateVector.basis(1), FAST)
        series = project_normalized(traj)
        assert np.all(series.w1 + series.w2 == 1.0)

    def test_zero_norm_rejected(self):
        from epdyn import ZeroNormError
        from epdyn.propagation import TrajectoryRecord

        record = TrajectoryRecord(
            times=np.array([0.0, 1.0]),
            states=np.array([[1.0 + 0j, 0j], [0j, 0j]]),
            norms_sq=np.array([1.0, 0.0]),
            log_scale=np.zeros(2),
            adiabatic_coeffs=None,
            branch_labels=None,
            meta={},
        )
        with pytest.raises(ZeroNormError):
            project_normalized(record)


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

    def test_asymmetry_criterion(self):
        base = dict(survival=0.5, direction=Direction.CW, initial_label="x")
        assert asymmetry_criterion(AsymmetryReport(1, 1500.0, **base)) is True
        assert asymmetry_criterion(AsymmetryReport(1, 999.0, **base)) is False
        assert asymmetry_criterion(AsymmetryReport(1, 999.0, **base), threshold=500) is True


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
        with pytest.raises(ValueError):
            table1(REF, loop, FAST)

    def test_adiabatic_column_is_flip_when_swapped(self):
        from epdyn import encircling_loop

        table = table1(REF, encircling_loop(15.0), FAST, n_track=1024)
        assert table.swapped is True
        for row in table.rows:
            assert row.adiabatic_final == 3 - row.initial_state
        assert len(table.rows) == 4
        directions = [r.direction for r in table.rows]
        assert directions == [Direction.CW, Direction.CW, Direction.CCW, Direction.CCW]


class TestFloat64Floor:
    # The state-1 rows of the diode table amplify rounding through a transient
    # of |u|^2 up to e^25.6, so their ratios move by a third when the initial
    # state moves by one ulp (notes/decisions.md). The decision must not move.
    SELECTED = {Direction.CW: 1, Direction.CCW: 2}

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
                for ulps in (0, -4, -3, -2, -1, 1, 2, 3, 4):
                    init = self.perturbed_basis(state, ulps)
                    traj = propagate_direct(REF, loop, init, config, n_output=8)
                    report = final_state_report(traj, direction)
                    assert report.dominant_state == selected, (direction, state, ulps)
                    assert report.ratio >= 1e3, (direction, state, ulps, report.ratio)


class TestSweep:
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
        traj = propagate_direct(REF, template, StateVector.equal_superposition(), FAST)
        report = final_state_report(traj, Direction.CW)
        assert cell.ratio == pytest.approx(report.ratio, rel=1e-9)
        assert cell.survival == pytest.approx(report.survival, rel=1e-9)
        assert cell.dominant_state == report.dominant_state
        assert cell.error is None

    def test_cell_error_recorded_and_sweep_continues(self):
        # amplitude scale that drags the contour through the EP produces a
        # recorded error, not a crash
        template = LoopSpec(
            center=FieldPoint(1.0, 0.5),
            semi_axis_omega=1e-4,
            semi_axis_eps=0.25,
            direction=Direction.CW,
            duration_T=5.0,
        )
        bad = SweepSpec(
            template=template,
            durations=(5.0,),
            amp_scales=(0.4, 1.0),  # scale 0.4 puts the EP exactly on the contour
            direction=Direction.CW,
            dominant_target=None,
        )
        result = sweep(bad, REF, FAST)
        assert len(result.cells) == 2
        assert not result.all_failed

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


class TestFinalOnlyGrid:
    """table1 and sweep cells record 2 output intervals; their reports equal those on 512, bit for bit."""

    ACCEPT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)

    def test_table1_rows(self, monkeypatch):
        loop = diode_loop(Direction.CW)
        coarse = table1(REF, loop, self.ACCEPT, n_track=1024)
        monkeypatch.setattr(analysis, "_FINAL_ONLY", 512)
        fine = table1(REF, loop, self.ACCEPT, n_track=1024)
        assert repr(coarse) == repr(fine)  # repr tells every float apart, signed zeros too

    def test_sweep_cells(self, monkeypatch):
        spec = SweepSpec(
            template=diode_loop(Direction.CW),
            durations=(300.0, 337.5, 375.0),
            amp_scales=(0.05, 0.675, 1.3),
            direction=Direction.CCW,
            initial_phase=1.0,
        )
        coarse = sweep(spec, REF, self.ACCEPT)
        monkeypatch.setattr(analysis, "_FINAL_ONLY", 512)
        fine = sweep(spec, REF, self.ACCEPT)
        assert repr(coarse.cells) == repr(fine.cells)
        assert all(cell.error is None for cell in coarse.cells)
