"""Traversal maps: the long-double oracle, symmetry, batch independence, frames, bounded work."""

import dataclasses
import math
import time

import numpy as np
import pytest

import traversal_reference as reference
from epdyn import (
    DEFAULT_PARAMS,
    Direction,
    FieldPoint,
    IntegratorConfig,
    LoopSpec,
    StateVector,
    StepBudgetError,
    diode_loop,
    encircling_loop,
    hermitian_loop,
    propagate_direct,
)
from epdyn import traversal
from epdyn.analysis import SweepSpec, final_state_report, sweep, table1
from epdyn.traversal import traversal_maps

REF = DEFAULT_PARAMS
ACCEPT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)

#: The four diode ratios (CW from states 1 and 2, CCW from states 1 and 2)
#: of the long-double product at 2048 steps, to 5 significant digits.
DIODE_RATIOS = (5398.1, 1538.7, 2435.5, 8544.2)

#: A loop whose contour passes 1e-4 from the EP: the ellipse is centered on
#: it and 1e-4 wide in omega.
THIN = LoopSpec(
    center=FieldPoint(1.0, 0.2),
    semi_axis_omega=1e-4,
    semi_axis_eps=0.1,
    direction=Direction.CW,
    duration_T=5.0,
)


def scaled(tmap):
    """U e^log_scale as (U, log_scale) with the largest entry of U equal to 1."""
    big = np.max(np.abs(tmap.U))
    return tmap.U / big, tmap.log_scale + math.log(big)


class TestOracle:
    @pytest.fixture(scope="class")
    def oracle(self):
        return [reference.traversal_map(REF, diode_loop(d), 2048) for d in (Direction.CW, Direction.CCW)]

    def test_oracle_needs_extended_precision(self, monkeypatch):
        class Float64Info:
            eps = np.finfo(float).eps

        monkeypatch.setattr(reference.np, "finfo", lambda dtype: Float64Info)
        with pytest.raises(RuntimeError, match="no extended precision"):
            reference.traversal_map(REF, diode_loop(Direction.CW), 256)

    def test_oracle_pins_the_diode_ratios(self, oracle):
        ratios = [reference.ratio(u, k) for u, _ in oracle for k in (0, 1)]
        assert [float(f"{r:.5g}") for r in ratios] == list(DIODE_RATIOS)

    def test_table1_agrees_with_the_oracle(self, oracle):
        table = table1(REF, diode_loop(Direction.CW), ACCEPT, n_track=1024)
        want = [reference.ratio(u, k) for u, _ in oracle for k in (0, 1)]
        for row, ratio in zip(table.rows, want):
            assert row.report.ratio == pytest.approx(ratio, rel=1e-3), row
        # the maps themselves, normalized, and their scales
        maps = traversal_maps(REF, [diode_loop(d) for d in (Direction.CW, Direction.CCW)], ACCEPT.rel_tol)
        for tmap, (u, log_scale) in zip(maps, oracle):
            assert tmap.frame == "eigen"
            mine, mine_log = scaled(tmap)
            assert np.max(np.abs(mine - u.astype(complex))) < 1e-5
            assert mine_log == pytest.approx(float(log_scale), abs=1e-6)


def test_reversed_loop_is_the_transpose():
    # H is complex symmetric, so the reversed traversal's map is U^T; each
    # direction is computed from its own loop
    loop = encircling_loop(50.0, Direction.CW)
    cw, ccw = (scaled(m) for m in traversal_maps(REF, [loop, loop.reversed()], 1e-12))
    assert np.max(np.abs(ccw[0] - cw[0].T)) < 1e-12
    assert ccw[1] == pytest.approx(cw[1], abs=1e-12)


def test_step_exponentials_match_cosh_and_sinh():
    # the power series (|sigma^2| <= 1) and numpy's functions (beyond) give
    # cosh(sigma) and sinh(sigma)/sigma; at sigma = 0 both are 1
    rng = np.random.default_rng(7)
    zeta = (rng.normal(size=400) + 1j * rng.normal(size=400)) * np.repeat([0.01, 0.3, 1.0, 3.0], 100)
    c, s = traversal._cosh_sinhc(np.concatenate([zeta, [0j]]))
    sigma = np.sqrt(zeta)
    assert np.abs(c[:-1] - np.cosh(sigma)).max() < 1e-15 * np.abs(np.cosh(sigma)).max()
    assert np.abs(s[:-1] - np.sinh(sigma) / sigma).max() < 1e-15 * np.abs(np.sinh(sigma) / sigma).max()
    assert (c[-1], s[-1]) == (1.0, 1.0)


class TestBits:
    LOOPS = [diode_loop(Direction.CW), THIN, encircling_loop(50.0), diode_loop(Direction.CCW, 320.0)]

    def test_a_loop_alone_and_in_any_batch(self):
        alone = [traversal_maps(REF, [loop], 1e-10)[0] for loop in self.LOOPS]
        for batch in (self.LOOPS, self.LOOPS[::-1], self.LOOPS * 3):
            together = traversal_maps(REF, batch, 1e-10)
            for loop, tmap in zip(batch, together):
                want = alone[self.LOOPS.index(loop)]
                assert tmap.U.tobytes() == want.U.tobytes()
                assert (tmap.log_scale, tmap.steps, tmap.frame, tmap.floor) == (
                    want.log_scale, want.steps, want.frame, want.floor
                )

    def test_the_block_length_changes_no_bit(self, monkeypatch):
        want = traversal_maps(REF, self.LOOPS, 1e-10)
        monkeypatch.setattr(traversal, "_BLOCK_STEPS", 64)
        got = traversal_maps(REF, self.LOOPS, 1e-10)
        assert [m.U.tobytes() for m in got] == [m.U.tobytes() for m in want]
        assert [m[1:] for m in got] == [m[1:] for m in want]


class TestFrames:
    def test_the_diode_loop_takes_the_eigenframe(self):
        for tmap in traversal_maps(REF, [diode_loop(d) for d in (Direction.CW, Direction.CCW)], 1e-10):
            assert tmap.frame == "eigen"
            assert tmap.steps >= 512

    @pytest.mark.parametrize(
        "loop",
        [hermitian_loop(10.0, Direction.CW), THIN],
        ids=["ep-on-contour", "ep-1e-4-from-contour"],
    )
    def test_a_pass_at_the_ep_takes_the_bare_frame(self, loop):
        # the eigenframe product through an unresolved EP converges to a wrong
        # map; the bare frame agrees with the direct route
        (tmap,) = traversal_maps(REF, [loop], 1e-10)
        assert tmap.frame == "bare"
        init = StateVector.equal_superposition()
        direct = propagate_direct(REF, loop, init, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))
        want = final_state_report(direct, loop.direction)
        c = tmap.U @ init.as_array()
        pops = np.abs(c) ** 2
        assert (1 if pops[0] > pops[1] else 2) == want.dominant_state
        assert max(pops) / min(pops) == pytest.approx(want.ratio, rel=1e-6)


class TestBoundedWork:
    def test_past_the_float64_floor_a_stalled_doubling_stops_early(self):
        # at T = 600 rounding moves the diode map by more than 1e-3 at every
        # step count, in both frames; the change stalls once every step is
        # resolved, and both frames stop there instead of at the cap
        loop = diode_loop(Direction.CW, 600.0)
        start = time.perf_counter()
        with pytest.raises(StepBudgetError, match=r"duration_T=600\.0.*does not settle in float64: its change "
                           r"stalled at .* at 1024 steps"):
            traversal_maps(REF, [loop], 1e-10)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "change, before, resolved, verdict",
        [
            (1.4e-9, 2e-8, True, "settled"),  # change / 15 <= rel_tol
            (5e-4, 1e-3, True, "settled"),  # stalled at the floor
            (3e-3, 4e-3, True, "stalled"),  # stalled above the floor
            (1.4e-9, 2e-8, False, None),  # an unresolved step can agree by chance
            (3e-3, 4e-3, False, None),  # or still converge
            (3e-3, 1.0, True, None),  # shrinking 16-fold: not a stall
            (3e-3, math.inf, True, None),  # the first change
        ],
    )
    def test_stop_rule(self, change, before, resolved, verdict):
        assert traversal._verdict(change, before, resolved, 1e-10) == verdict

    def test_a_failing_loop_leaves_its_batch_mates_alone(self):
        maps = traversal._maps(REF, [diode_loop(Direction.CW, 600.0), encircling_loop(50.0)], 1e-10)
        assert isinstance(maps[0], StepBudgetError)
        assert maps[1].U.tobytes() == traversal_maps(REF, [encircling_loop(50.0)], 1e-10)[0].U.tobytes()


def test_sweep_decisions_hold_as_the_tolerance_changes():
    # perfbench's 4x4 grid at the acceptance abs_tol; at the parent the direct
    # route's ratio of cell (3, 3) read 1265.1, 1109.8 and 837.7 at these
    # tolerances, so its pass_ratio followed the rounding
    spec = SweepSpec(
        template=diode_loop(Direction.CW),
        durations=tuple(300.0 + 25.0 * k for k in range(4)),
        amp_scales=tuple(0.05 + (1.25 / 3) * k for k in range(4)),
        direction=Direction.CCW,
        initial_phase=1.234,
        ratio_min=1e3,
        dominant_target=2,
    )
    decisions, corner = [], []
    for rel_tol in (1e-8, 1e-10, 1e-12):
        result = sweep(spec, REF, IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-14))
        assert not any(c.error for c in result.cells)
        decisions.append([(c.dominant_state, c.pass_ratio, c.pass_survival) for c in result.cells])
        corner.append(result.cell(3, 3).ratio)
    assert decisions[0] == decisions[1] == decisions[2]
    assert max(corner) / min(corner) - 1.0 < 1e-3, corner


def test_a_tiny_state_reports_like_its_multiple():
    # the reports scale the initial state by a power of two first, so
    # |U c0|^2 of a subnormal state does not underflow
    loop = encircling_loop(15.0)
    spec = SweepSpec(template=loop, durations=(15.0,), amp_scales=(1.0,), dominant_target=None)
    big = sweep(spec, REF, ACCEPT).cells[0]
    tiny = sweep(dataclasses.replace(spec, initial=StateVector(5e-324, 5e-324)), REF, ACCEPT).cells[0]
    assert tiny.ratio == pytest.approx(big.ratio, rel=1e-14)
    assert tiny.survival == pytest.approx(big.survival, rel=1e-12)
