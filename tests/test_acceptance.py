"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All tolerances are pinned here. Criterion 4 is split in three: the
state-selectivity claim itself (4a), the same claim for the mixed state I/2
over a window of durations (4c), and the slowness clause (4b), which asks
that the width-difference exponent on the non-adiabatic couplings, the
largest |int dGamma dt'| a traversal of the diode loop builds, reach 15 in
both directions whatever the start point. Why this and not the closed-traversal
value int_0^T, which depends on the start point: notes/decisions.md.
"""

import cmath
import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import cumulative_trapezoid

from epdyn import (
    DEFAULT_PARAMS,
    DIODE_DURATION,
    Direction,
    FieldPoint,
    HERMITIAN_PARAMS,
    IntegratorConfig,
    LoopSpec,
    StateVector,
    accumulated_phase,
    build_hamiltonian,
    contains_ep,
    diode_control_loop,
    diode_loop,
    discriminant,
    encircling_loop,
    hermitian_loop,
    locate_ep,
    propagate_adiabatic,
    propagate_direct,
    rho,
    track_branches,
    winding_number,
)
from epdyn import loops
from epdyn.analysis import SweepSpec, _dominance, final_state_report, sweep, table1
from epdyn.errors import EpdynError
from epdyn.traversal import traversal_maps
from ep_reference import refine_ep
from frame_reference import KAPPA, _eigensystem

REF = DEFAULT_PARAMS
ACCEPT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)


@contextmanager
def criterion(num: str, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"[criterion {num}] {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def dominant_and_ratio(traj):
    report = final_state_report(traj, traj.meta["drive"].direction)
    return report.dominant_state, report.ratio


def traversal_columns(preset):
    """The traversal map U of the preset loop in each direction: its two columns are the basis states' images."""
    directions = (Direction.CW, Direction.CCW)
    maps = traversal_maps(REF, [preset(d) for d in directions], ACCEPT.rel_tol)
    return {d: m.U for d, m in zip(directions, maps)}


def map_dominant(U, init):
    """The dominant bare state of U c0: one matrix product per initial state."""
    c = U @ init.as_array()
    pops = np.abs(c) ** 2
    return _dominance(*pops)[0]


def random_superpositions(n=8, seed=20240207):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        z = rng.normal(size=4)
        out.append(StateVector(complex(z[0], z[1]), complex(z[2], z[3])))
    return out


def test_criterion_01_ep_location():
    with criterion("01", "closed-form EP location and independent root-find"):
        t0 = time.perf_counter()
        ep = locate_ep(REF)
        assert ep.field.omega == 1.0
        assert abs(ep.field.eps0 - 0.2) <= 1e-15  # closed form, one ulp of 0.3 - 0.1
        assert abs(discriminant(build_hamiltonian(REF, ep.field))) < 1e-12
        seed = FieldPoint(ep.field.omega * 1.1, ep.field.eps0 * 1.1)
        refined = refine_ep(REF, seed)
        assert abs(refined.omega - ep.field.omega) < 1e-10
        assert abs(refined.eps0 - ep.field.eps0) < 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_eigenvalue_swap():
    with criterion("02", "branch exchange on one EP-encircling traversal"):
        t0 = time.perf_counter()
        frame = track_branches(REF, encircling_loop(10.0), n_samples=4096)
        assert frame.swapped is True
        assert abs(frame.energies[-1, 0] - frame.energies[0, 1]) < 1e-8
        control = LoopSpec(
            center=FieldPoint(1.0, 0.5),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=10.0,
        )
        assert track_branches(REF, control, n_samples=4096).swapped is False
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_winding_equivalence():
    with criterion("03", "winding number equals EP containment on 100 random loops"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(424242)
        ep = locate_ep(REF)
        checked = 0
        while checked < 100:
            ec = rng.uniform(0.05, 0.6)
            loop = LoopSpec(
                center=FieldPoint(rng.uniform(0.7, 1.3), ec),
                semi_axis_omega=rng.uniform(0.01, 0.3),
                semi_axis_eps=rng.uniform(0.05, 1.0) * ec,
                direction=rng.choice([Direction.CW, Direction.CCW]),
                duration_T=10.0,
                start_phase=rng.uniform(0, 2 * math.pi),
            )
            r = rho(loop, ep)
            if abs(r) <= 0.005:
                continue
            w = winding_number(loop, REF, n_samples=8192)
            checked += 1
            assert (abs(w) == 1) == (r > 0), f"loop {loop} disagrees: w={w}, rho={r}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04a_diode_state_selectivity():
    with criterion("04a", "direction-selected pure final states at ratio >= 1e3"):
        t0 = time.perf_counter()
        initials = [StateVector.basis(1), StateVector.basis(2)] + random_superpositions()
        maps = traversal_columns(diode_loop)
        dominants = {}
        for direction in (Direction.CW, Direction.CCW):
            loop = diode_loop(direction)
            doms = set()
            for init in initials:
                traj = propagate_direct(REF, loop, init, ACCEPT, n_output=8)
                dom, ratio = dominant_and_ratio(traj)
                assert ratio >= 1e3, f"{direction.value} ratio {ratio:.1f} < 1e3"
                assert map_dominant(maps[direction], init) == dom, (direction, init)
                doms.add(dom)
            assert len(doms) == 1, f"{direction.value} selected states vary: {doms}"
            dominants[direction] = doms.pop()
        assert dominants[Direction.CW] != dominants[Direction.CCW]
        assert time.perf_counter() - t0 < 120.0


def test_criterion_04c_mixed_state_window():
    with criterion("04c", "I/2 ends in the direction's state at ratio >= 1e3 over a window of T"):
        # from rho0 = I/2 the final populations are U's squared row norms
        # (rho_T ~ U U^H); sigma2/sigma1 is the same in both directions
        # (U_ccw = U_cw^T) and is the selectivity of any initial state
        contrasts = []
        for T in (275.0, 300.0, 325.0, DIODE_DURATION, 375.0, 400.0, 425.0):
            maps = traversal_maps(REF, [diode_loop(d, T) for d in (Direction.CW, Direction.CCW)], ACCEPT.rel_tol)
            for state, tmap in zip((1, 2), maps):
                pops = (np.abs(tmap.U) ** 2).sum(axis=1)
                assert _dominance(*pops)[0] == state, T
                assert max(pops) / min(pops) >= 1e3, (T, state, pops)
            sigmas = [np.linalg.svd(tmap.U, compute_uv=False) for tmap in maps]
            assert sigmas[0][1] / sigmas[0][0] == pytest.approx(sigmas[1][1] / sigmas[1][0], rel=1e-3)
            contrasts.append(sigmas[0][1] / sigmas[0][0])
        assert all(b < a for a, b in zip(contrasts, contrasts[1:])), contrasts
        assert contrasts[0] < 1e-2 and contrasts[-1] < 2e-4, contrasts


def traversal_spans(loop):
    """Running width-difference exponent and its span from every start point.

    Returns (running, spans). running is int_0^t Im(E_slot0 - E_slot1) dt' over
    one traversal of ``loop``. spans[k] is max - min of the running exponent
    over one traversal of the same loop, at the same speed, started at sample k
    of the two-traversal closed path: the largest exponent that traversal
    builds between two of its instants. An EP-encircling traversal exchanges
    the slots, so the second traversal integrates the gap with the opposite
    sign and every start point is covered by one tracked traversal.
    """
    frame = track_branches(REF, loop, n_samples=8192)
    assert frame.swapped, "the two-traversal path needs the branch exchange"
    gap = (frame.energies[:, 0] - frame.energies[:, 1]).imag
    running = cumulative_trapezoid(gap, frame.times, initial=0.0)
    n = len(running) - 1
    closed = np.concatenate([running[:-1], running[-1] - running[:-1]])  # period 2n
    windows = sliding_window_view(np.concatenate([closed, closed[: n + 1]]), n + 1)[: 2 * n]
    return running, windows.max(axis=1) - windows.min(axis=1)


def test_criterion_04b_phase_integral_target():
    """Slowness clause of criterion 4: the exponent on the couplings reaches 15.

    The non-adiabatic couplings carry exp(+-int dGamma dt'), so the measure is
    the largest |int_t1^t2 dGamma dt'| one traversal builds, taken at its least
    over start points so that it depends on the loop and T only. The
    closed-traversal value int_0^T is not a measure of slowness: on the diode
    ellipse it is zero at a start point near the diode one, whatever T. A
    protocol that is too fast (T = 150) must fall short. See
    notes/decisions.md.
    """
    with criterion("04b", "width-difference exponent of every traversal >= 15"):
        cw_loop = diode_loop(Direction.CW)
        running, spans = traversal_spans(cw_loop)
        # compares only the two quadratures (trapezoid here, Simpson there)
        phi = accumulated_phase(REF, cw_loop, DIODE_DURATION, n_samples=8192)
        assert running[-1] == pytest.approx(phi.imag, rel=1e-6)

        # a traversal that really starts at the least start point builds that
        # span, and yields the same least span
        n = len(running) - 1
        k = int(np.argmin(spans))
        shift = Direction.CW.sign * 2.0 * math.pi * k / n
        worst_running, worst_spans = traversal_spans(
            dataclasses.replace(cw_loop, start_phase=cw_loop.start_phase + shift)
        )
        assert np.ptp(worst_running) == pytest.approx(spans[k], rel=1e-6)
        assert worst_spans.min() == pytest.approx(spans[k], rel=1e-6)

        _, ccw_spans = traversal_spans(diode_loop(Direction.CCW))
        exponent = min(spans[k], ccw_spans.min())
        assert exponent >= 15.0, (
            f"width-difference exponent {exponent:.2f} < 15 at T = {DIODE_DURATION} "
            "(see notes/decisions.md)"
        )
        fast = min(
            traversal_spans(diode_loop(d, 150.0))[1].min() for d in (Direction.CW, Direction.CCW)
        )
        assert fast < 15.0, f"width-difference exponent {fast:.2f} >= 15 already at T = 150"


def test_criterion_05_adiabatic_prediction_fails():
    with criterion("05", "adiabatic flip prediction wrong in exactly 2 of 4 rows"):
        table = table1(REF, diode_loop(Direction.CW), ACCEPT)
        assert table.swapped is True
        for row in table.rows:
            assert row.adiabatic_final == 3 - row.initial_state
        cw_rows = [r for r in table.rows if r.direction is Direction.CW]
        ccw_rows = [r for r in table.rows if r.direction is Direction.CCW]
        assert len({r.exact_final for r in cw_rows}) == 1
        assert len({r.exact_final for r in ccw_rows}) == 1
        assert cw_rows[0].exact_final != ccw_rows[0].exact_final
        assert table.disagreements() == 2


def test_criterion_06_hermitian_control():
    with criterion("06", "closed-system control: norm, adiabatic trend, no chirality"):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, max_step=0.4)
        traj = propagate_direct(HERMITIAN_PARAMS, hermitian_loop(200.0), StateVector.basis(1), cfg)
        true_norm = traj.norms_sq * np.exp(traj.log_scale)
        assert np.max(np.abs(true_norm - 1.0)) < 10 * cfg.rel_tol

        leak_cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
        leakages = []
        for T in (25.0, 50.0, 100.0, 200.0):
            loop = hermitian_loop(T)
            _, _, v_plus, _, _, _ = _eigensystem(build_hamiltonian(HERMITIAN_PARAMS, loops.field_at(loop, 0.0)), KAPPA)
            traj = propagate_adiabatic(HERMITIAN_PARAMS, loop, StateVector(*v_plus), leak_cfg)
            final = traj.final_state / np.linalg.norm(traj.final_state)
            _, _, _, v_minus, _, _ = _eigensystem(build_hamiltonian(HERMITIAN_PARAMS, loops.field_at(loop, T)), KAPPA)
            v_other = np.array(v_minus) / np.linalg.norm(v_minus)
            leakages.append(abs(np.vdot(v_other, final)) ** 2)
        assert all(b < a for a, b in zip(leakages, leakages[1:])), leakages

        projections = {}
        for direction in (Direction.CW, Direction.CCW):
            loop = hermitian_loop(50.0, direction)
            traj = propagate_direct(HERMITIAN_PARAMS, loop, StateVector.basis(1), ACCEPT)
            # the final W1 = |c1|^2 / |c|^2
            projections[direction] = float(np.abs(traj.states[-1, 0]) ** 2 / traj.norms_sq[-1])
        assert abs(projections[Direction.CW] - projections[Direction.CCW]) < 1e-6


def test_criterion_07_non_encircling_control():
    with criterion("07", "no direction selectivity when the EP is outside"):
        ep = locate_ep(REF)
        assert rho(diode_control_loop(), ep) < 0
        initials = [StateVector.basis(1), StateVector.basis(2)] + random_superpositions()
        maps = traversal_columns(diode_control_loop)
        for init in initials:
            doms = set()
            for direction in (Direction.CW, Direction.CCW):
                traj = propagate_direct(REF, diode_control_loop(direction), init, ACCEPT, n_output=8)
                dom, _ = dominant_and_ratio(traj)
                assert map_dominant(maps[direction], init) == dom, (direction, init)
                doms.add(dom)
            assert len(doms) == 1, f"control loop became direction-selective: {doms}"


def test_criterion_08_propagator_cross_validation():
    with criterion("08", "adiabatic-frame route matches direct route; tolerance scaling"):
        loop = encircling_loop(50.0, Direction.CW)
        direct = propagate_direct(REF, loop, StateVector.basis(2), ACCEPT)
        adiab = propagate_adiabatic(REF, loop, StateVector.basis(2), ACCEPT)
        v_d = direct.final_state / np.linalg.norm(direct.final_state)
        v_a = adiab.final_state / np.linalg.norm(adiab.final_state)
        assert abs(np.vdot(v_d, v_a)) ** 2 > 1 - 1e-6

        # the diode loop in both directions, each started in the bare state
        # it selects; the bound is looser than above because of the transient
        # amplification on this loop (the traceless |u|^2 of the CW run from
        # state 1 rises to e^25.6 mid-loop), which lifts rounding in either
        # route far above its step tolerance
        for direction, start in ((Direction.CW, 1), (Direction.CCW, 2)):
            loop_d = diode_loop(direction)
            direct = propagate_direct(REF, loop_d, StateVector.basis(start), ACCEPT)
            adiab = propagate_adiabatic(REF, loop_d, StateVector.basis(start), ACCEPT)
            v_d = direct.final_state / np.linalg.norm(direct.final_state)
            v_a = adiab.final_state / np.linalg.norm(adiab.final_state)
            assert 1 - abs(np.vdot(v_d, v_a)) ** 2 < 1e-4, (direction, start)

        oracle = propagate_direct(
            REF, loop, StateVector.basis(2), IntegratorConfig(rel_tol=1e-13, abs_tol=1e-16)
        )
        ref_state = oracle.final_state / np.linalg.norm(oracle.final_state)
        errors = []
        for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            traj = propagate_direct(
                REF, loop, StateVector.basis(2), IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-4)
            )
            v = traj.final_state / np.linalg.norm(traj.final_state)
            errors.append(float(np.linalg.norm(v - ref_state)))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors


def test_criterion_09_sweep_regions():
    with criterion("09", "ratio-passing sweep cells concentrate at rho > 0"):
        t0 = time.perf_counter()
        spec = SweepSpec(
            template=diode_loop(Direction.CCW),
            durations=tuple(np.linspace(300.0, 375.0, 8)),
            amp_scales=tuple(0.05 * (1.3 / 0.05) ** (k / 7) for k in range(8)),
            direction=Direction.CCW,
            ratio_min=1000.0,
            dominant_target=2,
        )
        result = sweep(spec, REF, ACCEPT, jobs=4)
        assert not any(c.error for c in result.cells)
        passing = [c for c in result.cells if c.pass_ratio]
        assert len(passing) >= 1
        positive = [c for c in passing if c.rho > 0]
        assert len(positive) / len(passing) >= 0.95
        for j in range(len(spec.amp_scales)):
            column = [result.cell(i, j).survival for i in range(len(spec.durations))]
            assert all(b < a for a, b in zip(column, column[1:]))
        assert time.perf_counter() - t0 < 600.0


def test_criterion_10_reciprocal_exponents():
    with criterion("10", "coupling exponents reciprocal; sign flip under reversal"):
        T = DIODE_DURATION
        phi_cw = accumulated_phase(REF, diode_loop(Direction.CW), T, n_samples=8192)
        phi_ccw = accumulated_phase(REF, diode_loop(Direction.CCW), T, n_samples=8192)
        product = cmath.exp(1j * phi_cw) * cmath.exp(1j * phi_ccw)
        assert abs(product - 1.0) < 1e-8
        assert abs(phi_cw.imag) > 1.0
        assert phi_cw.imag * phi_ccw.imag < 0
        assert phi_cw.imag == pytest.approx(-phi_ccw.imag, rel=1e-6)
