"""Direct and adiabatic propagation, couplings, tracking, loop integrals."""

import cmath
import collections
import dataclasses
import math
import re
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import DOP853, simpson
from scipy.integrate._ivp import rk
from scipy.linalg import expm

from epdyn import (
    DEFAULT_PARAMS,
    DIODE_DURATION,
    HERMITIAN_PARAMS,
    Direction,
    EPOnContourError,
    FieldPoint,
    HamiltonianMatrix,
    IntegratorConfig,
    LoopSpec,
    NonFiniteError,
    StateVector,
    StaticDrive,
    SystemParams,
    accumulated_phase,
    build_hamiltonian,
    c_product,
    diode_control_loop,
    diode_loop,
    encircling_loop,
    hermitian_loop,
    propagate_adiabatic,
    propagate_direct,
    track_branches,
    winding_number,
)
from epdyn import loops, traversal
from epdyn.analysis import survival_fraction
from epdyn import propagation as prop
from epdyn.errors import AmbiguousTrackingError, EpdynError, StepBudgetError, StepSizeUnderflowError
from epdyn.model import _traceless
from epdyn.propagation import TrajectoryRecord
from epdyn.serialize import trajectory_to_csv, trajectory_to_json
from coupling_reference import na_coupling, na_coupling_at
from frame_reference import KAPPA, _eigensystem
import dop853_reference
import traversal_reference
from row_reference import dop853_interp, finalize

REF = DEFAULT_PARAMS
TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)


def normalized_final(traj):
    v = traj.final_state
    return v / np.linalg.norm(v)


def normalized(traj) -> np.ndarray:
    """Every row of the record, normalized."""
    return traj.states / np.linalg.norm(traj.states, axis=1, keepdims=True)


def counts(traj) -> dict:
    """The run's solver counts, without ``reused``."""
    return {k: v for k, v in traj.meta["solver"].items() if k != "reused"}


def fidelity(a, b) -> float:
    return abs(np.vdot(a, b)) ** 2


class TestStateVector:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            StateVector(0, 0)

    @pytest.mark.parametrize(
        "c1, c2, name",
        [(math.nan, 0.0, "c1"), (1.0, complex(0.0, math.inf), "c2"), (math.inf, 1.0, "c1")],
    )
    def test_rejects_non_finite(self, c1, c2, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            StateVector(c1, c2)

    def test_equal_superposition(self):
        sv = StateVector.equal_superposition(math.pi / 2)
        assert abs(sv.c1) == pytest.approx(abs(sv.c2))
        assert sv.c2 / sv.c1 == pytest.approx(1j)

    def test_coerce_takes_a_pair_and_keeps_a_state(self):
        sv = StateVector.coerce((1, 2j))
        assert (sv.c1, sv.c2) == (1.0, 2j) and type(sv.c1) is complex
        assert StateVector.coerce(sv) is sv

    @pytest.mark.parametrize("index", [0, 3])
    def test_basis_has_two_states(self, index):
        with pytest.raises(ValueError, match="^basis index must be 1 or 2$"):
            StateVector.basis(index)


class TestTrajectoryRecord:
    @pytest.mark.parametrize(
        "times, message",
        [
            ([0.0], "times must be a 1-D array with at least two entries"),
            ([[0.0, 1.0], [2.0, 3.0]], "times must be a 1-D array with at least two entries"),
            ([0.5, 1.0], "times must increase strictly from 0"),
            ([0.0, 1.0, 1.0], "times must increase strictly from 0"),
            ([0.0, 2.0, 1.0], "times must increase strictly from 0"),
        ],
        ids=["one-row", "2-D", "late-start", "repeated", "decreasing"],
    )
    def test_refuses_bad_times(self, times, message):
        n = len(times)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrajectoryRecord(np.array(times), np.ones((n, 2), dtype=complex), np.full(n, 2.0), np.zeros(n))


@pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
@pytest.mark.parametrize("n_output", [-1, 0, 1])
def test_both_routes_refuse_fewer_than_two_output_intervals(propagate, n_output):
    with pytest.raises(ValueError, match="^n_output must be >= 2$"):
        propagate(REF, encircling_loop(50.0), StateVector.basis(1), n_output=n_output)


class TestIntegratorConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)

    def test_rejects_unattainable_rel_tol(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=1e-15)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("rel_tol", math.nan, "rel_tol must be finite"),
            ("rel_tol", math.inf, "rel_tol must be finite"),
            ("abs_tol", math.nan, "abs_tol must be finite"),
            ("initial_step", math.inf, "initial_step must be finite"),
            ("max_step", math.nan, "max_step must be > 0"),
        ],
    )
    def test_rejects_non_finite(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            IntegratorConfig(**{name: value})

    def test_infinite_max_step_means_no_cap(self):
        assert IntegratorConfig(max_step=math.inf).max_step == math.inf


class TestDirectPropagation:
    def test_static_decay(self):
        drive = StaticDrive(FieldPoint(1.0, 0.0), 5.0)
        traj = propagate_direct(REF, drive, StateVector.basis(1), TIGHT)
        assert traj.true_norm_sq() == pytest.approx(math.exp(-1.0), rel=1e-8)
        assert traj.log_scale[-1] == 0.0

    def test_resonant_rabi_flop(self):
        g = 0.1
        drive = StaticDrive(FieldPoint(1.0, 0.2), math.pi / (2 * g))
        traj = propagate_direct(HERMITIAN_PARAMS, drive, StateVector.basis(1), TIGHT)
        w2 = abs(traj.final_state[1]) ** 2 / traj.norms_sq[-1]
        assert w2 == pytest.approx(1.0, abs=1e-8)

    def test_matches_matrix_exponential_static(self):
        drive = StaticDrive(FieldPoint(1.07, 0.31), 7.0)
        traj = propagate_direct(REF, drive, StateVector(0.6, 0.8j), TIGHT)
        h = build_hamiltonian(REF, drive.field).as_array()
        expected = expm(-1j * h * 7.0) @ np.array([0.6, 0.8j])
        np.testing.assert_allclose(traj.final_state, expected, rtol=1e-8, atol=1e-12)

    def test_output_grid(self):
        loop = hermitian_loop(10.0)
        traj = propagate_direct(HERMITIAN_PARAMS, loop, StateVector.basis(1), n_output=512)
        assert len(traj.times) == 513
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
        assert np.all(np.diff(traj.times) > 0)

    def test_grid_interpolation_accuracy(self):
        # interior grid records come from the solver's dense output; check
        # them against the exact static-field propagator
        drive = StaticDrive(FieldPoint(1.02, 0.27), 8.0)
        traj = propagate_direct(REF, drive, StateVector(0.3, 0.9), TIGHT, n_output=32)
        h = build_hamiltonian(REF, drive.field).as_array()
        for k in (7, 15, 23):
            expected = expm(-1j * h * traj.times[k]) @ np.array([0.3, 0.9])
            np.testing.assert_allclose(traj.states[k], expected, rtol=1e-8, atol=1e-12)

    def test_linearity(self):
        loop = encircling_loop(20.0)
        c = TIGHT
        t1 = propagate_direct(REF, loop, StateVector.basis(1), c)
        t2 = propagate_direct(REF, loop, StateVector.basis(2), c)
        alpha, beta = 0.3 + 0.4j, -0.7 + 0.2j
        t12 = propagate_direct(REF, loop, StateVector(alpha, beta), c)
        combined = alpha * t1.final_state + beta * t2.final_state
        np.testing.assert_allclose(t12.final_state, combined, rtol=1e-7, atol=1e-12)

    def test_norm_decay_bounds(self):
        # with a real dipole and positive widths the true norm is sandwiched
        # between the pure fast and pure slow exponentials
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.3),
            semi_axis_omega=0.1,
            semi_axis_eps=0.2,
            direction=Direction.CCW,
            duration_T=30.0,
        )
        traj = propagate_direct(REF, loop, StateVector.equal_superposition(), TIGHT)
        true_norm = traj.norms_sq * np.exp(traj.log_scale)
        ratio = true_norm / true_norm[0]
        assert np.all(np.diff(ratio) <= 1e-12)
        g_min, g_max = 2 * REF.gamma1, 2 * REF.gamma2
        assert np.all(ratio <= np.exp(-g_min * traj.times) * (1 + 1e-7))
        assert np.all(ratio >= np.exp(-g_max * traj.times) * (1 - 1e-7))

    def test_hermitian_norm_conservation(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
        loop = hermitian_loop(200.0)
        traj = propagate_direct(HERMITIAN_PARAMS, loop, StateVector.basis(1), cfg)
        true_norm = traj.norms_sq * np.exp(traj.log_scale)
        assert np.max(np.abs(true_norm - 1.0)) < 10 * cfg.rel_tol

    def test_rescaling_bookkeeping_extreme_decay(self):
        # long strongly decaying run crosses the representable window; the
        # stored norms stay finite and the log-scale carries the decay. In
        # the traceless frame the uncoupled columns of U move as exp(+-0.2 t)
        # in |u|^2, about e^+-500 over the run, so each is rescaled twice
        drive = StaticDrive(FieldPoint(1.0, 0.0), 2500.0)
        traj = propagate_direct(REF, drive, StateVector.basis(2), TIGHT, n_output=64)
        assert traj.meta["solver"]["renormalizations"] == 4
        assert np.all(np.isfinite(traj.states.view(float)))
        log_survival = traj.log_scale[-1] + math.log(traj.norms_sq[-1])
        assert log_survival == pytest.approx(-2 * REF.gamma2 * 2500.0, rel=1e-6)
        assert traj.log_scale[-1] != 0.0

    @pytest.mark.parametrize("state", [1, 2])
    def test_a_column_far_below_the_other_keeps_its_digits(self, state):
        # uncoupled at T = 4000, the columns of U end e^1600 apart in |u|^2:
        # each is rescaled on its own norm, so state 2 is not the subnormal
        # remainder of a matrix scaled to state 1's column (-2391.5 then)
        drive = StaticDrive(FieldPoint(1.0, 0.0), 4000.0)
        traj = propagate_direct(REF, drive, StateVector.basis(state), TIGHT, n_output=64)
        log_survival = traj.log_scale[-1] + math.log(traj.norms_sq[-1])
        gamma = REF.gamma1 if state == 1 else REF.gamma2
        assert log_survival == pytest.approx(-2 * gamma * 4000.0, rel=1e-6)

    @pytest.mark.parametrize("c1, c2", [(1e300, 1e300), (complex(1.5e308, 1.5e308), 0.0)])
    def test_overflowing_initial_state_is_scaled(self, c1, c2):
        # finite amplitudes whose squared norm or modulus overflows float64
        # enter the rows by a power of two, as on the adiabatic route: the
        # record is the one of the state 2^1024 times smaller, its squared
        # norm 2^2048 times larger
        drive = StaticDrive(FieldPoint(1.0, 0.2), 1.0)
        big = propagate_direct(REF, drive, StateVector(c1, c2), n_output=8)
        c1s, c2s = (complex(math.ldexp(complex(c).real, -1024), math.ldexp(complex(c).imag, -1024)) for c in (c1, c2))
        small = propagate_direct(REF, drive, StateVector(c1s, c2s), n_output=8)
        assert np.isfinite(big.states.view(float)).all() and np.isfinite(big.log_scale).all()
        log_n2 = [np.log(traj.norms_sq) + traj.log_scale for traj in (big, small)]
        np.testing.assert_allclose(log_n2[0], log_n2[1] + 2048.0 * math.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(*(normalized(traj) for traj in (big, small)), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    def test_underflowing_initial_state(self, propagate, direction):
        # every square of c1 = 1e-200 underflows, so |c|^2 reads 0: the rows
        # stay finite and the survival is the unit state's
        loop = diode_loop(direction)
        tiny = propagate(REF, loop, StateVector(1e-200, 0.0), TIGHT)
        unit = propagate(REF, loop, StateVector(1.0, 0.0), TIGHT)
        assert np.isfinite(tiny.states.view(float)).all() and np.isfinite(tiny.log_scale).all()
        assert tiny.log_scale[0] == pytest.approx(2.0 * math.log(1e-200))
        assert survival_fraction(tiny) == pytest.approx(survival_fraction(unit), rel=1e-12, abs=0.0)
        if propagate is propagate_direct:
            # c0 enters by a power of two, so both states take the loop's one run of U
            assert (tiny.meta["solver"]["reused"], unit.meta["solver"]["reused"]) == (False, True)
            assert counts(tiny) == counts(unit)
            np.testing.assert_allclose(tiny.states, unit.states, rtol=1e-12)

    @pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
    def test_subnormal_initial_state(self, propagate):
        # the state enters the rows by ldexp on its parts, before the
        # adiabatic route's projection, which would round a subnormal state
        # away (and 2^1073 overflowed: NonFiniteError): 2^-1074 gives the
        # rows of 2^-1
        drive = StaticDrive(FieldPoint(1.1, 0.2), 1.0)
        tiny = propagate(REF, drive, StateVector(5e-324, 0.0), n_output=8)
        half = propagate(REF, drive, StateVector(0.5, 0.0), n_output=8)
        assert np.isfinite(tiny.states.view(float)).all() and np.isfinite(tiny.log_scale).all()
        np.testing.assert_allclose(normalized(tiny), normalized(half), rtol=1e-12)
        assert survival_fraction(tiny) == pytest.approx(survival_fraction(half), rel=1e-12, abs=0.0)

    def test_huge_rates_end_in_the_step_budget(self):
        # e1 = 1e100 drives the step to about 1e-100; the run stops once
        # (T - t)/h predicts more than 2^17 steps past the 1e4 taken
        params = SystemParams(e1=1e100, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1.0)
        start = time.perf_counter()
        with pytest.raises(StepBudgetError, match="10001 steps"):
            propagate_direct(params, StaticDrive(FieldPoint(1.0, 0.4), 10.0), StateVector.basis(1))
        assert time.perf_counter() - start < 5.0

    def test_tolerance_controls_error(self):
        loop = encircling_loop(30.0)
        oracle = propagate_direct(REF, loop, StateVector.basis(2), IntegratorConfig(rel_tol=1e-13, abs_tol=1e-16))
        ref_state = normalized_final(oracle)
        loose = propagate_direct(REF, loop, StateVector.basis(2), IntegratorConfig(rel_tol=1e-6, abs_tol=1e-10))
        tight = propagate_direct(REF, loop, StateVector.basis(2), IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14))
        err_loose = np.linalg.norm(normalized_final(loose) - ref_state)
        err_tight = np.linalg.norm(normalized_final(tight) - ref_state)
        assert err_tight < err_loose


def _in_order(K, weights) -> list:
    """sum_j w_j K[j] for each component, over the stages in order from a 0j accumulator, in Python scalars."""
    total = [0j] * K.shape[1]
    for w, k in zip(weights.tolist(), K.tolist()):
        total = [s + w * z for s, z in zip(total, k)]
    return total


def _squares(z) -> float:
    """sum_i |z_i|^2 in the components' order, each |z|^2 as z.re z.re + z.im z.im."""
    total = 0.0
    for x in z:
        total += x.real * x.real + x.imag * x.imag
    return total


def _rk_step_in_order(fun, t, y, f, h, A, B, C, K):
    """scipy's ``rk_step`` with its stage sums ``np.dot(K[:s].T, a[:s])`` taken by ``_in_order``."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        K[s] = fun(t + c * h, y + np.array(_in_order(K[:s], a[:s])) * h)
    y_new = y + h * np.array(_in_order(K[:-1], B))
    K[-1] = f_new = fun(t + h, y_new)
    return y_new, f_new


class _InOrderDOP853(DOP853):
    """scipy's DOP853 with its error norm in Python scalars, in the order of ``_in_order`` and ``_squares``.

    The scale atol + max(|y|, |y_new|) rtol is taken again with ``abs``, and
    each estimate divided by it as a Python complex; the formula is scipy's.
    """

    def _estimate_error_norm(self, K, h, scale):
        new = self.y + h * np.array(_in_order(K[:-1], self.B))
        scale = [self.atol + max(abs(a), abs(b)) * self.rtol for a, b in zip(self.y.tolist(), new.tolist())]
        err5 = _squares(e / s for e, s in zip(_in_order(K, self.E5), scale))
        err3 = _squares(e / s for e, s in zip(_in_order(K, self.E3), scale))
        if err5 == 0 and err3 == 0:
            return 0.0
        return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))


def scipy_direct(params, drive, initial, config, n_output):
    """Oracle: scipy's DOP853 class on the flattened fundamental matrix, each row U(t_k) c0.

    U steps as its columns (U00, U10, U01, U11) from the identity, with
    dense output on every step, never rescaled, so a case's unscaled U must
    fit float64. The RHS, the stage sums and the error
    norm run in Python scalars (``_InOrderDOP853``, ``_rk_step_in_order``),
    as the package's run does; scipy's controller, step loop and dense
    output are its own. numpy's vector arithmetic rounds otherwise on four
    components: ``np.dot`` sums in its BLAS kernel's order (OpenBLAS
    0.3.31's zgemv on four or more columns does not sum in order, and its
    ddot fuses multiply-adds), ``np.abs`` is not libm's ``hypot``, and a
    complex array divided by a real one multiplies by the reciprocal. On
    the diode loop the error estimate is mostly rounding, so one ulp of it
    moves the next step, and with numpy's arithmetic the rows ended 1.5e-5
    (CW) and 7.4e-5 (CCW) apart. With the scalar sums every step is the
    package's, bit for bit. Returns the record and the accepted and rejected steps.
    """
    T = drive.duration_T

    def rhs(t, u):
        fp = loops.field_at(drive, min(max(t, 0.0), T))
        a, g = _traceless(params, fp.omega, fp.eps0)
        v0, w0, v1, w1 = u.tolist()
        return np.array([-1j * (a * v0 + g * w0), -1j * (g * v0 - a * w0),
                         -1j * (a * v1 + g * w1), -1j * (g * v1 - a * w1)])

    trials = []

    def rk_step(*args):  # one call per step tried
        trials.append(args[1])
        return _rk_step_in_order(*args)

    grid = np.linspace(0.0, T, n_output + 1)
    u = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    times, rows = [0.0], [u]
    gi, accepted = 1, 0
    first = min(config.initial_step, config.max_step, 0.5 * T)
    with mock.patch.object(rk, "rk_step", rk_step):
        solver = _InOrderDOP853(rhs, 0.0, u, t_bound=T, rtol=config.rel_tol, atol=config.abs_tol,
                                max_step=config.max_step, first_step=first)
        while solver.status == "running":
            solver.step()
            assert solver.status != "failed"
            accepted += 1
            dense = solver.dense_output()
            while gi <= n_output and grid[gi] <= solver.t:
                times.append(grid[gi])
                rows.append(dense(grid[gi]))
                gi += 1
    raw = [row.reshape(2, 2).T @ initial.as_array() for row in rows]
    states, norms, logs = finalize(params, drive, times, raw, [0.0] * len(times))
    return TrajectoryRecord(np.array(times), states, norms, logs), accepted, len(trials) - accepted


ORACLE_CASES = {
    f"{name}-{d.value}-state{s}": (params, make_loop(d), s)
    for d in (Direction.CW, Direction.CCW)
    for name, params, make_loop, states in (
        ("encircling50", REF, lambda d: encircling_loop(50.0, d), (1, 2)),
        ("hermitian50", HERMITIAN_PARAMS, lambda d: hermitian_loop(50.0, d), (1, 2)),
        ("diode_control", REF, diode_control_loop, (1, 2)),
        ("diode", REF, diode_loop, (2,)),
    )
    for s in states
}
# uncoupled, U's columns move as e^(+-0.2 t) in |u|^2: the run rescales each twice, while the unscaled U fits float64
ORACLE_CASES.update({
    f"uncoupled2500-state{s}": (REF, StaticDrive(FieldPoint(1.0, 0.0), 2500.0), s) for s in (1, 2)
})


class TestDirectStepperAgainstScipy:
    @pytest.mark.parametrize("params, loop, state", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_same_steps_and_grid_rows(self, params, loop, state):
        # the oracle's rows take the package's log scale (the same, a factor of 1, where no row renormalizes)
        traj = propagate_direct(params, loop, StateVector.basis(state), TIGHT, n_output=64)
        oracle, accepted, rejected = scipy_direct(params, loop, StateVector.basis(state), TIGHT, n_output=64)
        assert (traj.meta["solver"]["accepted"], traj.meta["solver"]["rejected"]) == (accepted, rejected)
        np.testing.assert_array_equal(traj.times, oracle.times)
        np.testing.assert_allclose(traj.log_scale, oracle.log_scale, rtol=1e-12, atol=0.0)
        restored = oracle.states * np.exp(0.5 * (oracle.log_scale - traj.log_scale))[:, None]
        rel = np.linalg.norm(traj.states - restored, axis=1) / np.linalg.norm(restored, axis=1)
        assert rel.max() <= 1e-12, rel.max()

    def test_dense_output_only_on_steps_holding_a_grid_time(self, monkeypatch):
        # 12 RHS calls per step tried (2 are rejected here), 3 more on each
        # of the 8 steps that hold a grid time, 1 at t = 0. The loop-based reference stepper evaluates
        # the drive kernel once per call, and the array pass takes the drive
        # at the 3 extra stages of those 8 steps only; the scipy oracle,
        # whose RHS goes through loops.field_at, builds the interpolant on
        # every step
        calls, stage_times = [], []
        make_kernel = dop853_reference._traceless_kernel

        def counting_kernel(drive, params):
            kernel = make_kernel(drive, params)
            return lambda t: calls.append(t) or kernel(t)

        fields_at = loops._fields_at
        monkeypatch.setattr(dop853_reference, "_traceless_kernel", counting_kernel)
        monkeypatch.setattr(prop, "_fields_at", lambda drive, t: stage_times.extend(t) or fields_at(drive, t))
        loop, init = diode_loop(Direction.CCW), StateVector.basis(2)
        solver = counts(propagate_direct(REF, loop, init, TIGHT, n_output=8))
        assert solver == dop853_reference.propagate_direct(REF, loop, init, TIGHT, n_output=8).meta["solver"]
        assert solver["rhs_calls"] == len(calls)
        assert solver["rhs_calls"] == 12 * (solver["accepted"] + solver["rejected"]) + 3 * 8 + 1
        assert solver["rejected"] == 2 and len(stage_times) == 3 * 8
        calls.clear()
        field_at = loops.field_at
        monkeypatch.setattr(loops, "field_at", lambda loop, t: calls.append(t) or field_at(loop, t))
        _, accepted, rejected = scipy_direct(REF, loop, init, TIGHT, n_output=8)
        assert (accepted, rejected) == (solver["accepted"], solver["rejected"])
        assert len(calls) == 15 * accepted + 12 * solver["rejected"] + 1


@pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
def test_solver_reports_the_accepted_step_sizes(propagate):
    # the direct route's min_step and max_step are the extremes of the
    # accepted steps, the last one (clipped to T) included: the differences
    # of the step ends that the loop-based stepper's record_internal keeps,
    # with the grid rows inside steps taken out. The adiabatic route takes
    # meta["solver"]["steps"] uniform steps: the settled count (512 here),
    # so at a power-of-two n_output at or above it every step end is a row
    loop = encircling_loop(50.0, Direction.CW)
    if propagate is propagate_adiabatic:
        traj = propagate(REF, loop, StateVector.basis(2), TIGHT, n_output=512)
        solver = traj.meta["solver"]
        assert solver["steps"] == traversal._FIRST_STEPS << solver["doublings"] == 512
        assert len(traj.times) == solver["steps"] + 1
        np.testing.assert_allclose(np.diff(traj.times), 50.0 / solver["steps"], rtol=1e-12)
        return
    solver = counts(propagate(REF, loop, StateVector.basis(2), TIGHT, n_output=2))
    internal = dop853_reference.propagate_direct(REF, loop, StateVector.basis(2), TIGHT, n_output=2,
                                                 record_internal=True)
    assert internal.meta["solver"] == solver
    ends = np.union1d([0.0, 50.0], np.setdiff1d(internal.times, [25.0]))
    assert ends.size == solver["accepted"] + 1
    steps = np.diff(ends)
    assert (solver["min_step"], solver["max_step"]) == (steps.min(), steps.max())
    assert TIGHT.initial_step >= solver["min_step"] and solver["max_step"] > 10 * solver["min_step"]


def bits(a) -> bytes:
    """The raw bytes of an array: equal only if every value, signed zeros too, is equal."""
    return np.ascontiguousarray(a).tobytes()


def decisive_rows(edge: float, count: int = 8) -> list:
    """(|state|, log_internal) of rows whose log true norm^2 is on either side of ``edge`` by numpy's log and math.log.

    Above |edge| = 345 the sum's ulp is u = 2^-44, so a log |state|^2 of 1 ulp
    more can round the sum with log_internal = edge - r u one u higher; the
    search takes |state|^2 = e^L for L near the rounding midpoints (r - 1/2) u.
    """
    u = 2.0**-44
    r = np.round(-0.2 / u) + np.arange(40000) * 1_000_003
    found = []
    for step in range(-3, 4):
        state = np.sqrt(np.exp((r - 0.5) * u)) * (1.0 + step * 2.0**-52)
        n2 = np.float_power(state, 2.0)
        by_numpy, by_math = np.log(n2), np.fromiter(map(math.log, n2.tolist()), float)
        for log_in in (edge - r * u, edge - (r - 1.0) * u):
            inside = lambda log_n2: (prop._LOG_RECORD_LO < log_n2 + log_in) & (log_n2 + log_in < prop._LOG_RECORD_HI)
            hit = inside(by_numpy) != inside(by_math)
            found += list(zip(state[hit].tolist(), log_in[hit].tolist()))
    assert len(found) >= count
    return found[:count]


#: decays by e^-8 per unit time: the record renormalizes about every 43 time units
DECAYING = SystemParams(e1=0.0, e2=1.0, gamma1=3.0, gamma2=5.0, d12=1.0)

ROW_CASES = {
    "direct-diode": (propagate_direct, REF, diode_loop(Direction.CW), 1, {}),
    "direct-static": (propagate_direct, REF, StaticDrive(FieldPoint(1.07, 0.31), 7.0), 1, {"n_output": 64}),
    "direct-renormalizing": (propagate_direct, DECAYING, StaticDrive(FieldPoint(0.5, 0.3), 400.0), 1, {}),
    "adiabatic-encircling": (propagate_adiabatic, REF, encircling_loop(50.0, Direction.CW), 2, {}),
    # the loop settles at 512 steps, so every step end is a row
    "adiabatic-internal": (propagate_adiabatic, REF, encircling_loop(50.0, Direction.CCW), 1, {"n_output": 512}),
    "adiabatic-static": (propagate_adiabatic, REF, StaticDrive(FieldPoint(1.07, 0.31), 7.0), 2, {"n_output": 64}),
    "adiabatic-renormalizing": (
        propagate_adiabatic, DECAYING, StaticDrive(FieldPoint(0.5, 0.3), 400.0), 1, {"n_output": 300}
    ),
}


#: the finisher's true states and squared norms lie within these many ulps of the scalar loop's (relative),
#: plus the rounding of each exp argument's log terms where the two offsets differ
STATE_ULPS, NORM_ULPS = 4, 8
#: numpy's log and the scalar loop's math.log of a squared norm from re^2 + im^2 and from pow(hypot(), 2)
#: place a row within this times (1 + |log n^2| + |log_total| + |offset|) of each other: 2^-44 is 512 u
#: (u = 2^-53) per unit of those sizes, where the squares, the logs and the sums each round by a few u
DECISION_MARGIN = 2.0**-44


def row_failures(got, want, params, times, raw, log_internal) -> list:
    """The properties the finisher's (states, norms_sq, log_scale) ``got`` breaks against the scalar loop's ``want``.

    - true values: states e^(log_scale/2) and norms_sq e^log_scale within
      ``STATE_ULPS`` and ``NORM_ULPS`` of the scalar loop's, relative, with
      the rounding of the exp arguments (|log_total - offset| ulps) added
      where the offsets differ;
    - decisions: a row renormalizes where the scalar loop's rule, applied
      to the log true norm^2 it takes (``math.log``) and the offset the row
      meets, says it does, except within ``DECISION_MARGIN`` of an edge,
      and a new offset is that log to within the margin;
    - window: every stored squared norm lies in [1e-150, 1e150] to within
      the margin.

    The scalar loop's rows are ``row_reference.finalize``; an empty list
    means every property holds.
    """
    states, norms, logs = got
    ref_states, ref_norms, ref_logs = want
    eps = np.finfo(float).eps
    log_total = -2.0 * (0.5 * (params.gamma1 + params.gamma2)) * np.asarray(times) + np.asarray(log_internal)
    log_n2 = np.array([math.log(abs(r0) ** 2 + abs(r1) ** 2) for r0, r1 in np.asarray(raw).tolist()])
    log_true = log_n2 + log_total
    met = np.concatenate([[0.0], logs[:-1]])  # the offset each row meets
    margin = DECISION_MARGIN * (1.0 + np.abs(log_n2) + np.abs(log_total) + np.abs(met))
    failures = []
    slack = np.where(logs != ref_logs, np.abs(log_total - logs) + np.abs(log_total - ref_logs), 0.0)
    to_ref = 0.5 * (logs - ref_logs)
    moved_by = np.exp(to_ref)[:, None]
    state_err = np.linalg.norm(states * moved_by - ref_states, axis=1) / np.linalg.norm(ref_states, axis=1)
    if not (state_err <= eps * (STATE_ULPS + slack)).all():
        failures.append("true states")
    if not (np.abs(norms * np.exp(2.0 * to_ref) - ref_norms) <= eps * (NORM_ULPS + 2.0 * slack) * ref_norms).all():
        failures.append("true squared norms")
    shift = log_true - met
    leaves = ~((prop._LOG_RECORD_LO < shift) & (shift < prop._LOG_RECORD_HI))
    near = ~(np.minimum(np.abs(shift - prop._LOG_RECORD_LO), np.abs(shift - prop._LOG_RECORD_HI)) > margin)
    moved = logs != met
    if ((moved != leaves) & ~near).any():
        failures.append("decisions")
    if not (np.abs(logs - log_true) <= margin)[moved].all():
        failures.append("new offsets")
    log_stored = np.log(norms)
    edge = DECISION_MARGIN * (1.0 + np.abs(log_total) + np.abs(logs))
    if not ((prop._LOG_RECORD_LO - edge < log_stored) & (log_stored < prop._LOG_RECORD_HI + edge)).all():
        failures.append("window")
    return failures


def synthetic_rows(drive):
    """(times, raw, log_internal) where every row renormalizes.

    Odd rows have |state| near 1 and no rescaling, so log_scale holds their
    log |state|^2; even rows reach 10^+-100 and e^+-300, so the exp, the
    moduli and the squares cover the range.
    """
    rng = np.random.default_rng(11)
    m = 16384
    times = np.sort(rng.uniform(0.0, drive.duration_T, m))
    times[0] = 0.0
    odd = np.arange(m) % 2 == 1
    sign = rng.choice([-1.0, 1.0], m)
    magnitude = np.where(odd, rng.uniform(0.3, 3.0, m), 10.0 ** (100.0 * sign))
    raw = (rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))) * magnitude[:, None]
    return times, raw, np.where(odd, 0.0, sign * rng.uniform(0.0, 300.0, m))


def finished(params, drive, times, raw, log_internal) -> tuple:
    """``_finalize`` of the rows at ``times`` on the drive, with the trace factor and decay a kept entry holds."""
    return prop._finalize(raw, log_internal, prop._trace_factor(params, drive, times), prop._decay(params, times))


class TestRowsAgainstReference:
    """``_finalize`` on whole columns against the recorder's scalar loop in ``row_reference`` (``row_failures``)."""

    @pytest.mark.parametrize("propagate, params, drive, state, kwargs", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_bits_equal_the_scalar_loop(self, monkeypatch, propagate, params, drive, state, kwargs):
        # the routes' records: within a few ulps of the scalar loop, the same renormalizations
        calls = []
        array_finalize = prop._finalize
        monkeypatch.setattr(prop, "_finalize", lambda *args: calls.append(args) or array_finalize(*args))
        traj = propagate(params, drive, StateVector.basis(state), TIGHT, **kwargs)
        # the reference takes the drive and computes its own trace phase and decay, so the kept factors are checked too
        ((raw, log_internal, _, _),) = calls
        want = finalize(params, drive, traj.times, raw, log_internal)
        got = (traj.states, traj.norms_sq, traj.log_scale)
        assert row_failures(got, want, params, traj.times, raw, log_internal) == []
        if params is DECAYING:
            assert len(set(traj.log_scale.tolist())) > 5  # the record renormalized

    @pytest.mark.parametrize("drive", [encircling_loop(1.0), StaticDrive(FieldPoint(1.07, 0.31), 1.0)],
                             ids=["loop", "static"])
    def test_synthetic_rows(self, drive):
        times, raw, log_internal = synthetic_rows(drive)
        # no decay (gamma1 = gamma2 = 0), so an odd row's log is not rounded into a larger sum
        got = finished(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        want = finalize(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        assert row_failures(got, want, HERMITIAN_PARAMS, times, raw, log_internal) == []
        assert len(set(got[2].tolist())) == len(times)

    def test_wrong_finishers_fail(self, monkeypatch):
        # each property of row_failures is seen to fail: a finisher that drops the trace
        # factor, one whose offsets move a row late, and one that flips the scale's sign
        drive = encircling_loop(1.0)
        times, raw, log_internal = synthetic_rows(drive)
        trace = prop._trace_factor(HERMITIAN_PARAMS, drive, times)
        want = finalize(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        offsets, exp = prop._offsets, np.exp
        patches = {
            "no trace": lambda patch: patch.setattr(prop, "_trace_factor", lambda *args: np.ones_like(trace)),
            "late offset": lambda patch: patch.setattr(
                prop, "_offsets", lambda *args: np.concatenate([[0.0], offsets(*args)[:-1]])),
            "scale sign": lambda patch: patch.setattr(np, "exp", lambda x: exp(-x)),
        }
        failures = {}
        for name, wrong in patches.items():
            # a flipped scale takes stored rows past float64
            with monkeypatch.context() as patch, np.errstate(all="ignore"):
                wrong(patch)
                got = finished(HERMITIAN_PARAMS, drive, times, raw, log_internal)
            with np.errstate(all="ignore"):
                failures[name] = row_failures(got, want, HERMITIAN_PARAMS, times, raw, log_internal)
        assert failures == {
            "no trace": ["true states"],
            # the rows kept past the window under- and overflow their squared norms
            "late offset": ["true squared norms", "decisions", "new offsets", "window"],
            "scale sign": ["true states", "true squared norms", "window"],
        }

    @pytest.mark.parametrize("size", [1.0, 1e-65, 1e65])
    def test_rows_at_the_window_edges(self, size):
        # every row's log true norm^2 lies a few ulps from an edge of the window
        # relative to the scalar loop's offset, so the last bits of the log and
        # the squares decide whether it renormalizes; |state| near size, so that
        # at 1e+-65 the log |state|^2 (+-300) is in the binade of the edges (+-345)
        rng = np.random.default_rng(23)
        m = 4000
        raw = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        raw *= size * np.sqrt(rng.uniform(0.5, 1.5, m) / prop._norms_sq(raw))[:, None]
        log_internal, offset, moved = np.empty(m), 0.0, []
        for k, (r0, r1) in enumerate(raw.tolist()):
            log_n2 = math.log(abs(r0) ** 2 + abs(r1) ** 2)
            edge = prop._LOG_RECORD_HI if rng.random() < 0.5 else prop._LOG_RECORD_LO
            target = offset + edge + int(rng.integers(-4, 5)) * math.ulp(edge)
            log_internal[k] = target - log_n2
            log_true = log_n2 + log_internal[k]
            moved.append(not prop._LOG_RECORD_LO < log_true - offset < prop._LOG_RECORD_HI)
            offset = log_true if moved[-1] else offset
        times = np.linspace(0.0, 1.0, m)
        drive = StaticDrive(FieldPoint(1.07, 0.31), 1.0)
        # no decay (gamma1 = gamma2 = 0), so log_total is log_internal
        got = finished(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        want = finalize(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        assert row_failures(got, want, HERMITIAN_PARAMS, times, raw, log_internal) == []
        assert 0.2 * m < sum(moved) < 0.8 * m  # both outcomes, many times each

    def test_rows_where_the_last_bit_of_the_log_decides(self):
        # rows whose log true norm^2 lands on one side of an edge by math.log and
        # on the other by numpy's log (1 ulp apart); each comes after two rows that
        # bring the offset back to exactly 0, so half of them renormalize
        rows, log_internal = [], []
        for state, log_in in decisive_rows(prop._LOG_RECORD_HI) + decisive_rows(prop._LOG_RECORD_LO):
            rows += [(1.0, 0.0), (1.0, 0.0), (state, 0.0)]
            log_internal += [-400.0, 0.0, log_in]  # offset -400, then 0
        raw, log_internal = np.array(rows, dtype=complex), np.array(log_internal)
        times = np.linspace(0.0, 1.0, len(raw))
        drive = StaticDrive(FieldPoint(1.07, 0.31), 1.0)
        got = finished(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        want = finalize(HERMITIAN_PARAMS, drive, times, raw, log_internal)
        assert row_failures(got, want, HERMITIAN_PARAMS, times, raw, log_internal) == []
        moved = want[2][2::3] != 0.0
        assert moved.any() and not moved.all()

    def test_dense_output_is_scipys_loop(self):
        # the array pass's Horner chains give the bits of scipy's loop, on 60
        # steps of the loop-based reference stepper at 7 times each
        rhs = dop853_reference.kernel_rhs(diode_loop(Direction.CCW), REF)
        stepper = dop853_reference._Dop853(rhs, (0.6 + 0j, 0.8j, -0.3j, 0.2 + 0j), DIODE_DURATION, TIGHT)
        held, values, times, reference = [], [], [], []
        for _ in range(60):
            stepper.step()
            stepper.dense()
            interp = dop853_interp(stepper)
            held.append((stepper.t_old, stepper.h, 7))
            values.append((*stepper.y_old, *stepper.y, *dop853_reference.stage_values(stepper)))
            for t in np.linspace(stepper.t_old, stepper.t, 7).tolist():
                times.append(t)
                reference.append(interp(t))
        rows = prop._dense_rows(REF, diode_loop(Direction.CCW), np.array(times), held, values)
        assert bits(rows) == bits(np.array(reference))

    @pytest.mark.parametrize(
        "drive, d12",
        [(drive, d12) for drive in (diode_loop(Direction.CW), StaticDrive(FieldPoint(-0.0, -0.0), 5.0))
         for d12 in (1.0, complex(-0.0, 0.7), complex(0.5, -0.0), complex(-0.0, -0.0), complex(-1.0, 0.0))],
        ids=[drive + d12 for drive in ("loop", "static")
             for d12 in ("", "-imaginary", "-negative-zero-im", "-zero", "-negative")],
    )
    def test_dense_pass_keeps_signed_zeros(self, drive, d12):
        # synthetic steps whose stages and states are mostly signed zeros, with
        # a_static.imag = -0.0: each widened product, each 0j accumulator and
        # the drive's (a, g) decide signs the rows keep. The d12 cases put
        # signed zeros into g = d12 eps0 / 2, numpy's complex product in
        # model._traceless: its values reach the rows, while a zero's sign in
        # an extra stage cannot (each stage enters through a +0.0 accumulator)
        params = SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=-0.0, d12=d12)
        assert math.copysign(1.0, params._a_static.imag) == -1.0
        rng = np.random.default_rng(7)

        def value():
            re, im = (rng.choice([0.0, -0.0, rng.normal()], p=[0.45, 0.45, 0.1]) for _ in range(2))
            return complex(re, im)

        rhs = dop853_reference.kernel_rhs(drive, params)
        stepper = dop853_reference._Dop853(rhs, dop853_reference.IDENTITY, drive.duration_T, TIGHT)
        held, values, times, reference = [], [], [], []
        for t_old in np.linspace(0.0, 0.9 * drive.duration_T, 200).tolist():
            stepper.t_old, stepper.h = t_old, 0.05 * drive.duration_T
            stepper.y_old, stepper.y = tuple(value() for _ in range(4)), tuple(value() for _ in range(4))
            for k in stepper.k:
                k[: prop._N_STAGES + 1] = [value() for _ in range(prop._N_STAGES + 1)]
            stepper.dense()
            interp = dop853_interp(stepper)
            held.append((stepper.t_old, stepper.h, 3))
            values.append((*stepper.y_old, *stepper.y, *dop853_reference.stage_values(stepper)))
            for x in (0.0, 0.5, 1.0):
                times.append(t_old + x * stepper.h)
                reference.append(interp(times[-1]))
        rows = prop._dense_rows(params, drive, np.array(times), held, values)
        assert bits(rows) == bits(np.array(reference))


@pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
def test_meta_times_each_phase(propagate):
    # wall times per phase sit outside meta["solver"], whose counts stay deterministic,
    # and outside the files, which stay byte-identical from run to run
    runs = [propagate(REF, encircling_loop(50.0), StateVector.basis(2), TIGHT) for _ in range(2)]
    for traj in runs:
        assert sorted(traj.meta["phase_s"]) == ["rows", "stepping"]
        assert all(seconds >= 0.0 for seconds in traj.meta["phase_s"].values())
    # the second run on the loop takes the first one's rows; the counts are the same
    assert [traj.meta["solver"]["reused"] for traj in runs] == [False, True]
    assert counts(runs[0]) == counts(runs[1])
    assert trajectory_to_csv(runs[0]) == trajectory_to_csv(runs[1])
    assert trajectory_to_json(runs[0]) == trajectory_to_json(runs[1])


def dense(entries, n):
    """The row of length n whose nonzero entries are ((j, coefficient), ...)."""
    row = np.zeros(n)
    for j, c in entries:
        row[j] = c
    return row


def random_loop(rng, direction):
    """A seeded ellipse around the diode's region of the drive plane, with eps0 >= 0 on it."""
    ay = rng.uniform(0.02, 0.2)
    return LoopSpec(
        center=FieldPoint(rng.uniform(0.7, 1.3), ay + rng.uniform(0.0, 0.3)),
        semi_axis_omega=rng.uniform(0.02, 0.3),
        semi_axis_eps=ay,
        direction=direction,
        duration_T=rng.uniform(10.0, 80.0),
        start_phase=rng.uniform(0.0, 2.0 * math.pi),
    )


def random_state(rng):
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(complex(c[0]), complex(c[1]))


#: a = (-0.0, 0.0) at omega = -0.0: the signed zeros the static drive's constants must keep
SIGNED_ZEROS = SystemParams(e1=-0.0, e2=0.0, gamma1=0.1, gamma2=0.1, d12=1.0)
#: each step is max_step = 0.25, so every grid time of n_output 8 over T = 2 is a step end
ON_STEP_ENDS = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, max_step=0.25, initial_step=0.25)

ORACLE_STEP_CASES = {
    **{
        name: (params, drive, StateVector.basis(state), TIGHT, kwargs)
        for name, (propagate, params, drive, state, kwargs) in ROW_CASES.items()
        if propagate is propagate_direct
    },
    **{
        f"random{seed}-{d.value}": (
            REF, random_loop(np.random.default_rng(seed), d), random_state(np.random.default_rng(seed + 100)),
            TIGHT, {},
        )
        for seed in (1, 2, 3)
        for d in (Direction.CW, Direction.CCW)
    },
    **{
        f"diode-ccw-n{n}": (
            REF, diode_loop(Direction.CCW), StateVector.basis(2), IntegratorConfig(), {"n_output": n}
        )
        for n in (2, 8, 4096)
    },
    "static-signed-zeros": (
        SIGNED_ZEROS, StaticDrive(FieldPoint(-0.0, 0.3), 5.0), StateVector.basis(1), TIGHT, {"n_output": 16}
    ),
    "static-zero-field": (
        SIGNED_ZEROS, StaticDrive(FieldPoint(-0.0, -0.0), 5.0), StateVector(1.0, -0.0), TIGHT, {"n_output": 16}
    ),
    "rejections": (
        REF, encircling_loop(50.0, Direction.CW), StateVector.equal_superposition(0.7),
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, initial_step=5.0), {"n_output": 64},
    ),
    "grid-on-step-ends": (
        REF, StaticDrive(FieldPoint(1.07, 0.31), 2.0), StateVector.basis(1), ON_STEP_ENDS, {"n_output": 8}
    ),
    # finite states whose squared norm or modulus overflows float64 enter the rows by a power of two
    "overflowing-norm": (
        REF, StaticDrive(FieldPoint(1.0, 0.2), 1.0), StateVector(1e300, 1e300), IntegratorConfig(), {"n_output": 8}
    ),
    "overflowing-modulus": (
        REF, StaticDrive(FieldPoint(1.0, 0.2), 1.0), StateVector(complex(1.5e308, 1.5e308), 0.0), IntegratorConfig(),
        {"n_output": 8},
    ),
    # uncoupled, c2' = -c2: the decaying column's tolerance 1e300 * 2^-exponent passes the largest float and reads inf
    "tolerance-past-the-largest-float": (
        SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=2.0, d12=0.0), StaticDrive(FieldPoint(1.0, 0.0), 200.0),
        StateVector.basis(2), IntegratorConfig(abs_tol=1e300, max_step=1.0), {"n_output": 16},
    ),
    # a tolerance that dwarfs U's error: err5 is 0 and 0.01 err3 underflows, so scipy's norm would be 0/0
    "error-norm-underflowing": (
        SystemParams(e1=32.24661575824719, e2=1.0, gamma1=0.865952659560213, gamma2=0.3,
                     d12=0.034742850746953005 + 0.003035765512004006j),
        StaticDrive(FieldPoint(1.0, 0.4007447677615643), 0.3201049305391366), StateVector.basis(1),
        IntegratorConfig(rel_tol=1e-6, abs_tol=3.9798378097841404e160, max_step=1e300,
                         initial_step=0.10670164351304552),
        {"n_output": 4},
    ),
}


class TestGeneratedStepAgainstLoop:
    """The generated straight-line step and the dense array pass against the loop-based stepper."""

    @pytest.mark.parametrize("params, drive, initial, config, kwargs", ORACLE_STEP_CASES.values(),
                             ids=ORACLE_STEP_CASES.keys())
    def test_same_bits_and_counts(self, params, drive, initial, config, kwargs):
        traj = propagate_direct(params, drive, initial, config, **kwargs)
        oracle = dop853_reference.propagate_direct(params, drive, initial, config, **kwargs)
        for name in ("times", "states", "norms_sq", "log_scale"):
            assert bits(getattr(traj, name)) == bits(getattr(oracle, name)), name
        assert counts(traj) == oracle.meta["solver"]

    @pytest.mark.parametrize("initial", [StateVector.basis(1), StateVector.basis(2),
                                         StateVector.equal_superposition(0.3)], ids=["state1", "state2", "superposition"])
    def test_a_rescale_changes_exponents_only(self, monkeypatch, initial):
        # uncoupled at T = 2500 the run rescales each column of U twice, while
        # the unscaled U fits float64: the loop-based stepper with its window
        # opened never rescales, and takes the same steps to the same records
        drive = StaticDrive(FieldPoint(1.0, 0.0), 2500.0)
        traj = propagate_direct(REF, drive, initial, TIGHT, n_output=64)
        monkeypatch.setattr(dop853_reference, "WINDOW", (0.0, math.inf))
        twin = dop853_reference.propagate_direct(REF, drive, initial, TIGHT, n_output=64)
        for name in ("times", "states", "norms_sq", "log_scale"):
            assert bits(getattr(traj, name)) == bits(getattr(twin, name)), name
        solver = counts(traj)
        assert (solver["accepted"], solver["rejected"], solver["renormalizations"]) == (684, 0, 4)
        assert solver == {**twin.meta["solver"], "renormalizations": 4}

    def test_cases_cover_what_they_name(self):
        def solver(name):
            params, drive, initial, config, kwargs = ORACLE_STEP_CASES[name]
            return propagate_direct(params, drive, initial, config, **kwargs).meta["solver"]

        assert solver("rejections")["rejected"] > 0
        assert solver("direct-renormalizing")["renormalizations"] > 0
        on_ends = solver("grid-on-step-ends")
        assert on_ends["min_step"] == on_ends["max_step"] == 0.25
        assert on_ends["rhs_calls"] == 12 * 8 + 3 * 8 + 1

    @pytest.mark.parametrize("params, drive", [
        (REF, diode_loop(Direction.CW)),
        (SIGNED_ZEROS, StaticDrive(FieldPoint(-0.0, -0.0), 5.0)),
        (SIGNED_ZEROS, StaticDrive(FieldPoint(-0.0, 0.3), 5.0)),
    ], ids=["diode", "static-zero-field", "static-signed-zeros"])
    def test_each_step_is_the_loops_bits(self, params, drive):
        # the run on a grid of the loop's step ends holds every step, so
        # ``values`` has each step's start and end U and its 13 stage
        # quadruples, signed zeros included: the identity's zeros stay
        # signed zeros in a zero field, whose sign only the exact operation
        # order reproduces
        T = drive.duration_T
        reference = dop853_reference._Dop853(dop853_reference.kernel_rhs(drive, params), dop853_reference.IDENTITY,
                                             T, TIGHT)
        grid, steps, want = [0.0], [], []
        while reference.t < T:
            reference.step()
            grid.append(reference.t)
            steps.append((reference.t_old, reference.h, 1))
            want.append((*reference.y_old, *reference.y, *dop853_reference.stage_values(reference)))
        h_abs = min(TIGHT.initial_step, TIGHT.max_step, 0.5 * T)
        run = prop._dop853_run()
        exponents, held, values, solver = run(
            prop._drive_constants(drive, params), T, grid, TIGHT.rel_tol, TIGHT.abs_tol, TIGHT.max_step, h_abs
        )
        assert held == steps
        assert bits(np.array(values)) == bits(np.array(want))
        assert exponents == [(0, 0)] * len(grid)
        assert solver == reference.counts()

    def test_source_is_flat_and_from_the_tableau(self):
        source = prop._dop853_source()
        compile(source, "<dop853>", "exec")
        assert source.count("for ") == 0
        assert "min(" not in source and "self" not in source
        # 11 stages and the derivative at t = 0 take the drive; the FSAL stage reuses the 11th's
        assert source.count("cos(th)") == prop._N_STAGES
        for c, a in prop._DOP_STAGES:
            assert f"t + ({c!r}) * h" in source
            for _, coeff in a:
                assert f"{complex(coeff)!r} * k0_" in source

    def test_complex_literals_take_the_float_products_bits(self):
        # CPython 3.11 widens a float operand to (c, 0.0) before a complex
        # product, so a complex literal gives the same bits, signed zeros too
        rng = np.random.default_rng(3)
        parts = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]
        zs = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(200)]
        zs += [complex(*rng.normal(size=2)) for _ in range(50)]
        for row in [a for _, a in prop._DOP_STAGES] + [prop._DOP_B, prop._DOP_E5, prop._DOP_E3]:
            for _, c in row:
                for z in zs:
                    assert bits(np.array(complex(c) * z)) == bits(np.array(c * z)), (c, z)


def fuzz_state(rng):
    """Two amplitudes, not both zero, of signed zeros, subnormals and normal parts, scaled from 1e-200 to 1e150."""
    scale = float(rng.choice([1.0, 1e150, 1e-150, 1e-200, 1e-60]))
    while True:
        parts = [float(rng.choice([0.0, -0.0, 5e-324, -1.5e-323, 1.0, rng.normal()])) * scale for _ in range(4)]
        if any(parts):
            return StateVector(complex(parts[0], parts[1]), complex(parts[2], parts[3]))


def fuzz_case(rng):
    """Seeded inputs of ``propagate_direct``: drives, params, states, tolerances and row options."""
    kind = rng.choice(["loop", "zero-field", "no-coupling"])
    T = float(rng.uniform(0.5, 12.0))
    if kind == "loop":
        drive = dataclasses.replace(random_loop(rng, rng.choice(list(Direction))), duration_T=T)
        params = REF
    elif kind == "zero-field":
        drive = StaticDrive(FieldPoint(float(rng.choice([0.0, -0.0])), float(rng.choice([0.0, -0.0]))), T)
        params = SIGNED_ZEROS
    else:
        # half of these decay fast enough (|U|^2 grows as e^(|gamma1 - gamma2| t)) that U is rescaled
        drive = StaticDrive(FieldPoint(float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.5))), T)
        gamma1 = float(rng.choice([rng.uniform(0.0, 0.5), rng.uniform(40.0, 60.0)]))
        params = SystemParams(e1=0.0, e2=1.0, gamma1=gamma1, gamma2=0.3, d12=0.0)
    config = IntegratorConfig(
        rel_tol=float(rng.choice([1e-6, 1e-8, 1e-10, 1e-12])),
        abs_tol=float(rng.choice([1e-6, 1e-10, 1e-14, 1e-300])),
        max_step=float(rng.choice([math.inf, 10.0, 0.5, rng.uniform(0.05, 2.0)])),
        initial_step=float(rng.choice([1e-3, 1e-2, 0.3, 5.0])),
    )
    kwargs = {"n_output": int(rng.integers(2, 65))}
    return params, drive, fuzz_state(rng), config, kwargs


HUGE_RATES = SystemParams(e1=1e100, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1.0)
#: inputs that end in each of the direct route's errors, with the start of its message
FAILING_CASES = {
    "budget": (
        (HUGE_RATES, StaticDrive(FieldPoint(1.0, 0.4), 10.0), StateVector.basis(1), IntegratorConfig(), {}),
        StepBudgetError, "10001 steps taken",
    ),
    "underflow": (
        (dataclasses.replace(HUGE_RATES, e1=1e308), StaticDrive(FieldPoint(1.0, 0.4), 10.0), StateVector.basis(1),
         IntegratorConfig(), {}),
        StepSizeUnderflowError, "step size",
    ),
    # an absolute tolerance of 1e205 accepts any step, until one leaves float64
    "non-finite": (
        (SystemParams(e1=-20.0, e2=1.0, gamma1=0.8, gamma2=0.3, d12=0.1 - 0.9j),
         StaticDrive(FieldPoint(1.0, 0.3), 1e30), StateVector(1.0, 0.5j),
         IntegratorConfig(rel_tol=1e-8, abs_tol=1e205, max_step=5e27, initial_step=1e50), {"n_output": 4}),
        NonFiniteError, "amplitudes became non-finite",
    ),
    # the state grows past 1e154 within one accepted step, so its squared norm overflows while
    # its parts are finite: the column is rescaled by a power of two like any other (a division
    # by sqrt(inf) would have zeroed it), its tolerance with it, and at rates of 1e40 the run
    # goes on into the step budget
    "overflowing-step": (
        (SystemParams(e1=3.6e5, e2=1.0, gamma1=0.1, gamma2=0.3, d12=-1.7e39 - 1.4e40j),
         StaticDrive(FieldPoint(1.0, 0.3), 15.5), StateVector.basis(1),
         IntegratorConfig(abs_tol=5.36e183, initial_step=2.6e-211, rel_tol=1.7e-9, max_step=7.7e92), {"n_output": 4}),
        StepBudgetError, "10001 steps taken",
    ),
    # c2' = -c2, and the first step h sits on the real root z = -4.3468... of DOP853's stability
    # polynomial where y + h sum(b k) rounds to exactly 0, which would leave NaN rows after
    "underflowing-step": (
        (SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=2.0, d12=0.0), StaticDrive(FieldPoint(1.0, 0.0), 10.0),
         StateVector.basis(2),
         IntegratorConfig(abs_tol=1e200, rel_tol=1e-6, initial_step=4.346807010632345, max_step=100.0),
         {"n_output": 4}),
        NonFiniteError, "amplitudes underflowed",
    ),
    # the first trial step's new U00 is about -1.29e308-1.26e308j: both parts are finite, but abs() of it in
    # the error scale raises OverflowError ("absolute value too large"), which the route reports
    "overflowing-modulus": (
        (REF, StaticDrive(FieldPoint(0.0, 0.0), 1e300), StateVector.basis(1),
         IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6, max_step=math.inf, initial_step=5.8529525055982455e+26),
         {"n_output": 2}),
        NonFiniteError, "amplitudes overflowed float64",
    ),
}


def outcome(propagate, params, drive, initial, config, kwargs):
    """The run's records and solver counts, or the type and message of the error it ends in."""
    try:
        traj = propagate(params, drive, initial, config, **kwargs)
    except EpdynError as exc:
        return type(exc), str(exc)
    return [bits(getattr(traj, name)) for name in ("times", "states", "norms_sq", "log_scale")], counts(traj)


class TestFuzzAgainstLoop:
    """Seeded adversarial inputs: the generated run against the loop-based stepper, bit for bit."""

    def test_same_bits_and_counts(self):
        rng = np.random.default_rng(1400)
        seen = collections.Counter()
        for _ in range(240):
            case = fuzz_case(rng)
            got = outcome(propagate_direct, *case)
            assert got == outcome(dop853_reference.propagate_direct, *case), case
            records, solver = got
            params, drive, initial, config, kwargs = case
            seen["rejected"] += solver["rejected"] > 0
            seen["renormalized"] += solver["renormalizations"] > 0
            seen["underflowing"] += abs(initial.c1) ** 2 + abs(initial.c2) ** 2 == 0.0
            seen["signed-zero"] += any(math.copysign(1.0, x) < 0.0 for x in (initial.c1.real, initial.c2.imag) if x == 0.0)
            seen["subnormal"] += any(0.0 < abs(x) < sys.float_info.min for z in (initial.c1, initial.c2)
                                     for x in (z.real, z.imag))
            seen[type(drive).__name__ + str(params.d12 == 0.0)] += 1
        assert min(seen.values()) >= 5 and len(seen) == 8, seen

    @pytest.mark.parametrize("case, error, message", FAILING_CASES.values(), ids=FAILING_CASES.keys())
    def test_same_errors(self, case, error, message):
        got = outcome(propagate_direct, *case)
        assert got == outcome(dop853_reference.propagate_direct, *case)
        assert got[0] is error and got[1].startswith(message), got


class TestDop853Tableau:
    def test_literals_are_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as scipy_dop

        n = prop._N_STAGES_EXTENDED
        assert (prop._N_STAGES, n) == (scipy_dop.N_STAGES, scipy_dop.N_STAGES_EXTENDED)
        stages = [(0.0, ())] + list(prop._DOP_STAGES) + [(1.0, prop._DOP_B)] + list(prop._DOP_EXTRA)
        assert len(stages) == n
        np.testing.assert_array_equal([c for c, _ in stages], scipy_dop.C)
        np.testing.assert_array_equal([dense(a, n) for _, a in stages], scipy_dop.A)
        m = prop._N_STAGES + 1
        np.testing.assert_array_equal(dense(prop._DOP_B, prop._N_STAGES), scipy_dop.B)
        np.testing.assert_array_equal(dense(prop._DOP_E3, m), scipy_dop.E3)
        np.testing.assert_array_equal(dense(prop._DOP_E5, m), scipy_dop.E5)
        np.testing.assert_array_equal([dense(d, n) for d in prop._DOP_D], scipy_dop.D)

    def test_entries_are_nonzero_and_ascending(self):
        # the generated step and the dense pass sum in tuple order, so the order is part of the arithmetic
        rows = [a for _, a in prop._DOP_STAGES + prop._DOP_EXTRA]
        rows += [prop._DOP_B, prop._DOP_E3, prop._DOP_E5, *prop._DOP_D]
        for row in rows:
            js = [j for j, _ in row]
            assert js == sorted(set(js))
            assert all(c != 0.0 for _, c in row)
        # the dense pass sums the four _DOP_D rows in one array operation per stage
        assert len({tuple(j for j, _ in row) for row in prop._DOP_D}) == 1


class TestNaCoupling:
    def test_rotation_rate_half(self):
        # real symmetric family [[q, 1], [1, -q]]: eigenvector rotation rate
        # at q = 0 is 1/2
        h = 1e-6
        frame_a = _eigensystem(HamiltonianMatrix(-h, 1.0, h), KAPPA)
        frame_b = _eigensystem(HamiltonianMatrix(h, 1.0, -h), KAPPA)
        v_pm, v_mp = na_coupling(frame_a, frame_b, dt=2 * h, velocity=(1.0, 0.0))
        assert abs(v_pm) == pytest.approx(0.5, rel=1e-6)
        assert abs(v_mp) == pytest.approx(0.5, rel=1e-6)
        assert v_pm == pytest.approx(-v_mp, rel=1e-6)

    def test_zero_velocity(self):
        frame = _eigensystem(HamiltonianMatrix(0.3, 1.0, -0.3), KAPPA)
        assert na_coupling(frame, frame, dt=1.0, velocity=(0.0, 0.0)) == (0j, 0j)

    def test_unpairable_frames_rejected(self):
        # 45-degree rotated frames overlap both branches equally: that is the
        # divergent-derivative signature, not a usable difference quotient
        frame_a = _eigensystem(HamiltonianMatrix(1.0, 1e-3, -1.0), KAPPA)
        frame_b = _eigensystem(HamiltonianMatrix(0.0, 1.0, 0.0), KAPPA)
        with pytest.raises(AmbiguousTrackingError):
            na_coupling(frame_a, frame_b, dt=1e-6, velocity=(1.0, 0.0))

    def test_divergence_towards_ep(self):
        # |V| grows monotonically over the last decade of approach distance
        loop_for = lambda d: LoopSpec(
            center=FieldPoint(1.0, 0.2 + d),
            semi_axis_omega=0.01,
            semi_axis_eps=0.01,
            direction=Direction.CCW,
            duration_T=10.0,
            start_phase=-0.5 * math.pi,
        )
        mags = []
        for d in np.geomspace(1e-1, 1e-2, 6):
            v_pm, _ = na_coupling_at(REF, loop_for(float(d) + 0.01), 0.0)
            mags.append(abs(v_pm))
        assert all(b > a for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize(
        "loop", [encircling_loop(10.0), diode_loop(Direction.CW)], ids=["encircling", "diode"]
    )
    def test_closed_form_matches_finite_difference(self, loop):
        # na_coupling_at is closed form; na_coupling differences the frames
        # at -/+ h along the velocity direction around the same point
        h = 1e-6
        for t in loop.duration_T * (np.arange(9) + 0.5) / 9:
            fp = loops.field_at(loop, t)
            velocity = loops.field_velocity(loop, t)
            speed = math.hypot(*velocity)
            ux, uy = velocity[0] / speed, velocity[1] / speed
            frame_a = _eigensystem(build_hamiltonian(REF, FieldPoint(fp.omega - h * ux, fp.eps0 - h * uy)), KAPPA)
            frame_b = _eigensystem(build_hamiltonian(REF, FieldPoint(fp.omega + h * ux, fp.eps0 + h * uy)), KAPPA)
            fd = na_coupling(frame_a, frame_b, dt=2 * h / speed, velocity=velocity)
            closed = na_coupling_at(REF, loop, t)
            for c, f in zip(closed, fd):
                assert abs(c - f) <= 1e-8 * abs(f), (t, closed, fd)


class TestDopri5:
    """The adiabatic route's step product at its limits (the ids are those of its former stepper's cases)."""

    def test_output_times_do_not_steer_the_controller(self):
        # the step count settles on the full-loop map, whatever the output
        # grid; for a power-of-two grid the last prefix map is that map's
        # tree, so the final row is the same bits
        loop = encircling_loop(50.0, Direction.CW)
        coarse = propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT, n_output=8)
        fine = propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT, n_output=512)
        assert coarse.meta["solver"] == fine.meta["solver"]
        assert coarse.meta["solver"]["steps"] >= 512
        assert np.array_equal(coarse.final_state, fine.final_state)
        assert coarse.log_scale[-1] == fine.log_scale[-1]

    def test_initial_step_below_the_floor_starts_at_the_floor(self):
        # the route reads rel_tol only: abs_tol, max_step and initial_step
        # (a tiny one too) change no byte of the run
        loop = encircling_loop(50.0, Direction.CW)
        tiny = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-7, max_step=0.01, initial_step=1e-15)
        plain = IntegratorConfig(rel_tol=1e-10)
        runs = [propagate_adiabatic(REF, loop, StateVector.basis(2), c, n_output=8) for c in (tiny, plain)]
        assert trajectory_to_csv(runs[0]) == trajectory_to_csv(runs[1])

    @pytest.mark.parametrize("T", [2e16, 1e300])
    def test_floor_above_the_cap_is_a_step_budget_error(self, T):
        # on so long a loop every step's growth exp(|Im lam| h) overflows
        # float64 at every step count up to the cap: no step fits
        loop = LoopSpec(FieldPoint(1.0, 0.2), 0.05, 0.05, Direction.CW, T)
        start = time.perf_counter()
        with pytest.raises(StepBudgetError, match=f"duration_T={re.escape(repr(T))}.* no step fits"):
            propagate_adiabatic(REF, loop, StateVector.basis(2), n_output=8)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("T", [5e-324, 32 * 5e-324])
    def test_cap_underflowing_to_zero_is_a_value_error(self, T):
        # the steps T/n of so short a drive are subnormal (T/256 is 0.0 here);
        # the direct route, whose floor is 10 ulp(t), takes one step, but
        # needs 9 distinct row times: at 5e-324 linspace repeats them
        drive = StaticDrive(FieldPoint(1.0, 0.3), T)
        with pytest.raises(ValueError, match="duration_T = .* is too small"):
            propagate_adiabatic(REF, drive, StateVector.basis(2), n_output=8)
        if T == 5e-324:
            with pytest.raises(ValueError, match="duration_T = .* is too small for distinct row times"):
                propagate_direct(REF, drive, StateVector.basis(2), n_output=8)
        else:
            traj = propagate_direct(REF, drive, StateVector.basis(2), n_output=8)
            assert len(traj.times) == 9 and traj.times[-1] == T

    def test_step_product_is_fourth_order(self):
        # the Gauss points and the weights of the two exponentials make the
        # product 4th order: the change over a doubling shrinks 16-fold
        loop = encircling_loop(10.0, Direction.CW)
        runs = [traversal._intervals(REF, traversal._batch(REF, [loop], True), n, n, traversal._block_work(1))
                for n in (256, 512, 1024)]
        maps = [traversal._rotate(run, run.x, run.e) for run in runs]
        changes = [traversal._change(*maps[k + 1], *maps[k]) for k in (0, 1)]
        assert 16.0 / 1.2 < changes[0] / changes[1] < 16.0 * 1.2, changes

    @pytest.mark.parametrize("direction", [Direction.CW, Direction.CCW])
    def test_every_row_agrees_with_direct(self, direction):
        # every row is a step end of the prefix product, the direct route's
        # from its own DOP853 interpolant. 1 - F is quadratic in the error,
        # so the rows are also compared as vectors: both routes record the
        # same physical state (measured <= 1.2e-10 relative)
        loop = encircling_loop(50.0, direction)
        for initial in (StateVector.basis(1), StateVector.basis(2), StateVector.equal_superposition(0.3)):
            adiab = propagate_adiabatic(REF, loop, initial, n_output=512)
            direct = propagate_direct(REF, loop, initial, n_output=512)
            assert np.array_equal(adiab.times, direct.times)
            u = adiab.states / np.linalg.norm(adiab.states, axis=1, keepdims=True)
            v = direct.states / np.linalg.norm(direct.states, axis=1, keepdims=True)
            infidelity = 1.0 - np.abs(np.sum(u.conj() * v, axis=1)) ** 2
            assert infidelity.max() < 1e-9, (initial, infidelity.max())
            x = adiab.states * np.exp(0.5 * adiab.log_scale)[:, None]
            y = direct.states * np.exp(0.5 * direct.log_scale)[:, None]
            rel = np.linalg.norm(x - y, axis=1) / np.linalg.norm(y, axis=1)
            assert rel.max() < 1e-8, (initial, rel.max())


class TestAccumulatedPhase:
    def test_static_linear_in_time(self):
        drive = StaticDrive(FieldPoint(1.0, 0.4), 10.0)
        e_p, e_m = _eigensystem(build_hamiltonian(REF, drive.field), KAPPA)[:2]
        for t in (2.5, 7.0):
            phi = accumulated_phase(REF, drive, t)
            assert phi == pytest.approx((e_p - e_m) * t, rel=1e-10)

    def test_hermitian_loop_real(self):
        phi = accumulated_phase(HERMITIAN_PARAMS, hermitian_loop(30.0), 30.0)
        assert abs(phi.imag) < 1e-10
        assert abs(phi.real) > 1.0

    def test_direction_reversal_flips_imaginary_part(self):
        T = 40.0
        ccw = encircling_loop(T, Direction.CCW)
        cw = encircling_loop(T, Direction.CW)
        phi_ccw = accumulated_phase(REF, ccw, T, n_samples=4096)
        phi_cw = accumulated_phase(REF, cw, T, n_samples=4096)
        assert abs(phi_ccw.imag) > 0.5
        assert phi_cw.imag == pytest.approx(-phi_ccw.imag, rel=1e-6)

    def test_reciprocal_exponents(self):
        T = 40.0
        phi_ccw = accumulated_phase(REF, encircling_loop(T, Direction.CCW), T, n_samples=4096)
        phi_cw = accumulated_phase(REF, encircling_loop(T, Direction.CW), T, n_samples=4096)
        product = cmath.exp(1j * phi_ccw) * cmath.exp(1j * phi_cw)
        assert abs(product - 1.0) < 1e-8

    @pytest.mark.parametrize("n_samples", [-1, 0, 1, 2, 3, 15])
    def test_rejects_too_few_samples(self, n_samples):
        loop = encircling_loop(50.0)
        with pytest.raises(ValueError, match="n_samples must be >= 16"):
            accumulated_phase(REF, loop, 50.0, n_samples=n_samples)

    def test_a_count_numpy_refuses_names_the_count(self):
        # numpy refuses 10^20 + 1 samples before it allocates anything
        with pytest.raises(MemoryError, match=f"^{10**20 + 1} samples do not fit"):
            accumulated_phase(REF, encircling_loop(50.0), 25.0, n_samples=10**20)

    @pytest.mark.parametrize("t", [-1e-9, 50.0 + 1e-9, math.nan], ids=["before", "after", "nan"])
    def test_rejects_a_time_outside_the_loop(self, t):
        with pytest.raises(ValueError, match=r"^t = .* outside \[0, 50\.0\]$"):
            accumulated_phase(REF, encircling_loop(50.0), t)

    def test_nothing_accumulates_at_the_start(self):
        assert accumulated_phase(REF, encircling_loop(50.0), 0.0) == 0j

    def test_diode_phase_integrals_unchanged(self):
        # the values scipy.integrate.simpson gives on the tracked gap 2 lam, to the bit
        times = np.linspace(0.0, DIODE_DURATION, 8193)
        for direction, want in (
            (Direction.CW, complex(518.876429335191, 7.164493477684154)),
            (Direction.CCW, complex(-518.876429335191, -7.164493477684161)),
        ):
            loop = diode_loop(direction)
            phase = accumulated_phase(REF, loop, DIODE_DURATION, n_samples=8192)
            _, lam, _, _ = traversal.branch_frames(REF, loop, times)
            assert phase == complex(simpson(2.0 * lam, x=times)) == want


class TestSimpson:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64, 513, 1024])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy(self, n, uniform, dtype):
        # odd n: the parabola on each interval pair; even n adds Cartwright's
        # correction for the last interval
        rng = np.random.default_rng(n)
        x = np.linspace(0.0, 7.5, n) if uniform else np.cumsum(rng.uniform(0.01, 1.0, n))
        y = rng.normal(size=n)
        if dtype is complex:
            y = y + 1j * rng.normal(size=n)
        ours, theirs = complex(prop._simpson(y, x)), complex(simpson(y, x=x))
        np.testing.assert_array_max_ulp(ours.real, theirs.real, maxulp=1)
        np.testing.assert_array_max_ulp(ours.imag, theirs.imag, maxulp=1)


class TestTrackBranches:
    def test_swap_on_encircling_loop(self):
        frame = track_branches(REF, encircling_loop(10.0), n_samples=4096)
        assert frame.swapped is True
        # eigenvalue continuity across the traversal: the tracked '+' slot
        # ends on the other branch's starting eigenvalue
        e_start = frame.energies[0]
        e_end = frame.energies[-1]
        assert abs(e_end[0] - e_start[1]) < 1e-8
        assert abs(e_end[1] - e_start[0]) < 1e-8

    def test_no_swap_without_ep(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.5),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=10.0,
        )
        frame = track_branches(REF, loop, n_samples=2048)
        assert frame.swapped is False
        assert abs(frame.energies[-1, 0] - frame.energies[0, 0]) < 1e-10

    def test_adjacent_overlap_dominance(self):
        frame = track_branches(REF, encircling_loop(10.0), n_samples=512)
        for k in range(len(frame.times) - 1):
            for slot in (0, 1):
                own = abs(c_product(frame.vectors[k, slot], frame.vectors[k + 1, slot]))
                other = abs(c_product(frame.vectors[k, slot], frame.vectors[k + 1, 1 - slot]))
                assert own > other

    def test_swap_matches_winding_on_random_loops(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 20:
            ec = rng.uniform(0.1, 0.5)
            loop = LoopSpec(
                center=FieldPoint(rng.uniform(0.8, 1.2), ec),
                semi_axis_omega=rng.uniform(0.02, 0.2),
                semi_axis_eps=rng.uniform(0.3, 1.0) * ec,
                direction=rng.choice([Direction.CW, Direction.CCW]),
                duration_T=10.0,
                start_phase=rng.uniform(0, 2 * math.pi),
            )
            try:
                w = winding_number(loop, REF, n_samples=4096)
                frame = track_branches(REF, loop, n_samples=4096)
            except Exception:
                continue
            checked += 1
            assert frame.swapped == (abs(w) == 1)

    def test_ep_on_contour_rejected(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.25),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=10.0,
        )
        with pytest.raises(EPOnContourError):
            track_branches(REF, loop, n_samples=1024)

    def test_ambiguous_when_undersampled(self):
        # flat ellipse grazing the EP: the eigenvectors turn over within one
        # coarse sample, so adjacent overlaps cannot be told apart
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.2499),
            semi_axis_omega=0.3,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=10.0,
        )
        with pytest.raises(AmbiguousTrackingError):
            track_branches(REF, loop, n_samples=32)
        assert track_branches(REF, loop, n_samples=4096).swapped is True

    def test_a_count_numpy_refuses_names_the_count(self):
        # numpy refuses 10^20 + 1 samples before it allocates anything
        with pytest.raises(MemoryError, match=f"^{10**20 + 1} samples do not fit"):
            track_branches(REF, encircling_loop(10.0), n_samples=10**20)

    @pytest.mark.parametrize("n_samples", [-1, 0, 15])
    def test_rejects_too_few_samples(self, n_samples):
        with pytest.raises(ValueError, match="^n_samples must be >= 16$"):
            track_branches(REF, encircling_loop(10.0), n_samples=n_samples)


class TestAdiabaticPropagation:
    def test_static_coefficients_frozen(self):
        # zero parameter velocity means zero coupling: the phase-stripped
        # coefficients stay put and the bare state carries phase/decay only,
        # on either route's record
        drive = StaticDrive(FieldPoint(1.0, 0.4), 6.0)
        initial = StateVector(0.8, 0.6j)
        h = build_hamiltonian(REF, drive.field)
        expected = expm(-1j * h.as_array() * 6.0) @ initial.as_array()
        # the coefficients are the c-products with the tracked frame at the row times, gauge included
        frame = track_branches(REF, drive, n_samples=16)
        e_p, e_m = frame.energies[0]
        a0 = np.array([c_product(v, initial.as_array()) for v in frame.vectors[0]])
        for propagate in (propagate_direct, propagate_adiabatic):
            traj = propagate(REF, drive, initial, TIGHT, n_output=16)
            np.testing.assert_array_equal(traj.times, frame.times)
            for k, t in enumerate(traj.times):
                scale = math.exp(0.5 * traj.log_scale[k])
                coeffs = np.array([c_product(v, traj.states[k]) for v in frame.vectors[k]]) * scale
                stripped = coeffs * np.array([cmath.exp(1j * e_p * t), cmath.exp(1j * e_m * t)])
                np.testing.assert_allclose(stripped, a0, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(traj.final_state, expected, rtol=1e-8, atol=1e-12)

    def test_row_0_is_the_direct_routes_bits(self):
        # both routes start from the identity map, so row 0 is c0 as the direct route records it
        rng = np.random.default_rng(35)
        states = [
            StateVector.basis(1), StateVector.basis(2), StateVector(complex(-0.0, 1.0), complex(-1.0, -0.0)),
            StateVector(1e-300, 3e-301j), StateVector(1e300, -2e300), *(random_state(rng) for _ in range(20)),
        ]
        loop = encircling_loop(50.0, Direction.CCW)
        for initial in states:
            adiab, direct = (f(REF, loop, initial, TIGHT, n_output=8) for f in (propagate_adiabatic, propagate_direct))
            rows = [[bits(a[0]) for a in (t.states, t.norms_sq, t.log_scale)] for t in (adiab, direct)]
            assert rows[0] == rows[1], initial

    def test_agrees_with_direct_off_ep(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.35),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=40.0,
        )
        direct = propagate_direct(REF, loop, StateVector.equal_superposition(), TIGHT)
        adiab = propagate_adiabatic(REF, loop, StateVector.equal_superposition(), TIGHT)
        f = fidelity(normalized_final(direct), normalized_final(adiab))
        assert f > 1 - 1e-6

    def test_rejects_ep_touching_contour(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.25),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=10.0,
        )
        with pytest.raises(EPOnContourError):
            propagate_adiabatic(REF, loop, StateVector.basis(1), TIGHT)
        with pytest.raises(EPOnContourError):
            propagate_adiabatic(REF, StaticDrive(FieldPoint(1.0, 0.2), 5.0), StateVector.basis(1))

    def test_hermitian_adiabatic_theorem_trend(self):
        # starting in one adiabatic state, the leakage into the other
        # decreases as the traversal slows down
        leakage = []
        for T in (100.0, 200.0):
            loop = hermitian_loop(T)
            _, _, v_plus, _, _, _ = _eigensystem(build_hamiltonian(HERMITIAN_PARAMS, loops.field_at(loop, 0.0)), KAPPA)
            initial = StateVector(*v_plus)
            traj = propagate_adiabatic(HERMITIAN_PARAMS, loop, initial, TIGHT)
            final = normalized_final(traj)
            _, _, _, v_minus, _, _ = _eigensystem(build_hamiltonian(HERMITIAN_PARAMS, loops.field_at(loop, T)), KAPPA)
            v_other = np.array(v_minus) / np.linalg.norm(v_minus)
            leakage.append(fidelity(final, v_other))
        assert leakage[1] < leakage[0]

    def test_solver_counts(self):
        traj = propagate_adiabatic(REF, encircling_loop(50.0, Direction.CW), StateVector.basis(2), TIGHT)
        solver = traj.meta["solver"]
        assert set(solver) == {"steps", "frame", "floor", "doublings", "reused"}
        assert solver["reused"] is False  # the first run on the loop
        # 256 steps doubled until the map settled; the rows take that count
        # here, a multiple of the 512 output intervals
        assert solver["steps"] == 256 * 2 ** solver["doublings"] >= 512
        assert solver["frame"] == "eigen"
        assert 0.0 < solver["floor"] <= 15 * TIGHT.rel_tol
        assert len(traj.times) == 513

    def test_one_eigensolve_per_step_and_interior_grid_time(self, monkeypatch):
        # the route solves no eigenframe: its t = 0 frame is the rows' own
        # R(th_0); the step products take the drive in array calls whose
        # number does not grow with the steps
        calls = {"solve": 0, "drive": 0, "samples": 0}
        real_drive = traversal._drive

        def counted_solve(solve):
            def counted(*args):
                calls["solve"] += 1
                return solve(*args)

            return counted

        def counted_drive(params, columns, times):
            calls["drive"] += 1
            calls["samples"] += np.size(times)
            return real_drive(params, columns, times)

        monkeypatch.setattr(traversal, "branch_frames", counted_solve(traversal.branch_frames))
        monkeypatch.setattr(traversal, "_drive", counted_drive)
        traj = propagate_adiabatic(REF, encircling_loop(50.0, Direction.CW), StateVector.basis(2), TIGHT)
        assert calls["solve"] == 0
        # each step count tried; the rows reuse the settled one's 512 intervals
        products = traj.meta["solver"]["doublings"] + 1
        # t = 0 once, and one block of Gauss points per count: the interval ends are the rows' own
        # scan (256 steps run one interval, which ends at T, the scan's last row)
        assert calls["drive"] == 1 + products
        assert calls["samples"] > 2 * traj.meta["solver"]["steps"] > 1000

    def test_commit_rejects_energy_on_the_other_branch(self, monkeypatch):
        # put the continued root on the other branch just before the end of
        # each interval: there the closed-form angle sits a quarter turn from
        # the quadrature of the frame's turn, at every step count, so the
        # route raises instead of taking the bare frame
        real_turn = traversal._Phase.turn

        def corrupting_turn(self, *args):
            real_turn(self, *args)
            if self.marks:
                self.marks[-1] = (-self.marks[-1][0], self.marks[-1][1])

        monkeypatch.setattr(traversal._Phase, "turn", corrupting_turn)
        loop = encircling_loop(50.0, Direction.CW)
        with pytest.raises(AmbiguousTrackingError, match="unresolved at every step count up to 131072"):
            propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT)

    @pytest.mark.parametrize(
        "loop, initial, fidelity_tol, norm_tol",
        [
            (encircling_loop(50.0, Direction.CW), StateVector(0.6, 0.8j), 1e-13, 1e-11),
            # the diode map's float64 floor: 1.9e-6 of the long-double map, and
            # the survival within 6e-5 (tests/test_traversal.py)
            (diode_loop(Direction.CW), StateVector.basis(1), 1e-9, 1e-4),
            (encircling_loop(50.0, Direction.CCW), random_state(np.random.default_rng(5)), 1e-13, 1e-11),
            (diode_loop(Direction.CCW), StateVector.basis(2), 1e-9, 1e-4),
        ],
        ids=["encircling", "diode", "encircling-ccw", "diode-ccw"],
    )
    def test_rows_agree_with_the_long_double_prefix_maps(self, loop, initial, fidelity_tol, norm_tol):
        # every row against the same steps' prefix maps in long double: the
        # state's direction and its true squared norm
        traj = propagate_adiabatic(REF, loop, initial, TIGHT, n_output=8)
        oracle = traversal_reference.prefix_maps(REF, loop, traj.meta["solver"]["steps"], 8)
        for k, (u, log_scale) in enumerate(oracle):
            want = (u @ initial.as_array().astype(np.clongdouble)).astype(complex)
            got = traj.states[k]
            infidelity = 1.0 - abs(np.vdot(want, got)) ** 2 / (np.vdot(want, want) * np.vdot(got, got)).real
            assert infidelity < fidelity_tol, (k, infidelity)
            decay = (REF.gamma1 + REF.gamma2) * traj.times[k]
            want_n2 = np.vdot(want, want).real * math.exp(2.0 * float(log_scale) - decay)
            assert traj.true_norm_sq(k) == pytest.approx(want_n2, rel=norm_tol), k

    @pytest.mark.parametrize(
        "loop, error, message",
        [
            # through the EP, between the rows and the guard's samples: the
            # contour point at the EP's own angle is on it, before any step
            (dataclasses.replace(hermitian_loop(10.0, Direction.CW), start_phase=0.1),
             EPOnContourError, "the contour point at t = 2.65915 of "),
            # 1e-9 from the EP, outside the contact rule: the frame turns by
            # more than half a radian in a step at every step count
            (LoopSpec(FieldPoint(1.0, 0.250000001), 0.05, 0.05, Direction.CW, 10.0, 0.1),
             AmbiguousTrackingError, "unresolved at every step count"),
            # 1e-4 from the EP: uniform steps resolve the pass only from 2^14
            # steps on, and the change at 2^17 is still 1.8e-8
            (LoopSpec(FieldPoint(1.0, 0.2), 1e-4, 0.1, Direction.CW, 5.0), StepBudgetError, "has not settled"),
        ],
        ids=["on-contour", "1e-9-from-contour", "1e-4-from-contour"],
    )
    def test_an_unresolved_ep_pass_is_an_error(self, loop, error, message):
        # the route has no bare frame to fall back on
        start = time.perf_counter()
        with pytest.raises(error, match=message):
            propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT)
        assert time.perf_counter() - start < 2.0


def record_bits(traj) -> tuple:
    """Every array of a record (either route's) as raw bytes, and its solver counts without ``reused``."""
    return (*map(bits, (traj.times, traj.states, traj.norms_sq, traj.log_scale)), counts(traj))


def fresh(*args, **kwargs):
    """An adiabatic run with the loop cache emptied first, so it computes its rows."""
    prop._LOOP_ROWS.entries.clear()
    return propagate_adiabatic(*args, **kwargs)


#: model constants past 2^53 whose float images collide: e1 - e2 is 1 for the ints and 0 for the floats
BIG_INTS = dataclasses.replace(REF, e1=2**53 + 1, e2=2**53)
BIG_FLOATS = dataclasses.replace(REF, e1=float(2**53 + 1), e2=float(2**53))
#: e1 as the int 2^53 whose float image BIG_INTS' e1 shares
BIG_INT = dataclasses.replace(REF, e1=2**53, e2=2**53)


class TestLoopRows:
    """The adiabatic route keeps the state-independent rows of its last two loops."""

    LOOP = encircling_loop(50.0, Direction.CW)

    @pytest.mark.parametrize("base, change", [
        (REF, dataclasses.replace(REF, e2=1)),
        (BIG_FLOATS, BIG_INTS),
        (BIG_INT, BIG_INTS),
    ], ids=["e2-int", "ints-past-2^53", "int-past-2^53"])
    def test_a_key_field_equal_under_float_images_misses(self, base, change):
        # 1 == 1.0, and 2^53 + 1 has 2^53's float image: the key takes the type and the exact value
        assert change.e2 == base.e2 and float(change.e1) == float(base.e1)
        propagate_adiabatic(base, self.LOOP, StateVector.basis(2), TIGHT, n_output=16)
        run = propagate_adiabatic(change, self.LOOP, StateVector.basis(2), TIGHT, n_output=16)
        assert run.meta["solver"]["reused"] is False and len(prop._LOOP_ROWS.entries) == 2
        assert record_bits(run) == record_bits(fresh(change, self.LOOP, StateVector.basis(2), TIGHT, n_output=16))

    def test_a_hit_is_the_bits_of_a_fresh_run(self):
        first = propagate_adiabatic(REF, self.LOOP, StateVector(0.6, 0.8j), TIGHT, n_output=64)
        hit = propagate_adiabatic(REF, self.LOOP, StateVector(1e-200, -0.0), TIGHT, n_output=64)
        assert (first.meta["solver"]["reused"], hit.meta["solver"]["reused"]) == (False, True)
        want = fresh(REF, self.LOOP, StateVector(1e-200, -0.0), TIGHT, n_output=64)
        assert want.meta["solver"]["reused"] is False
        assert record_bits(hit) == record_bits(want)

    def test_signed_zero_start_phases_are_separate_entries(self):
        drives = [dataclasses.replace(self.LOOP, start_phase=phase) for phase in (0.0, -0.0)]
        runs = [propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT, n_output=16) for loop in drives]
        assert [run.meta["solver"]["reused"] for run in runs] == [False, False]
        assert len(prop._LOOP_ROWS.entries) == 2
        for loop, run in zip(drives, runs):
            assert record_bits(run) == record_bits(fresh(REF, loop, StateVector.basis(2), TIGHT, n_output=16))

    def test_an_error_is_raised_on_every_call(self):
        loop = LoopSpec(FieldPoint(1.0, 0.25), 0.05, 0.05, Direction.CCW, 10.0)
        messages = []
        for _ in range(3):
            with pytest.raises(EPOnContourError) as info:
                propagate_adiabatic(REF, loop, StateVector.basis(1), TIGHT)
            messages.append(str(info.value))
        assert len(set(messages)) == 1 and not prop._LOOP_ROWS.entries

    def test_writing_into_a_record_leaves_the_next_call_unchanged(self):
        first = propagate_adiabatic(REF, self.LOOP, StateVector.basis(2), TIGHT, n_output=16)
        want = record_bits(first)
        first.times[1:] = 1e9
        first.states[:] = 0.0
        hit = propagate_adiabatic(REF, self.LOOP, StateVector.basis(2), TIGHT, n_output=16)
        assert hit.meta["solver"]["reused"] and record_bits(hit) == want
        # every array of the kept entry: the row times, the row maps and their exponents, and the trace factor
        (kept,) = prop._LOOP_ROWS.entries.values()
        assert isinstance(kept, prop._Loop)
        for array in (kept.times, kept.maps, kept.exponents, kept.trace):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_a_third_loop_evicts_the_oldest(self):
        a, b, c = (encircling_loop(T, Direction.CW) for T in (50.0, 60.0, 70.0))

        def reused(loop):
            return propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT, n_output=8).meta["solver"]["reused"]

        # a is used again after b, so b is the oldest when c comes in
        assert [reused(loop) for loop in (a, b, a, c, a, b)] == [False, False, True, False, True, False]
        assert len(prop._LOOP_ROWS.entries) == 2

    def test_the_second_state_runs_no_intervals(self, monkeypatch):
        calls = []
        real_intervals = traversal._intervals

        def counted(*args):
            calls.append(args[2])
            return real_intervals(*args)

        monkeypatch.setattr(traversal, "_intervals", counted)
        propagate_adiabatic(REF, self.LOOP, StateVector.basis(1), TIGHT)
        assert calls
        calls.clear()
        propagate_adiabatic(REF, self.LOOP, StateVector.basis(2), TIGHT)
        assert calls == []

    def test_threads_sharing_the_cache_get_fresh_bits(self):
        # more threads than cores on three loops, so entries are evicted while
        # others read them; a lost update or a torn lookup raises or changes bits
        drives = [encircling_loop(T, Direction.CW) for T in (50.0, 60.0, 70.0)]
        want = [record_bits(fresh(REF, loop, StateVector.basis(2), TIGHT, n_output=8)) for loop in drives]
        got, errors = [], []

        def work(offset):
            try:
                for k in range(12):
                    i = (k + offset) % len(drives)
                    got.append((i, record_bits(propagate_adiabatic(REF, drives[i], StateVector.basis(2), TIGHT,
                                                                   n_output=8))))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        assert len(got) == 48 and all(bits_ == want[i] for i, bits_ in got)
        assert len(prop._LOOP_ROWS.entries) <= 2


def fresh_direct(*args, **kwargs):
    """A direct run with the cache emptied first, so it steps U."""
    prop._DIRECT_RUNS.entries.clear()
    return propagate_direct(*args, **kwargs)


#: the key fields of a direct run, each changed from (REF, DirectRuns.LOOP, TIGHT, n_output 8)
LOOP50 = encircling_loop(50.0, Direction.CW)
KEY_CHANGES = {
    "drive-type": (REF, StaticDrive(LOOP50.center, 50.0), TIGHT, 8),
    "center-omega": (REF, dataclasses.replace(LOOP50, center=FieldPoint(1.01, LOOP50.center.eps0)), TIGHT, 8),
    "center-eps0": (REF, dataclasses.replace(LOOP50, center=FieldPoint(1.0, LOOP50.center.eps0 + 0.01)), TIGHT, 8),
    "semi-axis-omega": (REF, dataclasses.replace(LOOP50, semi_axis_omega=LOOP50.semi_axis_omega + 0.01), TIGHT, 8),
    "semi-axis-eps": (REF, dataclasses.replace(LOOP50, semi_axis_eps=LOOP50.semi_axis_eps - 0.01), TIGHT, 8),
    "direction": (REF, dataclasses.replace(LOOP50, direction=Direction.CCW), TIGHT, 8),
    "duration": (REF, dataclasses.replace(LOOP50, duration_T=50.5), TIGHT, 8),
    "start-phase-signed-zero": (REF, dataclasses.replace(LOOP50, start_phase=-0.0), TIGHT, 8),
    "e1": (dataclasses.replace(REF, e1=0.01), LOOP50, TIGHT, 8),
    "e2": (dataclasses.replace(REF, e2=1.01), LOOP50, TIGHT, 8),
    "gamma1": (dataclasses.replace(REF, gamma1=0.11), LOOP50, TIGHT, 8),
    "gamma2": (dataclasses.replace(REF, gamma2=0.31), LOOP50, TIGHT, 8),
    "d12-real": (dataclasses.replace(REF, d12=1.01), LOOP50, TIGHT, 8),
    "d12-imag": (dataclasses.replace(REF, d12=1.0 + 0.01j), LOOP50, TIGHT, 8),
    "rel-tol": (REF, LOOP50, dataclasses.replace(TIGHT, rel_tol=1e-11), 8),
    "abs-tol": (REF, LOOP50, dataclasses.replace(TIGHT, abs_tol=1e-13), 8),
    "max-step": (REF, LOOP50, dataclasses.replace(TIGHT, max_step=3.0), 8),
    "initial-step": (REF, LOOP50, dataclasses.replace(TIGHT, initial_step=0.02), 8),
    "n-output": (REF, LOOP50, TIGHT, 9),
    # equal under == and under float images: only the type or the exact int tells them apart
    "max-step-int": (REF, LOOP50, dataclasses.replace(TIGHT, max_step=10), 8),
    "ints-past-2^53": (BIG_INTS, LOOP50, TIGHT, 8),
    "int-past-2^53": (BIG_INTS, LOOP50, TIGHT, 8),
}
#: the run each change is made from where it is not (REF, LOOP50, TIGHT, 8)
KEY_BASES = {"ints-past-2^53": (BIG_FLOATS, LOOP50, TIGHT, 8), "int-past-2^53": (BIG_INT, LOOP50, TIGHT, 8)}


class TestDirectRuns:
    """The direct route keeps U's rows of its last two loops."""

    LOOP = LOOP50

    @pytest.mark.parametrize("initial", [
        random_state(np.random.default_rng(5)), StateVector(0.0, 0.7), StateVector(1e-200, complex(0.0, -1e-210)),
    ], ids=["gaussian", "zero-first", "underflowing"])
    def test_a_hit_is_the_bits_of_a_fresh_run(self, initial):
        propagate_direct(REF, self.LOOP, StateVector(0.6, 0.8j), TIGHT, n_output=64)
        hit = propagate_direct(REF, self.LOOP, initial, TIGHT, n_output=64)
        want = fresh_direct(REF, self.LOOP, initial, TIGHT, n_output=64)
        assert (hit.meta["solver"]["reused"], want.meta["solver"]["reused"]) == (True, False)
        assert record_bits(hit) == record_bits(want)

    def test_the_base_run_has_the_values_the_changes_move(self):
        assert self.LOOP.start_phase == 0.0 and math.copysign(1.0, self.LOOP.start_phase) == 1.0
        assert REF.e1 == 0.0 and REF.e2 == 1.0 and REF.d12 == 1.0 and TIGHT.max_step == 10.0

    @pytest.mark.parametrize("name", KEY_CHANGES)
    def test_a_change_to_any_key_field_misses(self, name):
        params, drive, config, n_output = KEY_CHANGES[name]
        base_params, base_drive, base_config, base_n = KEY_BASES.get(name, (REF, self.LOOP, TIGHT, 8))
        propagate_direct(base_params, base_drive, StateVector.basis(2), base_config, n_output=base_n)
        run = propagate_direct(params, drive, StateVector.basis(2), config, n_output=n_output)
        assert run.meta["solver"]["reused"] is False and len(prop._DIRECT_RUNS.entries) == 2
        want = fresh_direct(params, drive, StateVector.basis(2), config, n_output=n_output)
        assert record_bits(run) == record_bits(want)

    @pytest.mark.parametrize("name", ["budget", "underflow"])
    def test_an_error_is_raised_on_every_call(self, name):
        (params, drive, initial, config, kwargs), error, _ = FAILING_CASES[name]
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                propagate_direct(params, drive, initial, config, **kwargs)
            messages.append(str(info.value))
        assert len(set(messages)) == 1 and not prop._DIRECT_RUNS.entries

    def test_writing_into_a_record_leaves_the_next_call_unchanged(self):
        first = propagate_direct(REF, self.LOOP, StateVector.basis(2), TIGHT, n_output=16)
        want = record_bits(first)
        first.times[1:] = 1e9
        first.states[:] = 0.0
        first.log_scale[:] = 5.0
        first.meta["solver"]["accepted"] = -1
        hit = propagate_direct(REF, self.LOOP, StateVector.basis(2), TIGHT, n_output=16)
        assert hit.meta["solver"]["reused"] and record_bits(hit) == want
        (kept,) = prop._DIRECT_RUNS.entries.values()
        assert isinstance(kept, prop._Loop)
        for array in (kept.times, kept.maps, kept.exponents, kept.trace):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_a_third_loop_evicts_the_oldest(self):
        a, b, c = (encircling_loop(T, Direction.CW) for T in (50.0, 60.0, 70.0))

        def reused(loop):
            return propagate_direct(REF, loop, StateVector.basis(2), TIGHT, n_output=8).meta["solver"]["reused"]

        # a is used again after b, so b is the oldest when c comes in
        assert [reused(loop) for loop in (a, b, a, c, a, b)] == [False, False, True, False, True, False]
        assert len(prop._DIRECT_RUNS.entries) == 2
