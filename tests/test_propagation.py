"""Direct and adiabatic propagation, couplings, tracking, loop integrals."""

import cmath
import math
import re
import time

import numpy as np
import pytest
from scipy.integrate import DOP853, simpson
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
    average_decay_rate,
    build_hamiltonian,
    c_product,
    diode_control_loop,
    diode_loop,
    eigenframe,
    eigenvalues,
    encircling_loop,
    hermitian_loop,
    na_coupling,
    na_coupling_at,
    propagate_adiabatic,
    propagate_direct,
    track_branches,
    winding_number,
)
from epdyn import frames, loops
from epdyn import propagation as prop
from epdyn.errors import AmbiguousTrackingError, StepBudgetError
from epdyn.propagation import (
    _LOG_WORK_HI,
    _LOG_WORK_LO,
    TrajectoryRecord,
    _traceless,
)
from epdyn.serialize import trajectory_to_csv, trajectory_to_json
from row_reference import dop853_interp, finalize

REF = DEFAULT_PARAMS
TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)


def normalized_final(traj):
    v = traj.final_state
    return v / np.linalg.norm(v)


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

    def test_internal_steps_recorded(self):
        loop = hermitian_loop(10.0)
        traj = propagate_direct(
            HERMITIAN_PARAMS, loop, StateVector.basis(1), n_output=16, record_internal=True
        )
        assert len(traj.times) > 17
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
        # stored norms stay finite and the log-scale carries the decay. The
        # traceless |u|^2 falls as exp(-0.2 t), about e^-500 over the run, so
        # the working state is rescaled twice
        drive = StaticDrive(FieldPoint(1.0, 0.0), 2500.0)
        traj = propagate_direct(REF, drive, StateVector.basis(2), TIGHT, n_output=64)
        assert traj.meta["solver"]["renormalizations"] == 2
        assert np.all(np.isfinite(traj.states.view(float)))
        log_survival = traj.log_scale[-1] + math.log(traj.norms_sq[-1])
        assert log_survival == pytest.approx(-2 * REF.gamma2 * 2500.0, rel=1e-6)
        assert traj.log_scale[-1] != 0.0

    @pytest.mark.parametrize("c1, c2", [(1e300, 1e300), (complex(1.5e308, 1.5e308), 0.0)])
    def test_overflowing_initial_state_is_non_finite(self, c1, c2):
        # finite amplitudes whose squared norm or modulus overflows float64
        drive = StaticDrive(FieldPoint(1.0, 0.2), 1.0)
        with pytest.raises(NonFiniteError):
            propagate_direct(REF, drive, StateVector(c1, c2), n_output=8)

    def test_huge_rates_end_in_the_step_budget(self):
        # e1 = 1e100 drives the step to about 1e-100; the run stops once
        # (T - t)/h predicts more than 1e7 steps past the 1e4 taken
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


def scipy_direct(params, drive, initial, config, n_output):
    """Oracle: scipy's DOP853 class driven as propagate_direct once drove it.

    Dense output on every step, and a fresh solver from ``initial_step``
    after each renormalization. Returns the record and the accepted steps.
    """
    T = drive.duration_T

    def rhs(t, u):
        fp = drive.field_at(min(max(t, 0.0), T))
        a, g = _traceless(params, fp.omega, fp.eps0)
        return -1j * np.array([a * u[0] + g * u[1], g * u[0] - a * u[1]], dtype=complex)

    grid = np.linspace(0.0, T, n_output + 1)
    u = initial.as_array()
    log_u = 0.0
    times, raw, logs = [0.0], [u.copy()], [log_u]
    t_now, gi, accepted = 0.0, 1, 0
    while t_now < T:
        first = min(config.initial_step, config.max_step, 0.5 * (T - t_now))
        solver = DOP853(rhs, t_now, u, t_bound=T, rtol=config.rel_tol, atol=config.abs_tol,
                        max_step=config.max_step, first_step=first)
        restart = False
        while solver.status == "running":
            solver.step()
            assert solver.status != "failed"
            accepted += 1
            dense = solver.dense_output()
            while gi <= n_output and grid[gi] <= solver.t:
                times.append(grid[gi])
                raw.append(dense(grid[gi]))
                logs.append(log_u)
                gi += 1
            n2 = float(abs(solver.y[0]) ** 2 + abs(solver.y[1]) ** 2)
            if n2 > 0 and not (_LOG_WORK_LO < math.log(n2) < _LOG_WORK_HI):
                u, t_now, restart = solver.y / math.sqrt(n2), solver.t, True
                log_u += math.log(n2)
                break
        if not restart:
            u, t_now = solver.y, solver.t
    states, norms, logs, _ = finalize(params, drive, times, raw, logs)
    return TrajectoryRecord(np.array(times), states, norms, logs, None, None), accepted


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


class TestDirectStepperAgainstScipy:
    @pytest.mark.parametrize("params, loop, state", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_same_steps_and_grid_rows(self, params, loop, state):
        traj = propagate_direct(params, loop, StateVector.basis(state), TIGHT, n_output=64)
        oracle, accepted = scipy_direct(params, loop, StateVector.basis(state), TIGHT, n_output=64)
        assert traj.meta["solver"]["accepted"] == accepted
        np.testing.assert_array_equal(traj.times, oracle.times)
        np.testing.assert_array_equal(traj.log_scale, oracle.log_scale)
        rel = np.linalg.norm(traj.states - oracle.states, axis=1) / np.linalg.norm(oracle.states, axis=1)
        assert rel.max() <= 1e-12, rel.max()

    def test_dense_output_only_on_steps_holding_a_grid_time(self, monkeypatch):
        # every RHS call evaluates the drive kernel once: 12 per step, 3 more
        # on each of the 8 steps that hold a grid time, 1 at t = 0; the scipy
        # oracle, whose RHS goes through loops.field_at, builds the
        # interpolant on every step
        calls = []
        make_kernel = loops._traceless_kernel

        def counting_kernel(drive, params):
            kernel = make_kernel(drive, params)
            return lambda t: calls.append(t) or kernel(t)

        monkeypatch.setattr(prop, "_traceless_kernel", counting_kernel)
        loop, init = diode_loop(Direction.CCW), StateVector.basis(2)
        solver = propagate_direct(REF, loop, init, TIGHT, n_output=8).meta["solver"]
        assert solver["rhs_calls"] == len(calls)
        assert solver["rhs_calls"] == 12 * solver["accepted"] + 3 * 8 + 1
        calls.clear()
        field_at = loops.field_at
        monkeypatch.setattr(loops, "field_at", lambda loop, t: calls.append(t) or field_at(loop, t))
        _, accepted = scipy_direct(REF, loop, init, TIGHT, n_output=8)
        assert accepted == solver["accepted"]
        assert len(calls) == 15 * accepted + 1


@pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
def test_solver_reports_the_accepted_step_sizes(propagate):
    # min_step and max_step are the extremes of the accepted steps, the last
    # one (clipped to T) included: the differences of the step ends that
    # record_internal keeps, with the grid rows inside steps taken out
    loop = encircling_loop(50.0, Direction.CW)
    traj = propagate(REF, loop, StateVector.basis(2), TIGHT, n_output=2, record_internal=True)
    solver = traj.meta["solver"]
    ends = np.union1d([0.0, 50.0], np.setdiff1d(traj.times, [25.0]))
    assert ends.size == solver["accepted"] + 1
    steps = np.diff(ends)
    assert (solver["min_step"], solver["max_step"]) == (steps.min(), steps.max())
    assert TIGHT.initial_step >= solver["min_step"] and solver["max_step"] > 10 * solver["min_step"]


def bits(a) -> bytes:
    """The raw bytes of an array: equal only if every value, signed zeros too, is equal."""
    return np.ascontiguousarray(a).tobytes()


#: decays by e^-8 per unit time: the record renormalizes about every 43 time units
DECAYING = SystemParams(e1=0.0, e2=1.0, gamma1=3.0, gamma2=5.0, d12=1.0)

ROW_CASES = {
    "direct-diode": (propagate_direct, REF, diode_loop(Direction.CW), 1, {}),
    "direct-internal": (propagate_direct, REF, encircling_loop(50.0, Direction.CCW), 2, {"record_internal": True}),
    "direct-static": (propagate_direct, REF, StaticDrive(FieldPoint(1.07, 0.31), 7.0), 1, {"n_output": 64}),
    "direct-renormalizing": (propagate_direct, DECAYING, StaticDrive(FieldPoint(0.5, 0.3), 400.0), 1, {}),
    "adiabatic-encircling": (propagate_adiabatic, REF, encircling_loop(50.0, Direction.CW), 2, {}),
    "adiabatic-internal": (
        propagate_adiabatic, REF, encircling_loop(50.0, Direction.CCW), 1, {"record_internal": True}
    ),
    "adiabatic-static": (propagate_adiabatic, REF, StaticDrive(FieldPoint(1.07, 0.31), 7.0), 2, {"n_output": 64}),
    "adiabatic-renormalizing": (
        propagate_adiabatic, DECAYING, StaticDrive(FieldPoint(0.5, 0.3), 400.0), 1, {"n_output": 300}
    ),
}


class TestRowsAgainstReference:
    """``_finalize`` on whole columns against the recorder's scalar loop in ``row_reference``."""

    @pytest.mark.parametrize("propagate, params, drive, state, kwargs", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_bits_equal_the_scalar_loop(self, monkeypatch, propagate, params, drive, state, kwargs):
        calls = []
        array_finalize = prop._finalize
        monkeypatch.setattr(prop, "_finalize", lambda *args: calls.append(args) or array_finalize(*args))
        traj = propagate(params, drive, StateVector.basis(state), TIGHT, **kwargs)
        (args,) = calls
        states, norms, logs, coeffs = finalize(*args)
        assert bits(traj.states) == bits(states)
        assert bits(traj.norms_sq) == bits(norms)
        assert bits(traj.log_scale) == bits(logs)
        assert (coeffs is None) == (traj.adiabatic_coeffs is None)
        if coeffs is not None:
            assert bits(traj.adiabatic_coeffs) == bits(coeffs)
        if params is DECAYING:
            assert len(set(traj.log_scale.tolist())) > 5  # the record renormalized

    @pytest.mark.parametrize("drive", [encircling_loop(1.0), StaticDrive(FieldPoint(1.07, 0.31), 1.0)],
                             ids=["loop", "static"])
    def test_synthetic_rows(self, drive):
        # every row renormalizes: odd rows have |state| near 1 and no rescaling, so
        # log_scale holds the bits of their log |state|^2; even rows reach 10^+-100
        # and e^+-300, so the exp, the moduli and the squares cover the range
        rng = np.random.default_rng(11)
        m = 16384
        times = np.sort(rng.uniform(0.0, drive.duration_T, m))
        times[0] = 0.0
        odd = np.arange(m) % 2 == 1
        sign = rng.choice([-1.0, 1.0], m)
        magnitude = np.where(odd, rng.uniform(0.3, 3.0, m), 10.0 ** (100.0 * sign))
        raw = (rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))) * magnitude[:, None]
        log_internal = np.where(odd, 0.0, sign * rng.uniform(0.0, 300.0, m))
        coeffs = raw[::-1].copy()
        # no decay (gamma1 = gamma2 = 0), so an odd row's log is not rounded into a larger sum
        got = prop._finalize(HERMITIAN_PARAMS, drive, times, raw, log_internal, coeffs)
        want = finalize(HERMITIAN_PARAMS, drive, times, raw, log_internal, coeffs)
        assert [bits(a) for a in got] == [bits(a) for a in want]
        assert len(set(got[2].tolist())) == m

    def test_dense_output_is_scipys_loop(self):
        # the Horner chain of _Dop853.dense gives the bits of scipy's loop
        kernel = loops._traceless_kernel(diode_loop(Direction.CCW), REF)

        def rhs(t, u0, u1):
            a, g, _, _ = kernel(t)
            return -1j * (a * u0 + g * u1), -1j * (g * u0 - a * u1)

        stepper = prop._Dop853(rhs, (0.6 + 0j, 0.8j), DIODE_DURATION, TIGHT)
        for _ in range(60):
            stepper.step()
            interp = stepper.dense()
            reference = dop853_interp(stepper)
            for t in np.linspace(stepper.t_old, stepper.t, 7).tolist():
                assert bits(np.array(interp(t))) == bits(np.array(reference(t)))


@pytest.mark.parametrize("propagate", [propagate_direct, propagate_adiabatic], ids=["direct", "adiabatic"])
def test_meta_times_each_phase(propagate):
    # wall times per phase sit outside meta["solver"], whose counts stay deterministic,
    # and outside the files, which stay byte-identical from run to run
    runs = [propagate(REF, encircling_loop(50.0), StateVector.basis(2), TIGHT) for _ in range(2)]
    for traj in runs:
        assert sorted(traj.meta["phase_s"]) == ["rows", "stepping"]
        assert all(seconds >= 0.0 for seconds in traj.meta["phase_s"].values())
    assert runs[0].meta["solver"] == runs[1].meta["solver"]
    assert trajectory_to_csv(runs[0]) == trajectory_to_csv(runs[1])
    assert trajectory_to_json(runs[0]) == trajectory_to_json(runs[1])


def dense(entries, n):
    """The row of length n whose nonzero entries are ((j, coefficient), ...)."""
    row = np.zeros(n)
    for j, c in entries:
        row[j] = c
    return row


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
        # _combine sums in tuple order, so the order is part of the arithmetic
        rows = [a for _, a in prop._DOP_STAGES + prop._DOP_EXTRA]
        rows += [prop._DOP_B, prop._DOP_E3, prop._DOP_E5, *prop._DOP_D]
        for row in rows:
            js = [j for j, _ in row]
            assert js == sorted(set(js))
            assert all(c != 0.0 for _, c in row)


class TestNaCoupling:
    def test_rotation_rate_half(self):
        # real symmetric family [[q, 1], [1, -q]]: eigenvector rotation rate
        # at q = 0 is 1/2
        h = 1e-6
        frame_a = eigenframe(HamiltonianMatrix.symmetric(-h, 1.0, h))
        frame_b = eigenframe(HamiltonianMatrix.symmetric(h, 1.0, -h))
        v_pm, v_mp = na_coupling(frame_a, frame_b, dt=2 * h, velocity=(1.0, 0.0))
        assert abs(v_pm) == pytest.approx(0.5, rel=1e-6)
        assert abs(v_mp) == pytest.approx(0.5, rel=1e-6)
        assert v_pm == pytest.approx(-v_mp, rel=1e-6)

    def test_zero_velocity(self):
        frame = eigenframe(HamiltonianMatrix.symmetric(0.3, 1.0, -0.3))
        assert na_coupling(frame, frame, dt=1.0, velocity=(0.0, 0.0)) == (0j, 0j)

    def test_unpairable_frames_rejected(self):
        # 45-degree rotated frames overlap both branches equally: that is the
        # divergent-derivative signature, not a usable difference quotient
        from epdyn.errors import EPProximityError

        frame_a = eigenframe(HamiltonianMatrix.symmetric(1.0, 1e-3, -1.0))
        frame_b = eigenframe(HamiltonianMatrix.symmetric(0.0, 1.0, 0.0))
        with pytest.raises(EPProximityError):
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
            fp = loop.field_at(t)
            velocity = loop.velocity_at(t)
            speed = math.hypot(*velocity)
            ux, uy = velocity[0] / speed, velocity[1] / speed
            frame_a = eigenframe(build_hamiltonian(REF, FieldPoint(fp.omega - h * ux, fp.eps0 - h * uy)))
            frame_b = eigenframe(build_hamiltonian(REF, FieldPoint(fp.omega + h * ux, fp.eps0 + h * uy)))
            fd = na_coupling(frame_a, frame_b, dt=2 * h / speed, velocity=velocity)
            closed = na_coupling_at(REF, loop, t)
            for c, f in zip(closed, fd):
                assert abs(c - f) <= 1e-8 * abs(f), (t, closed, fd)


class TestDopri5:
    def test_output_times_do_not_steer_the_controller(self):
        # the stepper runs free to T and interpolates the output rows, so the
        # output grid changes neither the steps nor the final row
        loop = encircling_loop(50.0, Direction.CW)
        coarse = propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT, n_output=8)
        fine = propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT, n_output=512)
        for key in ("accepted", "rejected"):
            assert coarse.meta["solver"][key] == fine.meta["solver"][key]
        assert coarse.meta["solver"]["accepted"] > 100
        assert np.array_equal(coarse.final_state, fine.final_state)
        assert coarse.log_scale[-1] == fine.log_scale[-1]

    def test_initial_step_below_the_floor_starts_at_the_floor(self):
        # the floor is 1e-14 T; an initial_step under it used to fail at once
        loop = encircling_loop(50.0, Direction.CW)
        tiny = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, initial_step=1e-15)
        traj = propagate_adiabatic(REF, loop, StateVector.basis(2), tiny, n_output=8)
        assert traj.times[-1] == 50.0

    @pytest.mark.parametrize("T", [2e16, 1e300])
    def test_floor_above_the_cap_is_a_step_budget_error(self, T):
        # past T ~ 1e15 max_step the floor 1e-14 T lies above the cap
        # min(max_step, T/64), so no step fits; this used to read as a step
        # size underflow at t = 0
        loop = LoopSpec(FieldPoint(1.0, 0.2), 0.05, 0.05, Direction.CW, T)
        floor, cap, at_T = (re.escape(text) for text in (f"{1e-14 * T:.3e}", f"{10.0:.3e}", f"{T:.6g}"))
        with pytest.raises(StepBudgetError, match=f"floor .*{floor} above the step cap .*{cap} at T = {at_T}"):
            propagate_adiabatic(REF, loop, StateVector.basis(2), n_output=8)

    def test_dense_output_coefficients_are_scipys(self):
        from scipy.integrate._ivp.rk import RK45

        np.testing.assert_array_equal(np.array(prop._DP_P), RK45.P)
        np.testing.assert_array_equal(prop._DP_C, RK45.C[1:])
        for s, row in enumerate(prop._DP_A, 1):
            np.testing.assert_array_equal(row, RK45.A[s, :s])
        np.testing.assert_array_equal(prop._DP_B5[:6], RK45.B)
        # scipy's E is the 4th- minus the 5th-order weights
        np.testing.assert_allclose(prop._DP_E, -RK45.E, rtol=1e-14, atol=1e-17)

    @pytest.mark.parametrize("direction", [Direction.CW, Direction.CCW])
    def test_every_row_agrees_with_direct(self, direction):
        # interior rows come from the dense output, the direct route's from
        # its own DOP853 interpolant. 1 - F is quadratic in the error, so the
        # rows are also compared as vectors: both routes record the same
        # physical state (measured <= 1.3e-10 relative; an interpolant
        # without its x^4 term gives 1e-7 with 1 - F still below 3e-14)
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
        e_p, e_m = eigenvalues(build_hamiltonian(REF, drive.field))
        for t in (2.5, 7.0):
            phi = accumulated_phase(REF, drive, t)
            assert phi == pytest.approx((e_p - e_m) * t, rel=1e-10)

    def test_hermitian_loop_real(self):
        phi = accumulated_phase(HERMITIAN_PARAMS, hermitian_loop(30.0), 30.0)
        assert abs(phi.imag) < 1e-10
        assert abs(phi.real) > 1.0

    def test_pairing_flips_sign(self):
        loop = encircling_loop(20.0)
        a = accumulated_phase(REF, loop, 20.0, branch_pairing="plus-minus")
        b = accumulated_phase(REF, loop, 20.0, branch_pairing="minus-plus")
        assert a == pytest.approx(-b)

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

    def test_diode_phase_integrals_unchanged(self):
        # the values scipy.integrate.simpson gave on these samples, to the bit
        cw = accumulated_phase(REF, diode_loop(Direction.CW), DIODE_DURATION, n_samples=8192)
        ccw = accumulated_phase(REF, diode_loop(Direction.CCW), DIODE_DURATION, n_samples=8192)
        assert cw == complex(518.8764293351911, 7.164493477684154)
        assert ccw == complex(-518.876429335191, -7.164493477684161)


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


class TestAverageDecayRate:
    def test_static_bare_widths(self):
        drive = StaticDrive(FieldPoint(1.0, 0.0), 10.0)
        assert average_decay_rate(REF, drive, "plus") == pytest.approx(0.1, abs=1e-10)
        assert average_decay_rate(REF, drive, "minus") == pytest.approx(0.3, abs=1e-10)

    def test_hermitian_zero(self):
        loop = hermitian_loop(10.0)
        assert average_decay_rate(HERMITIAN_PARAMS, loop, "plus") == pytest.approx(0.0, abs=1e-12)
        assert average_decay_rate(HERMITIAN_PARAMS, loop, "minus") == pytest.approx(0.0, abs=1e-12)

    def test_encircling_branches_share_average(self):
        # each tracked branch closes only after two traversals, covering both
        # sheets, so the averages coincide at the mean bare width
        loop = encircling_loop(10.0)
        plus = average_decay_rate(REF, loop, "plus")
        minus = average_decay_rate(REF, loop, "minus")
        assert plus == pytest.approx(minus, abs=1e-12)
        assert plus == pytest.approx(0.5 * (REF.gamma1 + REF.gamma2), abs=1e-8)


class TestAdiabaticPropagation:
    def test_static_coefficients_frozen(self):
        # zero parameter velocity means zero coupling: the phase-stripped
        # coefficients stay put and the bare state carries phase/decay only
        drive = StaticDrive(FieldPoint(1.0, 0.4), 6.0)
        initial = StateVector(0.8, 0.6j)
        traj = propagate_adiabatic(REF, drive, initial, TIGHT, n_output=16)
        h = build_hamiltonian(REF, drive.field)
        e_p, e_m = eigenvalues(h)
        frame = eigenframe(h)
        a0 = np.array(
            [c_product(frame.v_plus, initial.as_array()), c_product(frame.v_minus, initial.as_array())]
        )
        for k, t in enumerate(traj.times):
            scale = math.exp(0.5 * traj.log_scale[k])
            coeffs = traj.adiabatic_coeffs[k] * scale
            stripped = coeffs * np.array([cmath.exp(1j * e_p * t), cmath.exp(1j * e_m * t)])
            np.testing.assert_allclose(stripped, a0, rtol=1e-8, atol=1e-10)
        expected = expm(-1j * h.as_array() * 6.0) @ initial.as_array()
        np.testing.assert_allclose(traj.final_state, expected, rtol=1e-8, atol=1e-12)

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
            frame0 = eigenframe(build_hamiltonian(HERMITIAN_PARAMS, loop.field_at(0.0)))
            initial = StateVector(*frame0.v_plus)
            traj = propagate_adiabatic(HERMITIAN_PARAMS, loop, initial, TIGHT)
            final = normalized_final(traj)
            frame_T = eigenframe(build_hamiltonian(HERMITIAN_PARAMS, loop.field_at(T)))
            v_other = frame_T.v_minus / np.linalg.norm(frame_T.v_minus)
            leakage.append(fidelity(final, v_other))
        assert leakage[1] < leakage[0]

    @staticmethod
    def counting_stepper(monkeypatch, calls: dict) -> list:
        """Count RHS calls of the adiabatic stepper; returns the accepted step ends."""
        ends = []

        class CountingDopri5(prop._Dopri5):
            def __init__(self, rhs, *args):
                def counted_rhs(*a):
                    calls["rhs"] += 1
                    calls["inside"] = True
                    try:
                        return rhs(*a)
                    finally:
                        calls["inside"] = False

                super().__init__(counted_rhs, *args)

            def step(self):
                super().step()
                ends.append(self.t)

        monkeypatch.setattr(prop, "_Dopri5", CountingDopri5)
        return ends

    def test_solver_counts(self, monkeypatch):
        calls = {"rhs": 0}
        self.counting_stepper(monkeypatch, calls)
        traj = propagate_adiabatic(REF, encircling_loop(50.0, Direction.CW), StateVector.basis(2), TIGHT)
        solver = traj.meta["solver"]
        assert set(solver) == {"accepted", "rejected", "rhs_calls", "renormalizations", "min_step", "max_step"}
        assert solver["rhs_calls"] == calls["rhs"]
        assert solver["rhs_calls"] == 1 + 6 * (solver["accepted"] + solver["rejected"])

    def test_one_eigensolve_per_step_and_interior_grid_time(self, monkeypatch):
        # the RHS continues the energy without an eigensolve; after the
        # stepper, one batch solves the frame at each step end and at each
        # grid time strictly inside a step, in a number of array calls that
        # does not grow with the step count
        calls = {"solve": 0, "frames": 0, "rhs": 0, "inside": False}
        real_solve = frames._solve

        def counted_solve(params, drive, times):
            assert not calls["inside"], "eigensolve inside the RHS"
            calls["solve"] += 1
            calls["frames"] += len(times)
            return real_solve(params, drive, times)

        ends = self.counting_stepper(monkeypatch, calls)
        monkeypatch.setattr(frames, "_solve", counted_solve)
        n_output = 512
        traj = propagate_adiabatic(
            REF, encircling_loop(50.0, Direction.CW), StateVector.basis(2), TIGHT, n_output=n_output
        )
        grid = np.linspace(0.0, 50.0, n_output + 1)
        interior = len(set(grid[1:].tolist()) - set(ends))
        assert calls["rhs"] > 0
        assert len(ends) == traj.meta["solver"]["accepted"]
        assert 0 < interior < n_output
        assert calls["frames"] == 1 + len(ends) + interior
        batches = math.ceil(len(ends) / frames._BLOCK) + math.ceil(interior / frames._BLOCK)
        assert calls["solve"] == 1 + batches
        assert calls["solve"] <= 3 < len(ends)

    def test_commit_rejects_energy_on_the_other_branch(self, monkeypatch):
        # corrupt the energy continued to one step end: the batch check finds
        # that overlap tracking puts the other branch in slot 0 there
        real_settle = frames._settle
        corrupted = []

        def corrupting_settle(params, loop, ep_tol, first, steps):
            k = len(steps.energies) // 2
            steps.energies[k] = -steps.energies[k]
            corrupted.append(steps.ends[k])
            return real_settle(params, loop, ep_tol, first, steps)

        monkeypatch.setattr(frames, "_settle", corrupting_settle)
        loop = encircling_loop(50.0, Direction.CW)
        with pytest.raises(AmbiguousTrackingError, match="overlap tracking") as info:
            propagate_adiabatic(REF, loop, StateVector.basis(2), TIGHT)
        assert f"at t = {corrupted[0]:.6g}" in str(info.value)

    def test_branch_labels_recorded(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.35),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=20.0,
        )
        traj = propagate_adiabatic(REF, loop, StateVector.basis(1), n_output=32)
        assert traj.branch_labels is not None
        assert set(traj.branch_labels) <= {"+", "-"}
        assert traj.adiabatic_coeffs.shape == traj.states.shape

    def test_internal_steps_recorded(self):
        loop = LoopSpec(
            center=FieldPoint(1.0, 0.35),
            semi_axis_omega=0.05,
            semi_axis_eps=0.05,
            direction=Direction.CCW,
            duration_T=20.0,
        )
        coarse = propagate_adiabatic(REF, loop, StateVector.basis(1), n_output=8)
        full = propagate_adiabatic(
            REF, loop, StateVector.basis(1), n_output=8, record_internal=True
        )
        assert len(full.times) >= len(coarse.times)
        assert np.all(np.diff(full.times) > 0)
        assert full.times[-1] == 20.0
