"""The direct route's loop-based DOP853, kept as the oracle of the generated run.

``_Dop853`` is the stepper the package ran before its integration became
straight-line code compiled from the tableau: the stages as loops over the
tableau's entries (``_combine``), an RHS callable, and ``dense()``, which
takes the three extra stages and returns the interpolant of the last step.
``propagate_direct`` drives it as the package's ``propagate_direct`` once did.
Its RHS takes (a, g) from ``_traceless_kernel``, the drive read once per run.
The tests check that the package's records are the same bits and its
``meta["solver"]`` the same counts.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from epdyn.errors import NonFiniteError, StepBudgetError, StepSizeUnderflowError
from epdyn.loops import StaticDrive, field_velocity
from epdyn.model import _traceless, _traceless_drive
from epdyn.propagation import (
    _DOP_B,
    _DOP_D,
    _DOP_E3,
    _DOP_E5,
    _DOP_EXTRA,
    _DOP_STAGES,
    _LOG_WORK_HI,
    _LOG_WORK_LO,
    _N_STAGES,
    _N_STAGES_EXTENDED,
    _STEP_BUDGET,
    _STEP_BUDGET_REMAINING,
    IntegratorConfig,
    StateVector,
    TrajectoryRecord,
    _budget_message,
    _finalize,
    _output_grid,
    Drive,
    SystemParams,
)


def _combine(coeffs, k0: list, k1: list) -> tuple:
    """sum_j c_j K[j] for both components."""
    d0 = d1 = 0j
    for j, c in coeffs:
        d0 += c * k0[j]
        d1 += c * k1[j]
    return d0, d1


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


class _Dop853:
    """DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10) on two complex scalars.

    The tableau is the published one, written out above; the tests check it
    equal to scipy's. The error norm (scipy's blend of the 5th- and 3rd-order
    estimates), the step controller and the floor min_step = 10 ulp(t) are
    those of ``scipy.integrate.DOP853``, which stays in the tests as the
    oracle; only the stepping loop differs. ``rhs(t, y0, y1)`` returns the
    derivative pair. The stages of the last accepted step are kept, so the
    dense-output interpolant is built only when ``dense()`` asks for it.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 10.0
    EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)

    def __init__(self, rhs, y: tuple, t_bound: float, config: IntegratorConfig) -> None:
        self.rhs = rhs
        self.t_bound = t_bound
        self.rtol, self.atol, self.max_step = config.rel_tol, config.abs_tol, config.max_step
        self.t, self.y = 0.0, y
        self.f = rhs(0.0, *y)
        self.h_abs = min(config.initial_step, config.max_step, 0.5 * t_bound)
        self.k0 = [0j] * _N_STAGES_EXTENDED
        self.k1 = [0j] * _N_STAGES_EXTENDED
        self.rhs_calls = 1
        self.accepted = 0
        self.rejected = 0
        self.renormalizations = 0
        self.h_min, self.h_max = math.inf, 0.0

    def step(self) -> None:
        """Take one accepted step, shrinking the trial step on rejection."""
        t, (y0, y1), k0, k1, rhs = self.t, self.y, self.k0, self.k1, self.rhs
        min_step = 10.0 * math.ulp(t)
        h = self.h_abs
        if h > self.max_step:
            h = self.max_step
        elif h < min_step:
            h = min_step
        rejected = False
        while True:
            if h < min_step:
                raise StepSizeUnderflowError(
                    f"step size {h:.3e} below 10 ulp(t) = {min_step:.3e} at t = {t:.6g}"
                )
            t_new = min(t + h, self.t_bound)
            h = t_new - t
            k0[0], k1[0] = self.f
            for s, (c, a) in enumerate(_DOP_STAGES, 1):
                d0 = d1 = 0j
                for j, a_j in a:
                    d0 += a_j * k0[j]
                    d1 += a_j * k1[j]
                k0[s], k1[s] = rhs(t + c * h, y0 + d0 * h, y1 + d1 * h)
            d0, d1 = _combine(_DOP_B, k0, k1)
            n0, n1 = y0 + h * d0, y1 + h * d1
            f = k0[_N_STAGES], k1[_N_STAGES] = rhs(t + h, n0, n1)
            self.rhs_calls += _N_STAGES
            s0 = self.atol + max(abs(y0), abs(n0)) * self.rtol
            s1 = self.atol + max(abs(y1), abs(n1)) * self.rtol
            e0, e1 = _combine(_DOP_E5, k0, k1)
            err5 = _abs2(e0 / s0) + _abs2(e1 / s1)
            e0, e1 = _combine(_DOP_E3, k0, k1)
            err3 = _abs2(e0 / s0) + _abs2(e1 / s1)
            if err5 == 0.0 and err3 == 0.0:
                err = 0.0
            else:
                err = h * err5 / math.sqrt(2.0 * (err5 + 0.01 * err3))
            if err < 1.0:
                factor = self.MAX_FACTOR
                if err > 0.0:
                    factor = min(factor, self.SAFETY * err**self.EXPONENT)
                self.h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h *= max(self.MIN_FACTOR, self.SAFETY * err**self.EXPONENT)
            rejected = True
            self.rejected += 1
        self.accepted += 1
        self.h_min, self.h_max = min(self.h_min, h), max(self.h_max, h)
        self.t_old, self.y_old, self.h = t, self.y, h
        self.t, self.y, self.f = t_new, (n0, n1), f

    def dense(self):
        """Interpolant t -> (y0, y1) over the last accepted step (3 more RHS calls).

        Call it before ``rescale``: it reads the step's end state.
        """
        k0, k1, h, t_old = self.k0, self.k1, self.h, self.t_old
        y_old = self.y_old
        for s, (c, a) in enumerate(_DOP_EXTRA, _N_STAGES + 1):
            d0, d1 = _combine(a, k0, k1)
            k0[s], k1[s] = self.rhs(t_old + c * h, y_old[0] + d0 * h, y_old[1] + d1 * h)
        self.rhs_calls += len(_DOP_EXTRA)
        high = [_combine(d, k0, k1) for d in _DOP_D]
        polys = []
        for i, k in enumerate((k0, k1)):
            dy = self.y[i] - y_old[i]
            f_old, f_new = k[0], k[_N_STAGES]
            d3, d4, d5, d6 = (h * pair[i] for pair in high)
            # scipy's loop first adds the top coefficient to a zero accumulator,
            # which turns a -0.0 part into 0.0
            polys.append((dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old), d3, d4, d5, 0j + d6))
        (p0, p1, p2, p3, p4, p5, p6), (q0, q1, q2, q3, q4, q5, q6) = polys
        y0, y1 = y_old

        def interp(t: float) -> tuple:
            # scipy's Horner scheme in x and 1 - x, alternating from the top coefficient
            x = (t - t_old) / h
            u = 1.0 - x
            return (
                ((((((p6 * x + p5) * u + p4) * x + p3) * u + p2) * x + p1) * u + p0) * x + y0,
                ((((((q6 * x + q5) * u + q4) * x + q3) * u + q2) * x + q1) * u + q0) * x + y1,
            )

        return interp

    def rescale(self, norm: float) -> None:
        """Divide the state and its FSAL derivative by ``norm``; the step size is kept."""
        self.y = (self.y[0] / norm, self.y[1] / norm)
        self.f = (self.f[0] / norm, self.f[1] / norm)
        self.renormalizations += 1

    def counts(self) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rhs_calls": self.rhs_calls,
            "renormalizations": self.renormalizations,
            "min_step": self.h_min,
            "max_step": self.h_max,
        }


def _traceless_kernel(drive, params: SystemParams):
    """The closure t -> (a, g, a', g') along a loop or static drive, read once per run.

    The direct route's generated run writes the (a, g) part out
    (``propagation._dop853_source``); the reference stepper calls the closure.
    It clamps t to [0, T] as min(max(t, 0.0), T) does: RK stages can poke epsilon outside,
    and the contour is periodic and smooth, so clamping is exact there. Then
    it does the operations of ``_traceless(params, *field_at(drive, t))`` and
    ``_traceless_drive(params, *field_velocity(drive, t))`` in their order,
    on constants taken from the drive and ``params`` here, so every value is
    the bits of that reference path without its calls and objects.
    """
    if isinstance(drive, StaticDrive):
        values = (*_traceless(params, drive.field.omega, drive.field.eps0),
                  *_traceless_drive(params, *field_velocity(drive, 0.0)))
        return lambda t: values
    T, th0 = drive.duration_T, drive.start_phase
    turn = drive.direction.sign * 2.0 * math.pi
    rate = turn / T
    cx, cy = drive.center.omega, drive.center.eps0
    ax, ay = drive.semi_axis_omega, drive.semi_axis_eps
    a_static, half_d12 = params._a_static, params._half_d12
    fmod, cos, sin = math.fmod, math.cos, math.sin

    def kernel(t: float) -> tuple:
        if t < 0.0:  # min(max(t, 0.0), T) without the two calls
            t = 0.0
        elif t > T:
            t = T
        th = th0 + turn * fmod(t / T, 1.0)
        c, s = cos(th), sin(th)
        return (
            a_static + 0.5 * (cx + ax * c),
            half_d12 * (cy + ay * s),
            0.5 * (-ax * s * rate),
            half_d12 * (ay * c * rate),
        )

    return kernel


def kernel_rhs(drive, params: SystemParams):
    """The RHS (t, u0, u1) -> -i H (u0, u1) of the direct route, (a, g) from ``_traceless_kernel``."""
    kernel = _traceless_kernel(drive, params)

    def rhs(t: float, u0: complex, u1: complex) -> tuple:
        a, g, _, _ = kernel(t)
        return -1j * (a * u0 + g * u1), -1j * (g * u0 - a * u1)

    return rhs


def propagate_direct(
    params: SystemParams,
    drive: Drive,
    initial,
    config: IntegratorConfig = IntegratorConfig(),
    n_output: int = 512,
    record_internal: bool = False,
) -> TrajectoryRecord:
    """``propagate_direct`` as it stepped before its step was generated: the oracle.

    The loop-based ``_Dop853`` above, its RHS from ``_traceless_kernel``,
    and the interpolant built on each step that holds a grid time, one row at
    a time; the rows are finished by the package's ``_finalize``. Before the
    first step the initial state is brought into the working window as the
    loop rescales, divided first by its largest part when every square
    underflows.
    """
    initial = StateVector.coerce(initial)
    if n_output < 2:
        raise ValueError("n_output must be >= 2")
    T = drive.duration_T

    rhs = kernel_rhs(drive, params)
    grid = _output_grid(T, n_output)
    y = (complex(initial.c1), complex(initial.c2))
    log_u, renormalized = 0.0, 0
    n2 = _abs2(y[0]) + _abs2(y[1])
    if n2 == 0.0:
        norm = max(abs(y[0].real), abs(y[0].imag), abs(y[1].real), abs(y[1].imag))
        y = (y[0] / norm, y[1] / norm)
        log_u, renormalized = 2.0 * math.log(norm), 1
    elif n2 < math.inf and not (_LOG_WORK_LO < math.log(n2) < _LOG_WORK_HI):
        norm = math.sqrt(n2)
        y = (y[0] / norm, y[1] / norm)
        log_u, renormalized = math.log(n2), 1
    # the rows as columns: time, working-frame state, log of the rescalings so far
    times, raw, logs = [0.0], [y], [log_u]
    started = time.perf_counter()
    stepper = _Dop853(rhs, y, T, config)
    stepper.renormalizations = renormalized
    gi = 1
    try:
        while stepper.t < T:
            stepper.step()
            t, (y0, y1) = stepper.t, stepper.y
            if not (cmath.isfinite(y0) and cmath.isfinite(y1)):
                raise NonFiniteError("amplitudes became non-finite during integration")
            if gi < len(grid) and grid[gi] <= t:
                interp = stepper.dense()
                while gi < len(grid) and grid[gi] <= t:
                    times.append(grid[gi])
                    raw.append(interp(grid[gi]))
                    logs.append(log_u)
                    gi += 1
            if record_internal and times[-1] < t < T:
                times.append(t)
                raw.append(stepper.y)
                logs.append(log_u)
            if stepper.accepted > _STEP_BUDGET and T - t > _STEP_BUDGET_REMAINING * stepper.h:
                raise StepBudgetError(_budget_message(stepper.accepted, T, t, stepper.h))
            n2 = _abs2(y0) + _abs2(y1)
            if not n2 > 0:
                raise NonFiniteError("amplitudes underflowed float64 during integration")
            if not (_LOG_WORK_LO < math.log(n2) < _LOG_WORK_HI):
                if n2 == math.inf:
                    raise NonFiniteError("amplitudes overflowed float64")
                stepper.rescale(math.sqrt(n2))
                log_u += math.log(n2)
        stepped = time.perf_counter()
        times = np.array(times)
        states, norms, logs, _ = _finalize(params, drive, times, raw, np.array(logs))
    except OverflowError as exc:
        # abs() and ** on Python scalars raise OverflowError instead of returning inf
        raise NonFiniteError("amplitudes overflowed float64") from exc
    meta = {
        "method": "direct",
        "params": params,
        "drive": drive,
        "config": config,
        "n_output": n_output,
        "solver": stepper.counts(),
        "phase_s": {"stepping": stepped - started, "rows": time.perf_counter() - stepped},
    }
    return TrajectoryRecord(times, states, norms, logs, None, None, meta)


def stage_pairs(stepper: _Dop853) -> list:
    """K_0..K_12 of the last step, the two components interleaved, as the generated run keeps them."""
    return [z for pair in zip(stepper.k0[: _N_STAGES + 1], stepper.k1) for z in pair]
