"""The direct route's loop-based DOP853, kept as the oracle of the generated run.

``_Dop853`` is the package's stepper written as it ran before its
integration became straight-line code compiled from the tableau: the stages
as loops over the tableau's entries (``_combine``) and over the components,
an RHS callable, and ``dense()``, which takes the three extra stages and
returns the interpolant of the last step. ``propagate_direct`` drives it on
the fundamental matrix U's four components from the identity and reads each
row U c0 in Python scalars. Its RHS takes (a, g) from ``_traceless_kernel``,
the drive read once per run. The tests check that the package's records are
the same bits and its ``meta["solver"]`` the same counts.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from epdyn.errors import NonFiniteError, StepBudgetError, StepSizeUnderflowError
from epdyn.loops import StaticDrive, _samples, field_velocity
from epdyn.model import _traceless, _traceless_drive
from epdyn.propagation import (
    _DOP_B,
    _DOP_D,
    _DOP_E3,
    _DOP_E5,
    _DOP_EXTRA,
    _DOP_STAGES,
    _N_STAGES,
    _N_STAGES_EXTENDED,
    _STEP_BUDGET,
    _STEP_BUDGET_REMAINING,
    IntegratorConfig,
    StateVector,
    TrajectoryRecord,
    _budget_message,
    _decay,
    _finalize,
    _trace_factor,
    Drive,
    SystemParams,
)


def _combine(coeffs, ks: list) -> tuple:
    """sum_j c_j K[j] for each component."""
    out = []
    for k in ks:
        d = 0j
        for j, c in coeffs:
            d += c * k[j]
        out.append(d)
    return tuple(out)


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _norm2(zs) -> float:
    """sum_i |z_i|^2, in the components' order."""
    total = 0.0
    for z in zs:
        total += _abs2(z)
    return total


#: U(0): the fundamental matrix as its columns (U00, U10) and (U01, U11)
IDENTITY = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
#: a column whose squared norm leaves this window is rescaled; a test opens it to (0, inf) to run the unrescaled twin
WINDOW = (1e-100, 1e100)


def column_tol(atol: float, exponent: int) -> float:
    """atol * 2**-exponent, no smaller than the smallest subnormal, and inf where it overflows."""
    try:
        return max(math.ldexp(atol, -exponent), math.ulp(0.0))
    except OverflowError:
        return math.inf


class _Dop853:
    """DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10) on a tuple of complex scalars.

    The tableau is the published one, written out above; the tests check it
    equal to scipy's. The error norm (scipy's blend of the 5th- and 3rd-order
    estimates over all components), the step controller and the floor
    min_step = 10 ulp(t) are those of ``scipy.integrate.DOP853``, which
    stays in the tests as the oracle; only the stepping loop differs.
    ``rhs(t, y)`` returns the derivative tuple. Each component has its own
    absolute tolerance, ``abs_tol`` until ``rescale`` gives it another. The
    stages of the last accepted step are kept, so the dense-output
    interpolant is built only when ``dense()`` asks for it.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 10.0
    EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)

    def __init__(self, rhs, y: tuple, t_bound: float, config: IntegratorConfig) -> None:
        self.rhs = rhs
        self.t_bound = t_bound
        self.rtol, self.max_step = config.rel_tol, config.max_step
        self.atols = [config.abs_tol] * len(y)
        self.t, self.y = 0.0, y
        self.f = rhs(0.0, y)
        self.h_abs = min(config.initial_step, config.max_step, 0.5 * t_bound)
        self.k = [[0j] * _N_STAGES_EXTENDED for _ in y]
        self.rhs_calls = 1
        self.accepted = 0
        self.rejected = 0
        self.renormalizations = 0
        self.h_min, self.h_max = math.inf, 0.0

    def step(self) -> None:
        """Take one accepted step, shrinking the trial step on rejection."""
        t, y, ks, rhs = self.t, self.y, self.k, self.rhs
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
            for k, f in zip(ks, self.f):
                k[0] = f
            for s, (c, a) in enumerate(_DOP_STAGES, 1):
                d = _combine(a, ks)
                for k, f in zip(ks, rhs(t + c * h, tuple(yi + di * h for yi, di in zip(y, d)))):
                    k[s] = f
            new = tuple(yi + h * di for yi, di in zip(y, _combine(_DOP_B, ks)))
            f = rhs(t + h, new)
            for k, fi in zip(ks, f):
                k[_N_STAGES] = fi
            self.rhs_calls += _N_STAGES
            scale = [atol + max(abs(yi), abs(ni)) * self.rtol for atol, yi, ni in zip(self.atols, y, new)]
            err5 = _norm2(e / s for e, s in zip(_combine(_DOP_E5, ks), scale))
            err3 = _norm2(e / s for e, s in zip(_combine(_DOP_E3, ks), scale))
            # err5 = 0 gives err 0 (scipy's 0/0 where 0.01 err3 underflows too, as a huge tolerance allows)
            if err5 == 0.0:
                err = 0.0
            else:
                err = h * err5 / math.sqrt(float(len(y)) * (err5 + 0.01 * err3))
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
        self.t, self.y, self.f = t_new, new, f

    def dense(self):
        """Interpolant t -> y over the last accepted step (3 more RHS calls).

        Call it before ``rescale``: it reads the step's end state.
        """
        ks, h, t_old, y_old = self.k, self.h, self.t_old, self.y_old
        for s, (c, a) in enumerate(_DOP_EXTRA, _N_STAGES + 1):
            d = _combine(a, ks)
            for k, f in zip(ks, self.rhs(t_old + c * h, tuple(yi + di * h for yi, di in zip(y_old, d)))):
                k[s] = f
        self.rhs_calls += len(_DOP_EXTRA)
        high = [_combine(d, ks) for d in _DOP_D]
        polys = []
        for i, k in enumerate(ks):
            dy = self.y[i] - y_old[i]
            f_old, f_new = k[0], k[_N_STAGES]
            d3, d4, d5, d6 = (h * sums[i] for sums in high)
            # scipy's loop first adds the top coefficient to a zero accumulator,
            # which turns a -0.0 part into 0.0
            polys.append((dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old), d3, d4, d5, 0j + d6))

        def interp(t: float) -> tuple:
            # scipy's Horner scheme in x and 1 - x, alternating from the top coefficient
            x = (t - t_old) / h
            u = 1.0 - x
            return tuple(
                ((((((p6 * x + p5) * u + p4) * x + p3) * u + p2) * x + p1) * u + p0) * x + y0
                for (p0, p1, p2, p3, p4, p5, p6), y0 in zip(polys, y_old)
            )

        return interp

    def rescale(self, components: slice, e: int, atol: float) -> None:
        """Take these components and their FSAL derivative by 2**-e, give them ``atol``; the step size is kept."""
        y, f = list(self.y), list(self.f)
        for z in (y, f):
            z[components] = [complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in z[components]]
        self.y, self.f = tuple(y), tuple(f)
        self.atols[components] = [atol] * len(self.atols[components])
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
    """The RHS (t, U) -> -i H U of the direct route on U's columns, (a, g) from ``_traceless_kernel``."""
    kernel = _traceless_kernel(drive, params)

    def rhs(t: float, u: tuple) -> tuple:
        a, g, _, _ = kernel(t)
        u0, u1, u2, u3 = u
        return -1j * (a * u0 + g * u1), -1j * (g * u0 - a * u1), -1j * (a * u2 + g * u3), -1j * (g * u2 - a * u3)

    return rhs


def pow2_scaled(z: tuple) -> tuple:
    """z scaled by a power of two to a largest part in [0.5, 1), and the exponent."""
    _, shift = math.frexp(max(abs(x) for zi in z for x in (zi.real, zi.imag)))
    return tuple(complex(math.ldexp(zi.real, -shift), math.ldexp(zi.imag, -shift)) for zi in z), shift


def propagate_direct(
    params: SystemParams,
    drive: Drive,
    initial,
    config: IntegratorConfig = IntegratorConfig(),
    n_output: int = 512,
    record_internal: bool = False,
) -> TrajectoryRecord:
    """``propagate_direct`` as it stepped before its step was generated: the oracle.

    The loop-based ``_Dop853`` above steps U from the identity, its RHS
    from ``_traceless_kernel``, and the interpolant is built on each step
    that holds a grid time, one row at a time. A column of U whose squared
    norm leaves ``WINDOW`` is taken by the power of two that puts its
    largest part in [0.5, 1), with its FSAL derivative, and steps on with
    ``abs_tol`` in its own units; the column keeps the exponent. Each row is
    then U c0 for c0 scaled by a power of two, each column taken by 2^(its
    exponent - top), in Python complex scalars, scaled again by a power of
    two; the rows are finished by the package's ``_finalize``.
    ``meta["solver"]`` holds the run's counts (no ``reused``).
    """
    initial = StateVector.coerce(initial)
    if n_output < 2:
        raise ValueError("n_output must be >= 2")
    T = drive.duration_T
    grid = _samples(T, n_output).tolist()
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"duration_T = {T:.3g}: duration_T is too small for distinct row times")
    # the rows as columns: time, working-frame U, each column's exponent
    times, rows, exponents = [0.0], [IDENTITY], [(0, 0)]
    exps = [0, 0]
    started = time.perf_counter()
    stepper = _Dop853(kernel_rhs(drive, params), IDENTITY, T, config)
    gi = 1
    try:
        while stepper.t < T:
            stepper.step()
            t, y = stepper.t, stepper.y
            if not all(cmath.isfinite(z) for z in y):
                raise NonFiniteError("amplitudes became non-finite during integration")
            if gi < len(grid) and grid[gi] <= t:
                interp = stepper.dense()
                while gi < len(grid) and grid[gi] <= t:
                    times.append(grid[gi])
                    rows.append(interp(grid[gi]))
                    exponents.append(tuple(exps))
                    gi += 1
            if record_internal and times[-1] < t < T:
                times.append(t)
                rows.append(y)
                exponents.append(tuple(exps))
            if stepper.accepted > _STEP_BUDGET and T - t > _STEP_BUDGET_REMAINING * stepper.h:
                raise StepBudgetError(_budget_message(stepper.accepted, T, t, stepper.h))
            for c in (0, 1):  # each column of U on its own
                column = slice(2 * c, 2 * c + 2)
                if not WINDOW[0] <= _norm2(stepper.y[column]) <= WINDOW[1]:
                    top = max(abs(x) for z in stepper.y[column] for x in (z.real, z.imag))
                    if top == 0.0:
                        raise NonFiniteError("amplitudes underflowed float64 during integration")
                    e = math.frexp(top)[1]
                    exps[c] += e
                    stepper.rescale(column, e, column_tol(config.abs_tol, exps[c]))
        stepped = time.perf_counter()
        c0, shift = pow2_scaled((complex(initial.c1), complex(initial.c2)))
        raw, log_internal = [], []
        for t, (u0, u1, u2, u3), row_exps in zip(times, rows, exponents):
            # column j enters by 2^(its exponent - top), top the larger exponent of the columns c0 takes
            top = max(e for e, c in zip(row_exps, c0) if c != 0)
            c1, c2 = (complex(math.ldexp(c.real, e - top), math.ldexp(c.imag, e - top)) for e, c in zip(row_exps, c0))
            state, row_shift = pow2_scaled((u0 * c1 + u2 * c2, u1 * c1 + u3 * c2))
            if state == (0j, 0j):
                raise NonFiniteError(f"amplitudes underflowed float64: the state is 0 at t = {t:.6g}")
            raw.append(state)
            log_internal.append(2.0 * math.log(2.0) * (top + shift + row_shift))
        times = np.array(times)
        states, norms, logs = _finalize(np.array(raw), np.array(log_internal), _trace_factor(params, drive, times),
                                        _decay(params, times))
    except OverflowError as exc:
        # abs() of a complex whose modulus overflows float64 raises instead of returning inf
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
    return TrajectoryRecord(times, states, norms, logs, meta)


def stage_values(stepper: _Dop853) -> list:
    """K_0..K_12 of the last step, the components of each stage together, as the generated run keeps them."""
    return [z for stage in zip(*(k[: _N_STAGES + 1] for k in stepper.k)) for z in stage]
