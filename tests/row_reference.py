"""The per-value row code, kept as the oracle of the array path.

``finalize`` is the recorder's scalar loop: it restores the trace phase and
the scale factors one row at a time, in Python floats and complex numbers,
and renormalizes the stored state whenever its true squared norm leaves the
recording window. ``trajectory_to_csv`` and ``trajectory_to_json`` are the
writers that format one value at a time. The package does both on whole
columns instead (``propagation._finalize``, ``serialize``); the tests check
that its rows lie within a few ulps of these, with the same renormalizations
but within rounding of a window edge, and that its files are the same bytes.
``dop853_interp`` is scipy's loop for the DOP853 interpolant, which the
reference stepper's ``dense()`` (``dop853_reference``) and the package's
array pass ``propagation._dense_rows`` write as one Horner chain.
``omega_integral`` is the closed form of the trace phase's integral at one
time, in Python floats, the oracle of ``loops._omega_integral``.
"""

import cmath
import json
import math

import numpy as np

from dop853_reference import _combine
from epdyn.loops import _contour
from epdyn.propagation import _DOP_D, _LOG_RECORD_HI, _LOG_RECORD_LO, _N_STAGES
from epdyn.serialize import TRAJECTORY_COLUMNS, _meta_dict, fmt


def omega_integral(drive, t: float) -> float:
    """int_0^t omega(t') dt' along a loop or static drive (the contour of sign 0, cx * t) at one time."""
    c = _contour(drive)
    if not c.sign:
        return c.cx * t
    rate = c.sign * 2.0 * math.pi / c.T
    return c.cx * t + c.ax * ((math.sin(c.th0 + rate * t) - math.sin(c.th0)) / rate)


def finalize(params, drive, times, raw_states, log_internal):
    """(states, norms_sq, log_scale) of working-frame rows, one row at a time.

    Row k holds the working-frame bare state ``raw_states[k]`` (true state =
    state * exp(-i trace phase) * exp(log scale / 2)) at ``times[k]``.
    """
    gbar = 0.5 * (params.gamma1 + params.gamma2)
    m = len(times)
    states = np.empty((m, 2), dtype=complex)
    norms = np.empty(m)
    logs = np.empty(m)
    offset = 0.0
    rows = zip(np.asarray(times).tolist(), np.asarray(raw_states).tolist(), np.asarray(log_internal).tolist())
    for k, (t, raw_state, log_in) in enumerate(rows):
        phase = -(0.5 * ((params.e1 + params.e2) * t + omega_integral(drive, t)))
        log_total = -2.0 * gbar * t + log_in
        raw_n2 = abs(raw_state[0]) ** 2 + abs(raw_state[1]) ** 2
        log_true = math.log(raw_n2) + log_total if raw_n2 > 0 else -math.inf
        if not (_LOG_RECORD_LO < log_true - offset < _LOG_RECORD_HI):
            # renormalize the stored state, push the factor into log_scale
            offset = log_true
        factor = cmath.exp(1j * phase) * math.exp(0.5 * (log_total - offset))
        states[k] = (raw_state[0] * factor, raw_state[1] * factor)
        norms[k] = abs(states[k, 0]) ** 2 + abs(states[k, 1]) ** 2
        logs[k] = offset
    return states, norms, logs


def _trajectory_rows(traj):
    # |c1|^2 as re^2 + im^2, the term a record's norms_sq sums
    c1 = traj.states[:, 0]
    w1 = (c1.real * c1.real + c1.imag * c1.imag) / traj.norms_sq
    for k in range(len(traj.times)):
        c1, c2 = traj.states[k]
        yield (
            traj.times[k],
            c1.real,
            c1.imag,
            c2.real,
            c2.imag,
            traj.norms_sq[k],
            traj.log_scale[k],
            w1[k],
            1.0 - w1[k],
        )


def trajectory_to_csv(traj) -> str:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for row in _trajectory_rows(traj):
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj) -> str:
    doc = {
        "meta": _meta_dict(traj),
        "columns": list(TRAJECTORY_COLUMNS),
        "rows": [[float(fmt(x)) for x in row] for row in _trajectory_rows(traj)],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def dop853_interp(stepper):
    """The interpolant of the stepper's last step as scipy's loop evaluates it.

    Call it after ``stepper.dense()``, which fills the three extra stages.
    The coefficients run from the top one down, and the accumulator is
    multiplied by x and 1 - x in turn.
    """
    ks, h, t_old, y_old = stepper.k, stepper.h, stepper.t_old, stepper.y_old
    high = [_combine(d, ks) for d in _DOP_D]
    polys = []
    for i, k in enumerate(ks):
        dy = stepper.y[i] - y_old[i]
        f_old, f_new = k[0], k[_N_STAGES]
        coeffs = [dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)]
        coeffs += [h * pair[i] for pair in high]
        polys.append(coeffs[::-1])

    def interp(t: float) -> tuple:
        x = (t - t_old) / h
        out = []
        for coeffs, y in zip(polys, y_old):
            acc = 0j
            for i, c in enumerate(coeffs):
                acc = (acc + c) * (x if i % 2 == 0 else 1.0 - x)
            out.append(acc + y)
        return tuple(out)

    return interp
