"""Time propagation along drive contours, in bare and adiabatic frames.

Both propagators integrate i dc/dt = H(t) c for the driven two-level model.
The mean (trace) part of H is removed analytically before integration: the
trace's imaginary part is constant in time, so the common phase and mean
decay factor exp(-i int tr(H)/2 dt) is known in closed form and the steps
only have to resolve the traceless dynamics, whose rates are set by the
small eigenvalue splitting. This keeps norm drift at machine precision for
Hermitian parameters and postpones overflow for strongly decaying runs.

``propagate_direct`` integrates the loop's fundamental matrix U in the bare
basis with DOP853, an adaptive 8th-order Runge-Kutta method, on U's four
entries as Python complex scalars, from the identity at t = 0; every row of
the record is then U(t_k) c0. It uses the published tableau (tested equal
to scipy's) and the error norm and step controller of
``scipy.integrate.DOP853``, which the tests keep as its oracle. The whole
integration is one function, ``run``, compiled once per process, by the
first direct run, from the tableau (``_dop853_source``): the stepping loop,
the controller and the row bookkeeping on local variables, with the drive
inlined into every stage (the operations of ``model._traceless`` at
``field_at``, on the drive's ``loops._contour`` and the model's constants
read once per run), so every stage has those bits without a call or an
object per step. The run keeps the stages of each step that holds an output
time; after it, one array pass (``_dense_rows``) builds those steps'
dense-output interpolants and evaluates U at every output row after the
first, in ``model``'s (re, im) pair arithmetic, with the extra stages'
(a, g) from ``model._traceless``. A rescale changes only a column's
power-of-two exponent (``_rescale_lines``), so ``abs_tol`` bounds U's
entries throughout and a column far below the other keeps its digits; a
step budget (``_STEP_BUDGET``) keeps any input from running on without
end. U does not depend on the initial state, so the route keeps U's rows
for the last two loops it ran (``_DIRECT_RUNS``) and the next state on a
loop only multiplies.

``propagate_adiabatic`` expands the state in the instantaneous eigenbasis:
the c-normalized eigenvectors (cos th, sin th) and (-sin th, cos th),
tan 2th = g/a, which turn at the complex rate

    th' = (a g' - g a') / (2 (a^2 + g^2)),

with a' and g' exact from the loop velocity. Its coefficients carry the
branch energies on the diagonal and the couplings -th', +th' off it. It
takes no stepper of its own: ``traversal.eigen_rows`` multiplies uniform
closed-form 4th-order Magnus steps in that eigenframe, doubling their count
until the full-loop map settles, and gives U from t = 0 to every row: a
prefix product, rotated once into the bare frame. The route keeps those
maps for the last two loops it ran (``_LOOP_ROWS``), since none of them
depends on the state, and every row is U(t_k) c0, as on the direct route. The branch
is continued by the root +/-sqrt(a^2 + g^2) nearer the one before, sample
by sample, which is where the state exchange around an exceptional point
shows up. The two routes
share no stepper code, so their agreement is a genuine cross-check. The
tests keep the two-frame finite difference of the couplings as an
independent reference (``tests/coupling_reference.py``).

``track_branches`` and ``accumulated_phase`` take the same frames at
uniform samples (``traversal.branch_frames``).

Both routes bring c0 into their rows scaled by a power of two
(``_pow2_scaled``), keep the state-independent part of their last two
loops as one type (``_Loop``) in one kind of cache (``_Recent``, keyed on
the exact bits of every input that part reads), the trace factor and the
decay of their rows included (``_trace_factor``, ``_decay``), and finish
their records in one place
(``_record``), so a record has one set of fields and ``meta`` one schema.

Recorded amplitudes are kept inside the representable range: if the true
squared norm leaves [1e-150, 1e+150] the stored state is renormalized and
the log of the discarded factor accumulates in ``log_scale`` (true norm^2 =
``norms_sq * exp(log_scale)``). All normalized projections are unaffected.
Both routes only collect the working-frame rows as columns (time, state,
log of the rescalings); ``_finalize`` then restores the trace phase and the
scale factors and scans for renormalizations (``_offsets``) in plain numpy
array arithmetic, within a few ulps of the old row-by-row loop in Python
scalars (``tests/row_reference.py`` keeps that loop as the oracle, and
``tests/dop853_reference.py`` the loop-based DOP853 with its scalar dense
output). Both routes time two phases into ``meta["phase_s"]``: ``stepping``
(the stepping loop, or the step products; a cache lookup on a hit) and
``rows`` (the state's rows after it).
"""

from __future__ import annotations

import bisect
import cmath
import collections
import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import NonFiniteError, StepBudgetError, StepSizeUnderflowError
from . import traversal
from .loops import LoopSpec, StaticDrive, _contour, _fields_at, _omega_integral, _samples
# build_hamiltonian is not called here; perfbench's tracer wraps propagation.build_hamiltonian
from .model import (
    SystemParams, _complex, _fmul, _mul, _plus, _pow2_scaled, _require_finite, _traceless, build_hamiltonian,
)

__all__ = [
    "StateVector",
    "IntegratorConfig",
    "TrajectoryRecord",
    "AdiabaticFrame",
    "propagate_direct",
    "propagate_adiabatic",
    "track_branches",
    "accumulated_phase",
]

Drive = Union[LoopSpec, StaticDrive]

# stored squared norm is kept inside this window (log bounds)
_LOG_RECORD_LO = math.log(1e-150)
_LOG_RECORD_HI = math.log(1e150)
# the direct run's step budget: past _STEP_BUDGET accepted steps it stops once (T - t) / h
# predicts more than _STEP_BUDGET_REMAINING to come, the step cap of the maps and the adiabatic route
_STEP_BUDGET = 10_000
_STEP_BUDGET_REMAINING = traversal._STEP_CAP


def _budget_message(steps: int, T: float, t: float, h: float) -> str:
    return (
        f"{steps} steps taken and (T - t)/h = {(T - t) / h:.3g} more predicted at t = {t:.6g} "
        f"(step {h:.3g}, T = {T:.6g}): over the budget of {_STEP_BUDGET} steps and "
        f"{_STEP_BUDGET_REMAINING} predicted"
    )


@dataclass(frozen=True)
class StateVector:
    """Two complex amplitudes on the bare basis; not both zero."""

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        _require_finite(self, "c1", "c2")
        if self.c1 == 0 and self.c2 == 0:
            raise ValueError("state vector must not be identically zero")

    @classmethod
    def coerce(cls, value) -> "StateVector":
        if isinstance(value, StateVector):
            return value
        c1, c2 = value
        return cls(complex(c1), complex(c2))

    @classmethod
    def basis(cls, index: int) -> "StateVector":
        if index not in (1, 2):
            raise ValueError("basis index must be 1 or 2")
        return cls(1.0 + 0j, 0j) if index == 1 else cls(0j, 1.0 + 0j)

    @classmethod
    def equal_superposition(cls, relative_phase: float = 0.0) -> "StateVector":
        amp = 1.0 / math.sqrt(2.0)
        return cls(amp, amp * cmath.exp(1j * relative_phase))

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive step control settings shared by both propagators."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 10.0
    initial_step: float = 1e-2

    def __post_init__(self) -> None:
        # max_step = +inf means no cap
        _require_finite(self, "rel_tol", "abs_tol", "initial_step")
        for name in ("rel_tol", "abs_tol", "max_step", "initial_step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.rel_tol < 100.0 * np.finfo(float).eps:
            raise ValueError("rel_tol must be >= 100 * machine epsilon")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time series of the propagated state, the same fields for both routes.

    ``states`` holds the stored (possibly renormalized) amplitudes; the
    physical squared norm at row k is ``norms_sq[k] * exp(log_scale[k])``.
    ``norms_sq`` sums the two ``populations`` |c1|^2 and |c2|^2, each
    re^2 + im^2 (``_abs2``), and ``w1`` divides the first by it. The coefficients on
    the tracked instantaneous eigenvectors are ``c_product(v, states[k])``
    for each ``v`` in ``frame.vectors[k]``, and slot 0's label
    ``frame.labels[k, 0]``, where ``frame`` is
    ``track_branches(params, drive, len(times) - 1)``.
    """

    times: np.ndarray
    states: np.ndarray
    norms_sq: np.ndarray
    log_scale: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = np.asarray(self.times)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("times must be a 1-D array with at least two entries")
        # np.diff's subtraction without its wrapper: a NaN step, inf - inf included, is not refused
        if t[0] != 0.0 or (t[1:] - t[:-1] <= 0).any():
            raise ValueError("times must increase strictly from 0")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def true_norm_sq(self, k: int = -1) -> float:
        return float(self.norms_sq[k] * math.exp(self.log_scale[k]))

    @property
    def populations(self) -> np.ndarray:
        """(|c1|^2, |c2|^2) per row (m, 2), each re^2 + im^2: the two terms ``norms_sq`` sums."""
        return _abs2(self.states)

    @property
    def w1(self) -> np.ndarray:
        """W1 = |c1|^2 / norms_sq per row (W2 = 1 - W1), in [0, 1] on a route's rows: ``norms_sq`` sums |c1|^2."""
        return self.populations[:, 0] / self.norms_sq


@dataclass(frozen=True)
class AdiabaticFrame:
    """Eigenframes sampled along a loop with branch continuity applied.

    Slot 0 starts on the instantaneous '+' branch, slot 1 on '-'; each slot
    then follows its eigenvalue by the nearer root between adjacent samples
    (``track_branches``). It holds ``traversal.branch_frames``' root
    ``lam``, angle ``th`` and t = 0 gauge ``signs`` at ``times``, with
    tr(H)/2, and builds ``energies``, ``vectors`` and ``labels`` on first
    read; ``swapped`` reads ``lam`` at the ends only.
    """

    times: np.ndarray
    lam: np.ndarray  # (m,) complex
    th: np.ndarray  # (m,) complex
    signs: np.ndarray  # (2,) of +/-1.0, slot 0 and slot 1
    half_trace: np.ndarray  # (m,) complex

    @functools.cached_property
    def energies(self) -> np.ndarray:
        """(m, 2) complex, per tracked slot: tr(H)/2 + lam and tr(H)/2 - lam."""
        return np.stack([self.half_trace + self.lam, self.half_trace - self.lam], axis=1)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """(m, 2, 2) complex, [time, slot, component]: signs[0] (cos th, sin th) and signs[1] (-sin th, cos th)."""
        c, s = np.cos(self.th), np.sin(self.th)
        return np.stack([np.stack([c, s], axis=1) * self.signs[0], np.stack([-s, c], axis=1) * self.signs[1]], axis=1)

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """(m, 2) of '+'/'-': ``labels[k, s]`` is the instantaneous branch slot s occupies at ``times[k]``."""
        plus = _plus(self.lam)
        return np.stack([np.where(plus, "+", "-"), np.where(plus, "-", "+")], axis=1)

    @property
    def swapped(self) -> bool:
        """True when one traversal exchanged the branches (EP encircled): slot 0's label changed."""
        return bool(_plus(self.lam[-1]) != _plus(self.lam[0]))


# ---------------------------------------------------------------------------
# recorded rows, shared by both propagators
# ---------------------------------------------------------------------------


def _trace_factor(params: SystemParams, drive: Drive, times: np.ndarray) -> np.ndarray:
    """e^(-i trace phase) at ``times`` as cos + i sin, read-only: the phase ``_finalize`` puts back on each row.

    The trace phase, Re int_0^t tr H / 2 dt', is the removed common phase,
    in closed form. It reads the model, the drive and the row times only,
    so each route's kept entry makes it once for every state on the loop.
    """
    phase = -(0.5 * ((params.e1 + params.e2) * times + _omega_integral(drive, times)))
    return _read_only(_complex(np.cos(phase), np.sin(phase)))[0]


def _decay(params: SystemParams, times: np.ndarray) -> np.ndarray:
    """-2 gbar t at ``times``, read-only: the decay part of a row's log true norm^2, which ``_finalize`` adds.

    Like the trace factor it reads the model and the row times only, so
    each kept entry makes it once for every state on the loop.
    """
    return _read_only(-2.0 * (0.5 * (params.gamma1 + params.gamma2)) * times)[0]


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each component as re^2 + im^2: a record's ``populations``, the terms of its ``norms_sq``."""
    return z.real * z.real + z.imag * z.imag


def _norms_sq(z: np.ndarray) -> np.ndarray:
    """|z[k, 0]|^2 + |z[k, 1]|^2 per row, the sum of ``_abs2``; a square past float64 is inf.

    z is contiguous, so its float view squares every part in one pass: row k
    is (re0 re0 + im0 im0) + (re1 re1 + im1 im1), the terms ``_abs2`` gives.
    """
    squares = z.view(float) * z.view(float)
    return (squares[:, 0] + squares[:, 1]) + (squares[:, 2] + squares[:, 3])


def _offsets(log_true: np.ndarray) -> np.ndarray:
    """Each row's log offset: the log true norm^2 of the last row that left the window relative to the one before.

    ``log_true`` is each row's log true norm^2. The scan costs one array
    pass per renormalization; the first compares ``log_true`` itself with
    the window, as offset 0 leaves it.
    """
    n = len(log_true)
    offsets = np.zeros(n)
    start, offset, shift = 0, 0.0, log_true
    while True:
        inside = (_LOG_RECORD_LO < shift) & (shift < _LOG_RECORD_HI)
        stop = n if inside.all() else start + int(inside.argmin())  # the first row that leaves
        offsets[start:stop] = offset
        if stop == n:
            return offsets
        # renormalize the stored state, push the factor into log_scale
        offset = offsets[stop] = log_true[stop]
        start = stop + 1
        shift = log_true[start:] - offset


def _finalize(raw: np.ndarray, log_internal: np.ndarray, trace: np.ndarray, decay: np.ndarray) -> tuple:
    """(states, norms_sq, log_scale) of working-frame rows, on whole columns.

    Row k holds the working-frame bare state ``raw[k]``: the true state is
    raw * exp(-i trace phase) * exp((log_internal + decay) / 2), where
    ``trace`` is exp(-i trace phase) at the row times (``_trace_factor``)
    and ``decay`` is -2 gbar t there (``_decay``). The stored state takes
    that factor relative to an offset, and the offset moves to the row's
    log true norm^2 (numpy's ``log`` of its squared norm plus log_internal +
    decay; -inf for a zero row) whenever the row's would leave [1e-150,
    1e+150] relative to it (``_offsets``).

    Plain numpy arithmetic: squared norms from ``_abs2``, numpy's
    ``log`` and ``exp``, and one complex product of each row by its scale
    times the trace factor. The values lie within a few ulps of the
    row-by-row loop in Python scalars (``tests/row_reference.py``), with the
    same renormalizations but for rows within rounding of a window edge
    (``notes/decisions.md``, "A record's bits are the array code's"). A
    squared norm or a scale that overflows raises OverflowError, which each
    route reports as its own ``NonFiniteError``.
    """
    log_total = decay + log_internal
    with np.errstate(over="ignore", divide="ignore"):
        raw_n2 = _norms_sq(raw)
        if np.isinf(raw_n2).any():
            raise OverflowError("squared norm overflowed float64")
        offsets = _offsets(np.log(raw_n2) + log_total)
        scale = np.exp(0.5 * (log_total - offsets))
    if np.isinf(scale).any():
        raise OverflowError("scale overflowed float64")
    states = raw * (scale * trace)[:, None]
    return states, _norms_sq(states), offsets


def _record(method: str, params: SystemParams, drive: Drive, config: IntegratorConfig, n_output: int, kept: _Loop,
            reused: bool, clock: tuple, raw: np.ndarray, exponent) -> TrajectoryRecord:
    """A route's record of its working-frame rows ``raw`` on the ``_Loop`` ``kept``, each scaled by 2^-exponent.

    The record takes its own copy of the kept row times, and ``_finalize``
    the kept trace factor and decay. ``clock`` is the (start, end) of the
    route's ``stepping`` phase; its ``rows`` phase ends here. Both routes
    finish here, so ``meta`` has one schema. A squared norm or scale that
    overflows raises OverflowError, which each route reports as its own
    ``NonFiniteError``.
    """
    started, stepped = clock
    states, norms, logs = _finalize(raw, 2.0 * math.log(2.0) * exponent, kept.trace, kept.decay)
    meta = {"method": method, "params": params, "drive": drive, "config": config, "n_output": n_output,
            "solver": {**kept.solver, "reused": reused},
            "phase_s": {"stepping": stepped - started, "rows": time.perf_counter() - stepped}}
    return TrajectoryRecord(kept.times.copy(), states, norms, logs, meta)


def _key(params: SystemParams, drive: Drive, *settings) -> tuple:
    """A cache key: the exact drive type and ``_contour`` fields, model constants and ``settings`` of a loop's rows.

    Exact as type plus bits: the values compare ints exactly (past 2^53
    too), the types tell 1 from 1.0, and the signs of the zeros -0.0 from
    0.0, the one pair of floats that == leaves equal.
    """
    d12 = complex(params.d12)
    values = (*_contour(drive), params.e1, params.e2, params.gamma1, params.gamma2, d12.real, d12.imag, *settings)
    return type(drive), values, tuple(map(type, values)), tuple(math.copysign(1.0, v) for v in values if v == 0)


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only, so nothing a caller gets can change a kept entry."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Loop(NamedTuple):
    """What a route keeps of a loop (``_Recent``), or a map's one interval: none of it reads the initial state.

    Row k's U, from t = 0 to ``times[k]``, has the column ``maps[k, :, j]`` 2^exponents[k, j].
    """

    solver: dict  # the counts of U's run (direct) or of the settled map (adiabatic, a map's report)
    times: np.ndarray  # the row times, ``loops._samples``; each record takes a copy
    maps: np.ndarray  # (N + 1, 2, 2) U in the working frame at the row times; read-only where kept
    exponents: np.ndarray  # (N + 1, 2) integer exponents of U's columns
    trace: np.ndarray  # the rows' ``_trace_factor``
    decay: np.ndarray  # the rows' ``_decay``


class _Recent:
    """The results of the last ``size`` keys, least recently used first.

    A route keeps here the part of its runs that does not read the initial
    state, so the next state on a loop takes it. ``get(key, compute)``
    returns (the value, whether it was kept): on a miss it calls
    ``compute()`` and keeps the result; an error propagates and nothing is
    kept, so the next call raises it again. The lock guards each lookup and
    insertion, not the computation between them: two threads that miss on
    one key both compute it, and the later insertion stores the same bits.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.entries: collections.OrderedDict = collections.OrderedDict()
        self.lock = threading.Lock()

    def get(self, key, compute) -> tuple:
        with self.lock:
            value = self.entries.get(key)
            if value is not None:
                self.entries.move_to_end(key)
        if value is not None:
            return value, True
        value = compute()
        with self.lock:
            self.entries[key] = value
            if len(self.entries) > self.size:
                self.entries.popitem(last=False)
        return value, False


# ---------------------------------------------------------------------------
# direct propagation (bare basis, DOP853)
# ---------------------------------------------------------------------------


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10),
# with the decimal literals of Hairer's dop853.f, kept as its nonzero entries
# ((j, coefficient), ...) in ascending j. _DOP_STAGES holds (c_s, a_s) for the
# stages 1..11; the FSAL derivative K[12] is taken at t + h from the 8th-order
# solution (weights _DOP_B), and _DOP_EXTRA holds the stages 13..15 that only
# the dense output needs. _DOP_E5 and _DOP_E3 weight the 5th- and 3rd-order
# error estimates; E3 is B minus the 3rd-order weights _BHH.
_N_STAGES = 12
_N_STAGES_EXTENDED = 16
_DOP_STAGES = (
    (0.526001519587677318785587544488e-01, (
        (0, 5.26001519587677318785587544488e-2),
    )),
    (0.789002279381515978178381316732e-01, (
        (0, 1.97250569845378994544595329183e-2),
        (1, 5.91751709536136983633785987549e-2),
    )),
    (0.118350341907227396726757197510, (
        (0, 2.95875854768068491816892993775e-2),
        (2, 8.87627564304205475450678981324e-2),
    )),
    (0.281649658092772603273242802490, (
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    )),
    (0.333333333333333333333333333333, (
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    )),
    (0.25, (
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    )),
    (0.307692307692307692307692307692, (
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    )),
    (0.651282051282051282051282051282, (
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1),
    )),
    (0.6, (
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    )),
    (0.857142857142857142857142857142, (
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022),
    )),
    (1.0, (
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    )),
)
_DOP_EXTRA = (
    (0.1, (
        (0, 5.61675022830479523392909219681e-2),
        (6, 2.53500210216624811088794765333e-1),
        (7, -2.46239037470802489917441475441e-1),
        (8, -1.24191423263816360469010140626e-1),
        (9, 1.5329179827876569731206322685e-1),
        (10, 8.20105229563468988491666602057e-3),
        (11, 7.56789766054569976138603589584e-3),
        (12, -8.298e-3),
    )),
    (0.2, (
        (0, 3.18346481635021405060768473261e-2),
        (5, 2.83009096723667755288322961402e-2),
        (6, 5.35419883074385676223797384372e-2),
        (7, -5.49237485713909884646569340306e-2),
        (10, -1.08347328697249322858509316994e-4),
        (11, 3.82571090835658412954920192323e-4),
        (12, -3.40465008687404560802977114492e-4),
        (13, 1.41312443674632500278074618366e-1),
    )),
    (0.777777777777777777777777777778, (
        (0, -4.28896301583791923408573538692e-1),
        (5, -4.69762141536116384314449447206),
        (6, 7.68342119606259904184240953878),
        (7, 4.06898981839711007970213554331),
        (8, 3.56727187455281109270669543021e-1),
        (12, -1.39902416515901462129418009734e-3),
        (13, 2.9475147891527723389556272149),
        (14, -9.15095847217987001081870187138),
    )),
)
_DOP_B = (
    (0, 5.42937341165687622380535766363e-2),
    (5, 4.45031289275240888144113950566),
    (6, 1.89151789931450038304281599044),
    (7, -5.8012039600105847814672114227),
    (8, 3.1116436695781989440891606237e-1),
    (9, -1.52160949662516078556178806805e-1),
    (10, 2.01365400804030348374776537501e-1),
    (11, 4.47106157277725905176885569043e-2),
)
_DOP_E5 = (
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1),
)
_BHH = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_DOP_E3 = tuple((j, b - _BHH.get(j, 0.0)) for j, b in _DOP_B)
# the dense output's 4th..7th coefficients; the first three come from the step's ends
_DOP_D = (
    (
        (0, -0.84289382761090128651353491142e+1),
        (5, 0.56671495351937776962531783590),
        (6, -0.30689499459498916912797304727e+1),
        (7, 0.23846676565120698287728149680e+1),
        (8, 0.21170345824450282767155149946e+1),
        (9, -0.87139158377797299206789907490),
        (10, 0.22404374302607882758541771650e+1),
        (11, 0.63157877876946881815570249290),
        (12, -0.88990336451333310820698117400e-1),
        (13, 0.18148505520854727256656404962e+2),
        (14, -0.91946323924783554000451984436e+1),
        (15, -0.44360363875948939664310572000e+1),
    ),
    (
        (0, 0.10427508642579134603413151009e+2),
        (5, 0.24228349177525818288430175319e+3),
        (6, 0.16520045171727028198505394887e+3),
        (7, -0.37454675472269020279518312152e+3),
        (8, -0.22113666853125306036270938578e+2),
        (9, 0.77334326684722638389603898808e+1),
        (10, -0.30674084731089398182061213626e+2),
        (11, -0.93321305264302278729567221706e+1),
        (12, 0.15697238121770843886131091075e+2),
        (13, -0.31139403219565177677282850411e+2),
        (14, -0.93529243588444783865713862664e+1),
        (15, 0.35816841486394083752465898540e+2),
    ),
    (
        (0, 0.19985053242002433820987653617e+2),
        (5, -0.38703730874935176555105901742e+3),
        (6, -0.18917813819516756882830838328e+3),
        (7, 0.52780815920542364900561016686e+3),
        (8, -0.11573902539959630126141871134e+2),
        (9, 0.68812326946963000169666922661e+1),
        (10, -0.10006050966910838403183860980e+1),
        (11, 0.77771377980534432092869265740),
        (12, -0.27782057523535084065932004339e+1),
        (13, -0.60196695231264120758267380846e+2),
        (14, 0.84320405506677161018159903784e+2),
        (15, 0.11992291136182789328035130030e+2),
    ),
    (
        (0, -0.25693933462703749003312586129e+2),
        (5, -0.15418974869023643374053993627e+3),
        (6, -0.23152937917604549567536039109e+3),
        (7, 0.35763911791061412378285349910e+3),
        (8, 0.93405324183624310003907691704e+2),
        (9, -0.37458323136451633156875139351e+2),
        (10, 0.10409964950896230045147246184e+3),
        (11, 0.29840293426660503123344363579e+2),
        (12, -0.43533456590011143754432175058e+2),
        (13, 0.96324553959188282948394950600e+2),
        (14, -0.39177261675615439165231486172e+2),
        (15, -0.14972683625798562581422125276e+3),
    ),
)


def _drive_constants(drive: Drive, params: SystemParams) -> tuple:
    """(T, th0, sign, cx, ax, cy, ay, a_static, half_d12): the drive's ``loops._contour`` and the model's constants.

    The direct run takes turn = sign * 2.0 * pi once, and each RHS call
    clamps its time to [0, T] and takes th = th0 + turn * fmod(t / T, 1.0),
    a = a_static + 0.5 * (cx + ax cos th) and g = half_d12 * (cy + ay sin th):
    the operations of ``field_at`` and ``model._traceless`` in their order,
    so every (a, g) is their bits, a static drive's those of its field.
    """
    return (*_contour(drive), params._a_static, params._half_d12)


# the step controller of scipy.integrate.DOP853; the exponent is -1 / (error estimator order 7 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
#: U(0), the direct run's start: the fundamental matrix as its columns (U00, U10) and (U01, U11)
_IDENTITY = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
#: U(0) as the first of a loop's maps (1, 2, 2)
_EYE = _read_only(np.eye(2, dtype=complex)[None])[0]
_COMPONENTS = range(len(_IDENTITY))


def _sum(coeffs, k: str) -> str:
    """The expression sum_j c_j k<j> in the tableau's order, from a 0j accumulator, c_j as complex literals."""
    return " + ".join(["0j"] + [f"{complex(c)!r} * {k}{j}" for j, c in coeffs])


def _names(pattern: str) -> list:
    """The pattern's name for each component of U: ``_names("k{}_3")`` is k0_3, k1_3, k2_3, k3_3."""
    return [pattern.format(i) for i in _COMPONENTS]


def _rhs_lines(t: Optional[str], u: list, f: list) -> list:
    """Statements of one RHS call at time ``t``: (a, g) of the drive, then -i H on each column of U.

    ``u`` and ``f`` name the four components of U and of its derivative.
    With ``t`` None the call reuses the (a, g) of the statements before it.
    The time is clamped to [0, T], as RK stages can poke an ulp outside and
    the contour is periodic and smooth there; then t / T lies in [0, 1], and
    fmod(x, 1.0) is x below 1, so only x = 1.0 takes the call.
    """
    drive = [] if t is None else [
        f"ts = {t}",
        "if ts < 0.0:",
        "    ts = 0.0",
        "elif ts > T:",
        "    ts = T",
        "x = ts / T",
        "if x >= 1.0:",
        "    x = fmod(x, 1.0)",
        "th = th0 + turn * x",
        "a = a_static + 0.5 * (cx + ax * cos(th))",
        "g = half_d12 * (cy + ay * sin(th))",
    ]
    for c in (0, 2):  # the column (u[c], u[c + 1])
        drive += [f"{f[c]} = -1j * (a * {u[c]} + g * {u[c + 1]})", f"{f[c + 1]} = -1j * (g * {u[c]} - a * {u[c + 1]})"]
    return drive


def _squares(z: list) -> str:
    """The expression sum_i |z_i|^2 over the components, each |z|^2 as z.re z.re + z.im z.im, summed in order."""
    return " + ".join(f"({x}.real * {x}.real + {x}.imag * {x}.imag)" for x in z)


_DOP853_TEMPLATE = '''
def run(drive, t_bound, grid, rtol, atol, max_step, h_abs):
    T, th0, sign, cx, ax, cy, ay, a_static, half_d12 = drive
    turn = sign * 2.0 * pi
    {y} = {identity}
    t, atol0, atol1 = 0.0, atol, atol
    e0 = e1 = accepted = rejected = renormalizations = 0
    h_min, h_max, gi, n_grid = inf, 0.0, 1, len(grid)
{first}
    exponents, held, values = [(0, 0)], [], []
    while t < t_bound:
        {k_first} = {k_last}
        min_step = 10.0 * ulp(t)
        h = h_abs
        if h > max_step:
            h = max_step
        elif h < min_step:
            h = min_step
        retried = False
        while True:
            if h < min_step:
                raise StepSizeUnderflowError(
                    f"step size {{h:.3e}} below 10 ulp(t) = {{min_step:.3e}} at t = {{t:.6g}}"
                )
            t_new = t + h
            if t_bound < t_new:
                t_new = t_bound
            h = t_new - t
{stages}
{errors}
            # err5 = 0 gives err 0 (scipy's 0/0 where 0.01 err3 underflows too, as a huge tolerance allows)
            if err5 == 0.0:
                err = 0.0
            else:
                err = h * err5 / sqrt({n_components!r} * (err5 + 0.01 * err3))
            if err < 1.0:
                factor = {max_factor!r}
                if err > 0.0:
                    m = {safety!r} * err ** ({exponent!r})
                    if m < factor:
                        factor = m
                if retried and not factor < 1.0:
                    factor = 1.0
                h_abs = h * factor
                break
            factor = {safety!r} * err ** ({exponent!r})
            h *= factor if factor > {min_factor!r} else {min_factor!r}
            retried = True
            rejected += 1
        accepted += 1
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h
        if not ({finite}):
            raise NonFiniteError("amplitudes became non-finite during integration")
        if gi < n_grid and grid[gi] <= t_new:
            stop = bisect_right(grid, t_new, gi)
            held.append((t, h, stop - gi))
            values.append(({y}, {n}, {stage_values}))
            exponents += [(e0, e1)] * (stop - gi)
            gi = stop
        if accepted > {budget!r} and t_bound - t_new > {remaining!r} * h:
            raise StepBudgetError(budget_message(accepted, t_bound, t_new, h))
        t, {y} = t_new, {n}
{rescale}
    counts = {{"accepted": accepted, "rejected": rejected, "rhs_calls": 1 + {stages_per_step} * (accepted + rejected),
              "renormalizations": renormalizations, "min_step": h_min, "max_step": h_max}}
    return exponents, held, values, counts
'''


def _rescale_lines(c: int) -> list:
    """Statements that rescale U's column ``c`` by 2^-e where its squared norm leaves the window.

    e puts the column's largest part in [0.5, 1) and adds to its exponent; the FSAL derivative and the
    tolerance go with it, so every value after is the unrescaled run's times 2^-e, its steps too.
    """
    y, k = _names("y{}")[2 * c: 2 * c + 2], _names(f"k{{}}_{_N_STAGES}")[2 * c: 2 * c + 2]
    return [
        f"ss = {_squares(y)}",
        "if not 1e-100 <= ss <= 1e100:",
        f"    top = max({', '.join(f'abs({x}.{part})' for x in y for part in ('real', 'imag'))})",
        "    if top == 0.0:",
        '        raise NonFiniteError("amplitudes underflowed float64 during integration")',
        "    e = frexp(top)[1]",
        *(f"    {x} = complex(ldexp({x}.real, -e), ldexp({x}.imag, -e))" for x in y + k),
        f"    e{c} += e",
        f"    atol{c} = column_tol(atol, e{c})",
        "    renormalizations += 1",
    ]


def _column_tol(atol: float, exponent: int) -> float:
    """atol * 2^-exponent, the tolerance of a column kept at 2^exponent, within [smallest subnormal, inf].

    The floor makes an exactly zero component's error quotient 0, not 0/0; ``math.ldexp`` raises where inf is meant.
    """
    try:
        return max(math.ldexp(atol, -exponent), math.ulp(0.0))
    except OverflowError:
        return math.inf


def _dop853_source() -> str:
    """Python source of ``run``, the direct route's whole DOP853 integration, from the tableau.

    ``run(drive, t_bound, grid, rtol, atol, max_step, h_abs)`` takes
    ``_drive_constants`` and steps the fundamental matrix U, its four
    components (the columns (U00, U10) and (U01, U11)) from the identity at
    t = 0, recording at each time of ``grid`` (strictly increasing, 0 to
    t_bound). It returns ``(exponents, held, values, counts)``: each row's
    column exponents (U's column j is 2^e_j times the stepped one), each
    step that holds a grid time as ``_dense_rows`` takes it (its t_old, h
    and row count; its U_old, U_new and 13 stage quadruples), and
    ``meta["solver"]``'s counts before the dense stages. The stepping loop,
    the controller (scipy's, its error norm over the four components), the
    grid rows, the step budget and the rescales (``_rescale_lines``) run on
    local variables. The stages, the 8th-order solution and both error
    estimates are flat statements, one expression per sum in the tableau's
    order from a 0j accumulator, with the coefficients as complex literals,
    and each RHS call is written out with its drive inlined, one (a, g) for
    both columns (``_rhs_lines``). ``notes/decisions.md`` gives the argument
    that every value is the bits of the loop-based stepper that
    ``tests/dop853_reference.py`` keeps.
    """
    assert _DOP_STAGES[-1][0] == 1.0  # the FSAL derivative at t + h reuses the last stage's (a, g)
    y, n, k_last = _names("y{}"), _names("n{}"), _names(f"k{{}}_{_N_STAGES}")
    stages = []
    for s, (c, a) in enumerate(_DOP_STAGES, 1):
        stages += [f"u{i} = y{i} + ({_sum(a, f'k{i}_')}) * h" for i in _COMPONENTS]
        stages += _rhs_lines(f"t + ({c!r}) * h", _names("u{}"), _names(f"k{{}}_{s}"))
    stages += [f"n{i} = y{i} + h * ({_sum(_DOP_B, f'k{i}_')})" for i in _COMPONENTS]
    stages += _rhs_lines(None, n, k_last)
    errors = []
    for i in _COMPONENTS:  # scipy's scale atol + max(|y|, |y_new|) rtol, atol that of the component's column
        errors += [f"s{i} = abs(y{i})", f"m = abs(n{i})", f"if m > s{i}:", f"    s{i} = m",
                   f"s{i} = atol{i // 2} + s{i} * rtol"]
    for name, weights in (("err5", _DOP_E5), ("err3", _DOP_E3)):
        errors += [f"q{i} = ({_sum(weights, f'k{i}_')}) / s{i}" for i in _COMPONENTS]
        errors.append(f"{name} = {_squares(_names('q{}'))}")
    return _DOP853_TEMPLATE.format(
        y=", ".join(y),
        n=", ".join(n),
        k_first=", ".join(_names("k{}_0")),
        k_last=", ".join(k_last),
        identity=", ".join(map(repr, _IDENTITY)),
        first="\n".join("    " + line for line in _rhs_lines("0.0", y, k_last)),
        stages="\n".join("            " + line for line in stages),
        errors="\n".join("            " + line for line in errors),
        n_components=float(len(_IDENTITY)),
        finite=" and ".join(f"isfinite({x})" for x in n),
        stage_values=", ".join(name for s in range(_N_STAGES + 1) for name in _names(f"k{{}}_{s}")),
        rescale="\n".join("        " + line for c in (0, 1) for line in _rescale_lines(c)),
        stages_per_step=_N_STAGES,
        budget=_STEP_BUDGET,
        remaining=_STEP_BUDGET_REMAINING,
        safety=_SAFETY,
        min_factor=_MIN_FACTOR,
        max_factor=_MAX_FACTOR,
        exponent=_EXPONENT,
    )


@functools.cache
def _dop853_run():
    """``run``, compiled from ``_dop853_source()`` by the first direct run of a process."""
    namespace = {name: getattr(math, name) for name in ("cos", "sin", "fmod", "sqrt", "frexp", "ldexp", "ulp", "inf")}
    namespace.update(pi=math.pi, isfinite=cmath.isfinite, bisect_right=bisect.bisect_right, column_tol=_column_tol,
                     budget_message=_budget_message, NonFiniteError=NonFiniteError, StepBudgetError=StepBudgetError,
                     StepSizeUnderflowError=StepSizeUnderflowError)
    exec(compile(_dop853_source(), "<dop853>", "exec"), namespace)
    return namespace["run"]


def _stage_sums(rows, kr: np.ndarray, ki: np.ndarray) -> tuple:
    """sum_j c_j K_j for each coefficient row, as (re, im) arrays [row, component, step].

    ``kr`` and ``ki`` are the stages' parts [stage, component, step]. Each
    c_j K_j is ``model._fmul``'s bits, and each sum runs in the tableau's
    order from a 0j accumulator, as the scalar sums do. The rows share their
    stage indices j (as ``_DOP_D``'s do), so one array operation serves
    every row.
    """
    coeffs = np.array([[c for _, c in row] for row in rows]).T[:, :, None, None]  # [term, row, component, step]
    re = im = 0.0
    for c, (j, _) in zip(coeffs, rows[0]):
        cr, ci = _fmul(c, kr[j], ki[j])
        re, im = np.add(cr, re, out=cr), np.add(ci, im, out=ci)  # re + c_j K_j in cr's fresh array
    return re, im


def _dense_rows(params: SystemParams, drive: Drive, times: np.ndarray, held: list, values: list) -> np.ndarray:
    """The working-frame U at ``times`` as rows of its four components, the rows inside the steps that hold a grid time.

    ``held`` has each such step's (t_old, h, number of rows), in the order
    of the rows, and ``values`` its (y_old, y_new, K_0, ..., K_12) as
    complex quadruples. One array pass takes the three extra stages (their
    (a, g) from ``model._traceless`` at ``loops._fields_at``, whose bits are
    the run's), the ``_DOP_D`` sums, the seven coefficients of scipy's
    interpolant and every row's Horner chain in x and 1 - x. Every value is
    the bits the scalar ``dense()`` and its interpolant give
    (``tests/dop853_reference.py``): the arithmetic runs on real and
    imaginary parts apart, float * complex as ``model._fmul`` and complex
    products as ``model._mul``, each sum from a 0j accumulator. The extra
    stages lie inside their step, so their times need no clamp to [0, T].
    """
    t_old, h, count = (np.array(column) for column in zip(*held))
    # [(y_old, y_new, K_j), component, step]
    z = np.array(values, dtype=complex).reshape(len(held), -1, len(_IDENTITY)).transpose(1, 2, 0)
    # [stage, component, step]; the extra stages 13..15 are filled below
    kr, ki = np.empty((2, _N_STAGES_EXTENDED, len(_IDENTITY), len(held)))
    kr[: _N_STAGES + 1], ki[: _N_STAGES + 1] = z.real[2:], z.imag[2:]
    yr, yi, dr, di = z.real[0], z.imag[0], z.real[1] - z.real[0], z.imag[1] - z.imag[0]  # y_old, y_new - y_old
    with np.errstate(over="ignore", invalid="ignore"):  # Python complex arithmetic overflows silently
        for s, (c, coeffs) in enumerate(_DOP_EXTRA, _N_STAGES + 1):
            (sr,), (si,) = _stage_sums((coeffs,), kr, ki)
            ur, ui = _fmul(h, sr, si)
            ur, ui = yr + ur, yi + ui  # y_old + d * h
            a, g = ((q.real, q.imag) for q in _traceless(params, *_fields_at(drive, t_old + c * h)))
            for col in (0, 2):  # -1j * (a * v + g * w) and -1j * (g * v - a * w) on the column (v, w)
                v, w = (ur[col], ui[col]), (ur[col + 1], ui[col + 1])
                (avr, avi), (gwr, gwi), (gvr, gvi), (awr, awi) = _mul(*a, *v), _mul(*g, *w), _mul(*g, *v), _mul(*a, *w)
                kr[s, col], ki[s, col] = _mul(-0.0, -1.0, avr + gwr, avi + gwi)
                kr[s, col + 1], ki[s, col + 1] = _mul(-0.0, -1.0, gvr - awr, gvi - awi)
        # the first three coefficients: dy, h f_old - dy and 2 dy - h (f_new + f_old)
        (fr, fi), (tr, ti) = _fmul(h, kr[0], ki[0]), _fmul(2.0, dr, di)
        sr, si = _fmul(h, kr[_N_STAGES] + kr[0], ki[_N_STAGES] + ki[0])
        poly = [(dr, di), (fr - dr, fi - di), (tr - sr, ti - si)]
        poly += [_fmul(h, *d) for d in zip(*_stage_sums(_DOP_D, kr, ki))]
        step_of = np.repeat(np.arange(len(held)), count)
        x = (times - t_old[step_of]) / h[step_of]
        u = 1.0 - x
        # scipy's Horner scheme in x and 1 - x, alternating from the top
        # coefficient, which its loop first adds to a zero accumulator: a -0.0 part turns 0.0
        ar, ai = (0.0 + part[:, step_of] for part in poly[6])
        for (cr, ci), w in zip(poly[5::-1] + [(yr, yi)], (x, u, x, u, x, u, x)):
            ar, ai = _fmul(w, ar, ai)
            ar, ai = ar + cr[:, step_of], ai + ci[:, step_of]
    return _complex(ar.T, ai.T)


#: The ``_Loop`` of the last direct runs: one loop in both directions (see ``propagate_direct``)
_DIRECT_RUNS = _Recent(2)


def _direct_run(params: SystemParams, drive: Drive, config: IntegratorConfig, n_output: int) -> _Loop:
    """One run of U along the drive, recorded at the ``n_output + 1`` row times: a ``_Loop``.

    Its maps are the identity at t = 0, then the dense-output interpolant
    of the steps that hold a row time (``_dense_rows``), each column j
    scaled by 2^-exponents[k, j].
    """
    T = drive.duration_T
    times = _samples(T, n_output)
    if not (np.diff(times) > 0.0).all():
        raise ValueError(f"duration_T = {T:.3g}: duration_T is too small for distinct row times")
    h_abs = min(config.initial_step, config.max_step, 0.5 * T)
    exponents, held, values, solver = _dop853_run()(
        _drive_constants(drive, params), T, times.tolist(), config.rel_tol, config.abs_tol, config.max_step, h_abs,
    )
    # a dense row's components (U00, U10, U01, U11) are U's columns in turn
    rows = _dense_rows(params, drive, times[1:], held, values).reshape(-1, 2, 2).transpose(0, 2, 1)
    maps = np.concatenate([_EYE, rows])
    solver["rhs_calls"] += len(_DOP_EXTRA) * len(held)
    return _Loop(solver, *_read_only(times, maps, np.array(exponents)), _trace_factor(params, drive, times),
                 _decay(params, times))


def propagate_direct(
    params: SystemParams,
    drive: Drive,
    initial,
    config: IntegratorConfig = IntegratorConfig(),
    n_output: int = 512,
) -> TrajectoryRecord:
    """Integrate i dc/dt = H(t) c along the drive in the bare basis, as U(t) c0.

    One generated DOP853 run (``_dop853_source``) integrates the
    traceless-frame fundamental matrix U from the identity, and every row
    of the record is U(t_k) c0. Records at the ``n_output + 1`` times of
    ``loops._samples`` (>= 512 by default): t = 0, then the dense-output
    interpolant of the steps that hold a grid time, which the run keeps and
    ``_dense_rows`` evaluates in one array pass after it. A rescale changes
    only a column's power-of-two exponent (``_rescale_lines``), so each
    column keeps its digits however far the two drift apart. c0 and each
    row U(t_k) c0 are scaled by powers of two to a largest part in [0.5, 1)
    (``_pow2_scaled``), each column enters a row by 2^(its exponent - top),
    top the larger exponent of the columns c0 takes, and the exponents go
    into the row's log scale, so no finite state overflows or underflows on
    its way in or out.

    U does not depend on the initial state, so the route keeps the rows of
    the last two loops it ran, with their times and trace factor
    (``_DIRECT_RUNS``, keyed on the exact bits of the drive's type and
    ``_contour`` fields, the model's five constants, the four ``config``
    fields and ``n_output``): the next state on a loop only multiplies and
    finishes its rows, with the bits of a fresh run. An error is not kept;
    the next call raises it again.

    ``meta["solver"]`` describes the loop's run: it counts accepted and
    rejected steps, RHS calls (3 more for each step that holds a grid time)
    and renormalizations (of either column), holds the smallest and largest
    accepted step (``min_step``, ``max_step``; the last step, clipped to T,
    included), and whether U's rows came from the cache (``reused``).
    ``meta["phase_s"]`` holds the wall seconds of U's run and rows (a cache
    lookup on a hit; ``stepping``) and of the state's rows after it
    (``rows``).

    Raises
    ------
    ValueError
        If ``duration_T`` is so small that the row times are not distinct.
    StepSizeUnderflowError
        If the adaptive controller cannot meet the tolerances.
    StepBudgetError
        If the run exceeds the step budget (see ``_STEP_BUDGET``).
    NonFiniteError
        If U leaves the representable range despite rescaling (a column
        overflows, or vanishes, within a step), or a row of the state is
        exactly zero.
    """
    initial = StateVector.coerce(initial)
    if n_output < 2:
        raise ValueError("n_output must be >= 2")
    started = time.perf_counter()
    key = _key(params, drive, config.rel_tol, config.abs_tol, config.max_step, config.initial_step, n_output)
    try:
        kept, reused = _DIRECT_RUNS.get(key, lambda: _direct_run(params, drive, config, n_output))
        stepped = time.perf_counter()
        u, exponents = kept.maps, kept.exponents
        c0, shift = _pow2_scaled(initial.as_array())
        # the row is 2^top sum_j c0[j] 2^(exponents[:, j] - top) column j, top the
        # larger exponent of the columns c0 takes; each product as CPython's
        top = functools.reduce(np.maximum, (exponents[:, j] for j in (0, 1) if c0[j] != 0))
        gap = (exponents - top[:, None])[..., None]
        (ar, ai), (br, bi) = (
            _mul(u.real[:, :, j], u.imag[:, :, j], np.ldexp(c0.real[j], gap[:, j]), np.ldexp(c0.imag[j], gap[:, j]))
            for j in (0, 1)
        )
        raw, shifts = _pow2_scaled(_complex(ar + br, ai + bi))
        nonzero = np.logical_or(raw[:, 0], raw[:, 1])
        if not nonzero.all():
            raise NonFiniteError(
                f"amplitudes underflowed float64: the state is 0 at t = {kept.times[nonzero.argmin()]:.6g}")
        return _record("direct", params, drive, config, n_output, kept, reused, (started, stepped), raw,
                       top + shift + shifts)
    except OverflowError as exc:
        # abs() of a complex whose modulus overflows float64 (the run's error scale) raises instead of returning inf
        raise NonFiniteError("amplitudes overflowed float64") from exc


# ---------------------------------------------------------------------------
# adiabatic-frame propagation
# ---------------------------------------------------------------------------


#: The state-independent part of recent adiabatic runs: one loop in both directions (see ``_loop_rows``)
_LOOP_ROWS = _Recent(2)


def _loop_rows(params: SystemParams, drive: Drive, rel_tol: float, n_output: int) -> tuple:
    """``traversal.eigen_rows`` of a loop, its row times and their trace factor, kept for the next state on it.

    Nothing here reads the initial state, so a run on a loop of the cache
    takes the same ``_Loop``, its arrays read-only. The key is the exact
    value of everything they read: the drive's type and ``_contour`` fields,
    the model's five constants, ``rel_tol`` and ``n_output``. Returns (the
    ``_Loop``, whether it came from the cache).
    """
    def compute():
        tmap, steps, times, maps, exponents = traversal.eigen_rows(params, drive, rel_tol, n_output)
        solver = {"steps": steps, "frame": tmap.frame, "floor": tmap.floor,
                  "doublings": (tmap.steps // traversal._FIRST_STEPS).bit_length() - 1}
        return _Loop(solver, *_read_only(times, maps, exponents), _trace_factor(params, drive, times),
                     _decay(params, times))

    return _LOOP_ROWS.get(_key(params, drive, rel_tol, n_output), compute)


def propagate_adiabatic(
    params: SystemParams,
    loop: Drive,
    initial,
    config: IntegratorConfig = IntegratorConfig(),
    n_output: int = 512,
) -> TrajectoryRecord:
    """Propagate in the instantaneous eigenbasis, as a prefix product of eigenframe step maps.

    The state is expanded on the continuity-tracked eigenvectors; the
    coefficient equations carry the branch energies on the diagonal and the
    velocity-weighted derivative couplings off it (the couplings' relative
    exponential weight exp(+/- Im int dE dt) is what breaks the slow-drive
    limit for decaying systems). ``traversal.eigen_rows`` integrates them:
    n uniform 4th-order commutator-free Magnus steps in closed form, n
    doubled from 256 until the full-loop map settles to ``config.rel_tol``
    (the traversal map's rule; ``abs_tol``, ``max_step`` and
    ``initial_step`` play no part), then the smallest n_output * 2^k steps
    at or above that count, with the map from t = 0 to every row end as a
    prefix product P_j, rotated into the bare frame: U(t_j) = R(th_j) P_j
    R(th_0)^T, where R(th) holds the c-normalized eigenvectors (cos th,
    sin th) and (-sin th, cos th) (see the module docstring). Row j is
    U(t_j) c0 in the traceless frame, as on the direct route, and
    ``_finalize`` restores the trace factor. Rows are recorded at the
    ``n_output + 1`` times of ``loops._samples``.

    The record has the direct route's fields (``TrajectoryRecord`` says how
    the tracked frame projects it). ``meta["solver"]`` holds the row step
    count (``steps``), the frame ("eigen"), the full-loop map's change at
    the last doubling (``floor``), the number of doublings from 256 steps to
    the settled count (``doublings``) and whether the rows came from the
    cache (``reused``). ``meta["phase_s"]`` holds the wall seconds of the step
    products (``stepping``; a cache lookup on a hit) and of the rows after
    them (``rows``).

    The row maps do not depend on the initial state, so
    the route keeps them for the last two loops it ran, with the row times
    and their trace factor (``_loop_rows``, keyed on the exact bits of everything they
    read): the second state on a loop, or the other direction's next call,
    only multiplies and finishes its rows, with the bits of a fresh
    computation. An error is not kept; the next call raises it
    again.

    Raises
    ------
    ValueError
        If ``duration_T`` is so small that the steps T/n are subnormal
        (``traversal.eigen_rows``, which ``table1`` and the sweep's maps share).
    EPOnContourError
        If a row time, a loop's contour point at the EP's own angle or a
        sample of the steps is on the EP (``model._on_ep``).
    AmbiguousTrackingError
        If the eigenframe is unresolved at every step count (it turns by
        more than half a radian in a step, or the continued root and the
        frame's turn disagree on the branch).
    StepBudgetError
        If the map stalls above the float64 floor, or does not settle (or
        overflows at every step) up to 2^17 steps.
    NonFiniteError
        If the state leaves the representable range.
    """
    initial = StateVector.coerce(initial)
    if n_output < 2:
        raise ValueError("n_output must be >= 2")
    started = time.perf_counter()
    kept, reused = _loop_rows(params, loop, config.rel_tol, n_output)
    return _product_record("adiabatic", params, loop, config, n_output, kept, reused, (started, time.perf_counter()),
                           initial)


def _product_record(method: str, params: SystemParams, drive: Drive, config: IntegratorConfig, n_output: int,
                    kept: _Loop, reused: bool, clock: tuple, initial: StateVector) -> TrajectoryRecord:
    """``_record`` of the adiabatic route's rows maps[k] c0 on ``kept``, whose columns share each row's exponent.

    c0 and every map have parts below 1, so a subnormal state keeps its
    digits and no row overflows; an overflow in ``_finalize`` (a zero row) is ``NonFiniteError``.
    """
    c0, shift = _pow2_scaled(initial.as_array())
    try:
        return _record(method, params, drive, config, n_output, kept, reused, clock, kept.maps @ c0,
                       kept.exponents[:, 0] + shift)
    except OverflowError as exc:
        raise NonFiniteError("coefficients overflowed float64") from exc


def _map_loop(params: SystemParams, loop: LoopSpec, tmap: traversal.TraversalMap) -> _Loop:
    """A traversal map as a ``_Loop`` of one interval: times (0, T), maps (I, U), exponents (0, exponent).

    The times are the array ``loops._samples(T, 1)`` gives, [0.0, T].
    """
    times = np.array([0.0, loop.duration_T])
    return _Loop({"steps": tmap.steps, "frame": tmap.frame, "floor": tmap.floor}, times,
                 np.concatenate([_EYE, tmap.U[None]]), np.array([[0, 0], [tmap.exponent] * 2]),
                 _trace_factor(params, loop, times), _decay(params, times))


def _map_record(params: SystemParams, loop: LoopSpec, config: IntegratorConfig, kept: _Loop,
                initial) -> TrajectoryRecord:
    """The two-row record of ``initial`` on a ``_map_loop`` (method "map"), finished as the adiabatic route's rows.

    Where that route's last kept map is U, bit for bit, its last row and report are the same bits.
    """
    now = time.perf_counter()
    return _product_record("map", params, loop, config, 1, kept, False, (now, now), StateVector.coerce(initial))


# ---------------------------------------------------------------------------
# branch tracking and loop integrals
# ---------------------------------------------------------------------------


def track_branches(
    params: SystemParams,
    loop: LoopSpec,
    n_samples: int = 2048,
) -> AdiabaticFrame:
    """Continuity-tracked eigenframes at uniform samples over one traversal.

    Slot 0 starts on the instantaneous '+' branch and follows the root
    +/-sqrt(a^2 + g^2) nearer the one before, in the frames of
    ``traversal.branch_frames``. The t = 0 sample is the eigenframe at the
    start point: slot 0 on the '+' root, each vector signed by the gauge
    (``model._gauge``); the frame's arrays are built on first read. The
    ``swapped`` property reports whether one traversal exchanged the
    instantaneous branches (the EP-encircling signature).

    Raises
    ------
    AmbiguousTrackingError
        If adjacent overlaps are within 10% of each other (undersampled).
    EPOnContourError
        If a sample is on the EP (``model._on_ep``).
    NonFiniteError
        If a frame overflows float64.
    """
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    times = _samples(loop.duration_T, n_samples)
    a, lam, th, signs = traversal.branch_frames(params, loop, times)
    return AdiabaticFrame(times, lam, th, signs, complex(params.e2, -params.gamma2) + a)  # tr(H)/2 = h22 + a


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson's rule over samples y at strictly increasing x (at least 3).

    Operation for operation ``scipy.integrate.simpson(y, x=x)``, so the result
    is the same bits: a parabola through each pair of intervals with their own
    spacings and, for an even sample count, Cartwright's correction for the
    last interval (K. V. Cartwright, J. Math. Sci. Math. Educ. 12(2), 1-9).
    The weights run on x scaled by the power of two 2^-e that puts its
    largest end in [0.5, 1), and the interval factors take 2^e back: a power
    of two passes through each operation exactly, so the bits stay scipy's
    where its products of spacings fit float64, and the sum is right where
    they overflow (spacings past about 1.3e154; ``notes/decisions.md``).
    """
    n = len(y)
    stop = n - 2 if n % 2 else n - 3
    e = math.frexp(max(abs(x[0]), abs(x[-1])))[1]
    h = np.diff(np.ldexp(x, -e))
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    w0, w1, w2 = 2.0 - 1.0 / h0divh1, hsum * (hsum / hprod), 2.0 - h0divh1
    y0, y1, y2 = y[0:stop:2], y[1 : stop + 1 : 2], y[2 : stop + 2 : 2]
    result = np.sum(np.ldexp(hsum, e) / 6.0 * (y0 * w0 + y1 * w1 + y2 * w2))
    if n % 2 == 0:
        # 0-d arrays as in scipy: numpy's array power can differ from its scalar power by an ulp
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = np.ldexp((2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0)), e)
        beta = np.ldexp((h1**2 + 3.0 * h0 * h1) / (6 * h0), e)
        eta = np.ldexp(h1**3 / (6 * h0 * (h0 + h1)), e)
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def accumulated_phase(
    params: SystemParams,
    loop: LoopSpec,
    t: float,
    n_samples: int = 2048,
) -> complex:
    """Quadrature of the tracked branch-energy difference, int_0^t dE dt'.

    dE = 2 lam, lam the root of a^2 + g^2 continued along the samples as in
    ``track_branches`` (which raises what this raises), by Simpson's rule:
    E_a - E_b for the branches that start as '+' and '-'. The imaginary part
    is minus the accumulated width difference; over a full EP-encircling
    traversal it changes sign with the loop direction.
    """
    if not 0.0 <= t <= loop.duration_T:
        raise ValueError(f"t = {t} outside [0, {loop.duration_T}]")
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    if t == 0.0:
        return 0j
    times = _samples(t, n_samples)
    _, lam, _, _ = traversal.branch_frames(params, loop, times)
    return complex(_simpson(2.0 * lam, times))
