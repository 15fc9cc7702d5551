"""Time propagation along drive contours, in bare and adiabatic frames.

Both propagators integrate i dc/dt = H(t) c for the driven two-level model.
The mean (trace) part of H is removed analytically before integration: the
trace's imaginary part is constant in time, so the common phase and mean
decay factor exp(-i int tr(H)/2 dt) is known in closed form and the stepper
only has to resolve the traceless dynamics, whose rates are set by the small
eigenvalue splitting. This keeps norm drift at machine precision for
Hermitian parameters and postpones overflow for strongly decaying runs.

``propagate_direct`` integrates the bare-basis amplitudes with ``_Dop853``,
an adaptive 8th-order Runge-Kutta stepper on the two amplitudes as Python
complex scalars. It uses the published DOP853 tableau (tested equal to
scipy's) and the error norm and step controller of
``scipy.integrate.DOP853``, which the tests keep as its oracle. It builds the
dense-output interpolant only on steps that hold an output time, and
rescales the working state in place, keeping the step size, when its norm
leaves the working window. ``propagate_adiabatic`` expands the state in
the instantaneous eigenbasis, integrating coefficients whose off-diagonal
couplings are the velocity-weighted eigenvector derivatives, with
``_Dopri5``, a Dormand-Prince 5(4) stepper on two complex scalars that runs
free to T and interpolates the output rows with its 4th-order dense output.
Its RHS carries no eigenvectors: it continues the slot-0 energy to the
nearer eigenvalue. Branch identity is maintained by c-product overlap
tracking from one accepted step to the next, which is exactly where the
state-exchange around an exceptional point shows up. The two routes share
no stepper code, so their agreement is a genuine cross-check.

Eigenframes are solved and paired on arrays, never one sample at a time
(``frames``): ``track_branches`` and ``accumulated_phase`` scan a loop in
blocks, and the adiabatic route keeps only the scalar energy continuation
in its stepping loop and solves, pairs and checks the frames of every step
end and output row in one batch after it. Every frame is the bits the
scalar recipe gives, so no output depends on the array path. Each route's
loop also enforces a step budget (``_STEP_BUDGET``), so no input makes a
run go on without end.

Both right-hand sides take the traceless H = [[a, g], [g, -a]] and its
rate (a', g') from one closure per run, ``loops._traceless_kernel``: it
reads the drive's and the model's constants once and gives at every stage
the bits of ``model._traceless`` at ``field_at`` (see the ``model``
docstring), without a call or an object per step. The couplings are in
closed form: the c-normalized eigenvectors (cos th, sin th) and
(-sin th, cos th), tan 2th = g/a, both turn at the complex rate

    th' = (a g' - g a') / (2 (a^2 + g^2)),

with a' and g' exact from the loop velocity, and a tracked pair (v0, v1)
with det = v0[0] v1[1] - v0[1] v1[0] = +/-1 has V_{0/1} = -det th' and
V_{1/0} = +det th'. ``na_coupling`` keeps the two-frame finite difference
as an independent reference.

Recorded amplitudes are kept inside the representable range: if the true
squared norm leaves [1e-150, 1e+150] the stored state is renormalized and
the log of the discarded factor accumulates in ``log_scale`` (true norm^2 =
``norms_sq * exp(log_scale)``). All normalized projections are unaffected.
The stepping loops only collect the working-frame rows as columns (time,
state, log of the rescalings); ``_finalize`` then restores the trace phase
and the scale factors, and scans for renormalizations, in array passes
spelled so that every value is the bits of the old row-by-row loop in
Python scalars (``tests/row_reference.py`` keeps that loop as the oracle).
Both routes time the two phases into ``meta["phase_s"]``.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    AmbiguousTrackingError,
    EpdynError,
    EPOnContourError,
    EPProximityError,
    NonFiniteError,
    StepBudgetError,
    StepSizeUnderflowError,
)
from . import frames
from .loops import LoopSpec, StaticDrive, _discriminant_on_loop, _traceless_kernel
from .model import (
    EigenFrame,
    SystemParams,
    _fmul,
    _mul,
    _require_finite,
    _root_plus,
    _traceless,
    _traceless_drive,
    build_hamiltonian,
    c_product,
    eigenframe,
)

__all__ = [
    "StateVector",
    "IntegratorConfig",
    "TrajectoryRecord",
    "AdiabaticFrame",
    "propagate_direct",
    "propagate_adiabatic",
    "na_coupling",
    "na_coupling_at",
    "track_branches",
    "accumulated_phase",
    "average_decay_rate",
]

Drive = Union[LoopSpec, StaticDrive]

# stored squared norm is kept inside this window (log bounds)
_LOG_RECORD_LO = math.log(1e-150)
_LOG_RECORD_HI = math.log(1e150)
# tighter internal window so intermediate RK stages stay far from overflow
_LOG_WORK_LO = math.log(1e-100)
_LOG_WORK_HI = math.log(1e100)
# the step budget of both routes: past _STEP_BUDGET accepted steps a run
# stops once (T - t) / h predicts more than _STEP_BUDGET_REMAINING to come
_STEP_BUDGET = 10_000
_STEP_BUDGET_REMAINING = 1e7


def _output_grid(T: float, n_output: int) -> list:
    """The n_output + 1 uniform output times over [0, T], each one later than all before it.

    On a subnormal T, linspace repeats a time or steps back; such a time
    would repeat a recorded row or go back in time, so it is dropped.
    """
    grid = np.linspace(0.0, T, n_output + 1)
    return grid[grid > np.maximum.accumulate(np.r_[-math.inf, grid[:-1]])].tolist()


def _budget_message(steps: int, T: float, t: float, h: float) -> str:
    return (
        f"{steps} steps taken and (T - t)/h = {(T - t) / h:.3g} more predicted at t = {t:.6g} "
        f"(step {h:.3g}, T = {T:.6g}): over the budget of {_STEP_BUDGET} steps and "
        f"{_STEP_BUDGET_REMAINING:.0e} predicted"
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
    """Time series of the propagated state.

    ``states`` holds the stored (possibly renormalized) amplitudes; the
    physical squared norm at row k is ``norms_sq[k] * exp(log_scale[k])``.
    ``adiabatic_coeffs`` (adiabatic runs only) are the coefficients of the
    stored state on the tracked instantaneous eigenvectors, and
    ``branch_labels`` gives the instantaneous label ('+' or '-') of tracked
    slot 0 at each time.
    """

    times: np.ndarray
    states: np.ndarray
    norms_sq: np.ndarray
    log_scale: np.ndarray
    adiabatic_coeffs: Optional[np.ndarray]
    branch_labels: Optional[np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = np.asarray(self.times)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("times must be a 1-D array with at least two entries")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must increase strictly from 0")

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def true_norm_sq(self, k: int = -1) -> float:
        return float(self.norms_sq[k] * math.exp(self.log_scale[k]))


@dataclass(frozen=True)
class AdiabaticFrame:
    """Eigenframes sampled along a loop with branch continuity applied.

    Slot 0 starts on the instantaneous '+' branch, slot 1 on '-'; each slot
    then follows its eigenvector by maximal c-product overlap between
    adjacent samples. ``labels[k, s]`` records which instantaneous branch
    slot s occupies at ``times[k]``.
    """

    times: np.ndarray
    energies: np.ndarray  # (m, 2) complex, per tracked slot
    vectors: np.ndarray  # (m, 2, 2) complex, [time, slot, component]
    labels: np.ndarray  # (m, 2) of '+'/'-'

    @property
    def swapped(self) -> bool:
        """True when one traversal exchanged the branches (EP encircled)."""
        return bool(self.labels[-1, 0] != self.labels[0, 0])


# ---------------------------------------------------------------------------
# recorded rows, shared by both propagators
# ---------------------------------------------------------------------------


def _trace_phase(params: SystemParams, drive: Drive, t: np.ndarray) -> np.ndarray:
    """Re int_0^t tr H / 2 dt' (the removed common phase) at an array of times, in closed form."""
    return 0.5 * ((params.e1 + params.e2) * t + drive.omega_integral(t, np))


def _norms_sq(z: np.ndarray) -> np.ndarray:
    """abs(z[k, 0]) ** 2 + abs(z[k, 1]) ** 2 per row, as Python scalars compute it.

    ``abs`` is libm ``hypot``, and a float's ``** 2`` is C ``pow``, which is
    not always x * x.
    """
    squares = np.float_power(np.hypot(z.real, z.imag), 2.0)
    return squares[:, 0] + squares[:, 1]


def _finalize(
    params: SystemParams,
    drive: Drive,
    times: np.ndarray,
    raw,
    log_internal: np.ndarray,
    coeffs: Optional[np.ndarray] = None,
) -> tuple:
    """(states, norms_sq, log_scale, coeffs) of working-frame rows, on whole columns.

    Row k holds the working-frame bare state ``raw[k]`` at ``times[k]``: the
    true state is raw * exp(-i trace phase) * exp((log_internal - 2 gbar t) / 2).
    The stored state takes that factor relative to an offset, and the offset
    moves to the row's log true norm^2 whenever the row's would leave
    [1e-150, 1e+150] relative to it. ``coeffs`` (adiabatic runs) take the
    stored state's factor.

    Every value is the bits the row-by-row loop in Python floats and complex
    numbers gives (``tests/row_reference.py``; ``notes/decisions.md`` lists
    the traps): moduli and squares as in ``_norms_sq``, ``math.log`` and
    ``math.exp`` mapped over the column because numpy's differ in the last
    bit, numpy's ``cos`` and ``sin`` (libm's), and complex products spelled
    out as CPython computes them (``model._mul``, ``_fmul``). The offset scan
    costs one array pass per renormalization. A squared norm that overflows
    raises OverflowError, as ``abs()`` and ``**`` do on Python floats, and so
    does ``math.exp``.
    """
    raw = np.asarray(raw, dtype=complex)
    log_total = -2.0 * (0.5 * (params.gamma1 + params.gamma2)) * times + log_internal
    with np.errstate(over="ignore"):
        raw_n2 = _norms_sq(raw)
    if np.isinf(raw_n2).any():
        raise OverflowError("squared norm overflowed float64")
    log_true = np.full(len(times), -math.inf)
    positive = raw_n2 > 0
    log_true[positive] = np.fromiter(map(math.log, raw_n2[positive].tolist()), float) + log_total[positive]
    offsets = np.empty(len(times))
    start, offset = 0, 0.0
    while start < len(times):
        shift = log_true[start:] - offset
        leaves = np.flatnonzero(~((_LOG_RECORD_LO < shift) & (shift < _LOG_RECORD_HI)))
        stop = start + leaves[0] if leaves.size else len(times)
        offsets[start:stop] = offset
        if stop < len(times):
            # renormalize the stored state, push the factor into log_scale
            offset = offsets[stop] = log_true[stop]
        start = stop + 1
    scale = np.fromiter(map(math.exp, (0.5 * (log_total - offsets)).tolist()), float)
    # cmath.exp(1j * phase) * scale; 1j * phase has real part +-0.0, so exp takes cos and sin
    phase = -_trace_phase(params, drive, times)
    factor = _fmul(scale, np.cos(phase), np.sin(phase))

    def scaled(z):
        out = np.empty_like(z)
        for j in (0, 1):
            out.real[:, j], out.imag[:, j] = _mul(z.real[:, j], z.imag[:, j], *factor)
        return out

    states = scaled(raw)
    return states, _norms_sq(states), offsets, None if coeffs is None else scaled(coeffs)


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
    oracle; only the driver differs. ``rhs(t, y0, y1)`` returns the
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


def propagate_direct(
    params: SystemParams,
    drive: Drive,
    initial,
    config: IntegratorConfig = IntegratorConfig(),
    n_output: int = 512,
    record_internal: bool = False,
) -> TrajectoryRecord:
    """Integrate i dc/dt = H(t) c along the drive in the bare basis.

    The stepper is ``_Dop853`` on the traceless-frame amplitudes. Records at
    ``n_output + 1`` uniformly spaced times (>= 512 by default) from the
    dense-output interpolant, built only on steps that hold a grid time;
    ``record_internal`` additionally keeps every accepted step. When the
    squared norm leaves [1e-100, 1e+100] the state is rescaled in place and
    the step size kept. ``meta["solver"]`` counts accepted and rejected
    steps, RHS calls and renormalizations, and holds the smallest and
    largest accepted step (``min_step``, ``max_step``; the last step,
    clipped to T, included). ``meta["phase_s"]`` holds the wall seconds of
    the stepping loop, rows interpolated on the way (``stepping``), and of
    finishing the rows (``rows``).

    Raises
    ------
    StepSizeUnderflowError
        If the adaptive controller cannot meet the tolerances.
    StepBudgetError
        If the run exceeds the step budget (see ``_STEP_BUDGET``).
    NonFiniteError
        If amplitudes leave the representable range despite rescaling.
    """
    initial = StateVector.coerce(initial)
    if n_output < 2:
        raise ValueError("n_output must be >= 2")
    T = drive.duration_T

    kernel = _traceless_kernel(drive, params)

    def rhs(t: float, u0: complex, u1: complex) -> tuple:
        a, g, _, _ = kernel(t)
        return -1j * (a * u0 + g * u1), -1j * (g * u0 - a * u1)

    grid = _output_grid(T, n_output)
    y = (complex(initial.c1), complex(initial.c2))
    # the rows as columns: time, working-frame state, log of the rescalings so far
    times, raw, logs = [0.0], [y], [0.0]
    started = time.perf_counter()
    stepper = _Dop853(rhs, y, T, config)
    log_u = 0.0
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
            if n2 > 0 and not (_LOG_WORK_LO < math.log(n2) < _LOG_WORK_HI):
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


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with PI step control and dense output (adiabatic route)
# ---------------------------------------------------------------------------

# stages 2..6 at t + c h; the 7th stage is the FSAL derivative at t + h of
# the 5th-order solution, whose weights are _DP_B5
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))
# 4th-order continuous extension (Shampine, Math. Comp. 46, 135 (1986)):
# y(t + x h) = y + h sum_s k_s sum_j P[s][j] x^(j+1), from the step's own stages
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class _Dopri5:
    """Dormand-Prince 5(4) with a PI controller and dense output, on two complex scalars.

    Kept independent of the direct route's ``_Dop853`` on purpose: the
    adiabatic route must not share integration machinery with the direct
    route it is checked against. The stepper runs free towards ``t_bound``
    (only its last step is clipped), with an RMS error norm, a step cap of
    min(max_step, t_bound / 64) and a floor of 1e-14 t_bound. ``rhs(t, y0,
    y1)`` returns the derivative pair; the stages of the last accepted step
    are kept, so ``dense()`` interpolates it without further RHS calls.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 5.0
    ALPHA = 0.7 / 5.0
    BETA = 0.4 / 5.0

    def __init__(self, rhs, y: tuple, t_bound: float, config: IntegratorConfig) -> None:
        self.rhs = rhs
        self.t_bound = t_bound
        self.rtol, self.atol = config.rel_tol, config.abs_tol
        self.max_step = min(config.max_step, t_bound / 64.0)
        self.min_step = 1e-14 * t_bound
        if self.min_step > self.max_step:
            raise StepBudgetError(
                f"step floor 1e-14 T = {self.min_step:.3e} above the step cap "
                f"min(max_step, T/64) = {self.max_step:.3e} at T = {t_bound:.6g}: no step fits"
            )
        # the first trial step within [floor, cap]; a smaller initial_step would fail at once
        self.h_abs = min(max(config.initial_step, self.min_step), self.max_step)
        self.err_prev = 1.0
        self.t, self.y = 0.0, y
        self.f = rhs(0.0, *y)
        self.k0 = [0j] * 7
        self.k1 = [0j] * 7
        self.rhs_calls = 1
        self.accepted = 0
        self.rejected = 0
        self.renormalizations = 0
        self.h_min, self.h_max = math.inf, 0.0

    def step(self) -> None:
        """Take one accepted step, shrinking the trial step on rejection."""
        t, (y0, y1), k0, k1, rhs = self.t, self.y, self.k0, self.k1, self.rhs
        h = self.h_abs
        rejected = False
        while True:
            if h < self.min_step:
                raise StepSizeUnderflowError(
                    f"step size {h:.3e} below floor {self.min_step:.3e} at t = {t:.6g}"
                )
            t_new = min(t + h, self.t_bound)
            h = t_new - t
            k0[0], k1[0] = self.f
            for s, (c, row) in enumerate(zip(_DP_C, _DP_A), 1):
                d0 = d1 = 0j
                for j, a in enumerate(row):
                    d0 += a * k0[j]
                    d1 += a * k1[j]
                k0[s], k1[s] = rhs(t + c * h, y0 + h * d0, y1 + h * d1)
            d0 = d1 = e0 = e1 = 0j
            for j in range(6):
                d0 += _DP_B5[j] * k0[j]
                d1 += _DP_B5[j] * k1[j]
            n0, n1 = y0 + h * d0, y1 + h * d1
            k0[6], k1[6] = rhs(t_new, n0, n1)
            self.rhs_calls += 6
            for j, e in enumerate(_DP_E):
                e0 += e * k0[j]
                e1 += e * k1[j]
            q0 = h * e0 / (self.atol + self.rtol * max(abs(y0), abs(n0)))
            q1 = h * e1 / (self.atol + self.rtol * max(abs(y1), abs(n1)))
            err = math.sqrt(0.5 * (q0.real**2 + q0.imag**2 + q1.real**2 + q1.imag**2))
            if not math.isfinite(err):
                raise NonFiniteError("non-finite error estimate; amplitudes overflowed")
            if err <= 1.0:
                break
            rejected = True
            self.rejected += 1
            h *= max(self.MIN_FACTOR, self.SAFETY * err ** (-0.2))
        err = max(err, 1e-10)
        factor = self.SAFETY * err ** (-self.ALPHA) * self.err_prev**self.BETA
        factor = min(1.0 if rejected else self.MAX_FACTOR, max(self.MIN_FACTOR, factor))
        self.h_abs = min(h * factor, self.max_step)
        self.err_prev = err
        self.accepted += 1
        self.h_min, self.h_max = min(self.h_min, h), max(self.h_max, h)
        self.t_old, self.y_old, self.h = t, self.y, h
        self.t, self.y, self.f = t_new, (n0, n1), (k0[6], k1[6])

    def dense(self):
        """Interpolant t -> (y0, y1) over the last accepted step (no RHS call)."""
        k0, k1, h, t_old, (y0, y1) = self.k0, self.k1, self.h, self.t_old, self.y_old
        q0, q1 = [0j] * 4, [0j] * 4
        for row, k0_s, k1_s in zip(_DP_P, k0, k1):
            for j, p in enumerate(row):
                q0[j] += p * k0_s
                q1[j] += p * k1_s

        def interp(t: float) -> tuple:
            x = (t - t_old) / h
            hx = h * x
            return (
                y0 + hx * (q0[0] + x * (q0[1] + x * (q0[2] + x * q0[3]))),
                y1 + hx * (q1[0] + x * (q1[1] + x * (q1[2] + x * q1[3]))),
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


def _nearer(e: complex, ref: complex) -> complex:
    """Whichever of +/- e is nearer to ``ref``."""
    return -e if e.real * ref.real + e.imag * ref.imag < 0.0 else e


def _nearest_root(disc: complex, ref: complex) -> complex:
    """The eigenvalue +/- sqrt(disc) / 2 of the traceless H nearer to ``ref``."""
    return _nearer(0.5 * cmath.sqrt(disc), ref)


def _det_sign(vs) -> float:
    """det(v0, v1) = +/-1 of a c-orthonormal pair, as a sign."""
    v0, v1 = vs
    return 1.0 if (v0[0] * v1[1] - v0[1] * v1[0]).real > 0.0 else -1.0


def _theta_dot(params: SystemParams, a: complex, g: complex, velocity) -> complex:
    """th' = (a g' - g a') / (2 (a^2 + g^2)); see the module docstring."""
    a_dot, g_dot = _traceless_drive(params, *velocity)
    return 0.5 * (a * g_dot - g * a_dot) / (a * a + g * g)


def na_coupling(
    frame_a: EigenFrame,
    frame_b: EigenFrame,
    dt: float,
    velocity: tuple[float, float],
) -> tuple[complex, complex]:
    """Non-adiabatic couplings (V_{+/-}, V_{-/+}) from two nearby frames.

    ``frame_a`` and ``frame_b`` must be eigenframes at parameter points
    placed symmetrically around the evaluation point along the velocity
    direction, separated by ``velocity * dt``; the central difference
    (v_b - v_a)/dt is then the velocity-weighted parameter derivative of
    each eigenvector, and the couplings are its c-products with the opposite
    branch. Zero velocity returns (0, 0) exactly. This finite difference is
    the independent reference for the closed form of :func:`na_coupling_at`.

    The gauge convention fixes signs only piecewise, so frame_b is re-aligned
    (branch pairing and sign) to frame_a before differencing; too-ambiguous
    overlaps raise EPProximityError because that is the divergent-derivative
    signature near the EP.
    """
    if velocity[0] == 0.0 and velocity[1] == 0.0:
        return 0j, 0j
    if dt <= 0:
        raise ValueError("dt must be > 0")
    va = np.array([frame_a.v_plus, frame_a.v_minus])  # [slot, component]
    cands = np.array([frame_b.v_plus, frame_b.v_minus])
    pairing = frames._pair(va[:1], va[1:], cands[:1], cands[1:])
    if not pairing.ok[0]:
        try:
            frames._raise_pairing(pairing.mags[0], plus0=True)
        except AmbiguousTrackingError as exc:
            raise EPProximityError("frames too close to the EP to pair branches") from exc
    picks = [1, 0] if pairing.cross[0] else [0, 1]
    vb = np.where(pairing.chain[0] >= 0.0, 1.0, -1.0)[:, None] * cands[picks]
    mid = 0.5 * (va + vb)
    dv = (vb - va) / dt
    return complex(c_product(mid[0], dv[1])), complex(c_product(mid[1], dv[0]))


def na_coupling_at(
    params: SystemParams,
    loop: LoopSpec,
    t: float,
    ep_tol: float = 1e-8,
) -> tuple[complex, complex]:
    """Couplings (V_{+/-}, V_{-/+}) at time t on a loop, in closed form.

    With the traceless H = [[a, g], [g, -a]] and
    th' = (a g' - g a') / (2 (a^2 + g^2)) taken from the loop velocity,
    V_{+/-} = -det th' and V_{-/+} = +det th', where det = +/-1 is the
    determinant of the frame's (v_plus, v_minus). Raises EPProximityError
    inside the eigenframe guard.
    """
    fp = loop.field_at(t)
    frame = eigenframe(build_hamiltonian(params, fp), ep_tol)
    theta_dot = _theta_dot(params, *_traceless(params, fp.omega, fp.eps0), loop.velocity_at(t))
    det = _det_sign((frame.v_plus.tolist(), frame.v_minus.tolist()))
    return -det * theta_dot, det * theta_dot


# ---------------------------------------------------------------------------
# adiabatic-frame propagation
# ---------------------------------------------------------------------------


def _scan_contour(params: SystemParams, drive: Drive, ep_tol: float, n: int = 1024) -> None:
    guard = ep_tol * ep_tol
    times = np.linspace(0.0, drive.duration_T, n + 1)
    mags = np.abs(_discriminant_on_loop(drive, params, times))
    hits = np.flatnonzero(mags <= guard)
    if hits.size:
        raise EPOnContourError(
            f"contour reaches |discriminant| <= {guard:.1e} near t = {times[hits[0]]:.6g}"
        )


def propagate_adiabatic(
    params: SystemParams,
    loop: Drive,
    initial,
    config: IntegratorConfig = IntegratorConfig(),
    n_output: int = 512,
    ep_tol: float = 1e-8,
    record_internal: bool = False,
) -> TrajectoryRecord:
    """Integrate in the instantaneous eigenbasis with explicit couplings.

    The state is expanded on the continuity-tracked eigenvectors; the
    coefficient equations carry the branch energies on the diagonal and the
    velocity-weighted derivative couplings off it (the couplings' relative
    exponential weight exp(+/- Im int dE dt) is what breaks the slow-drive
    limit for decaying systems). ``_Dopri5`` steps the two coefficients
    freely to T. Its RHS needs no eigenvectors: the couplings are closed
    form (see the module docstring) and the slot-0 energy is the eigenvalue
    of the traceless H nearer the one continued to the last accepted step.
    The stepping loop only continues that energy; output rows inside a step
    come from the dense-output interpolant. After the stepper, one array
    pass (``frames._settle``) solves the frame at every step end, pairs
    each with the one before, checks that the continued energy is the
    eigenvalue of the branch overlap tracking puts in slot 0, and pairs the
    frame of each row inside a step with the frame at the step's start. The
    frames are the bits the one-at-a-time solve gives, so the rows are too.
    Bare-basis amplitudes are recorded at ``n_output + 1`` uniform times
    (``record_internal`` adds every accepted step). When the squared norm
    leaves [1e-100, 1e+100] the coefficients are rescaled after the step's
    rows are recorded. ``meta["solver"]`` counts accepted and rejected
    steps, RHS calls and renormalizations, and holds the smallest and
    largest accepted step (``min_step``, ``max_step``; the last step,
    clipped to T, included). ``meta["phase_s"]`` holds the wall seconds of
    the stepping loop (``stepping``) and of the frames and rows after it
    (``rows``).

    Raises
    ------
    EPOnContourError
        If the contour comes within the eigenframe guard of the EP.
    AmbiguousTrackingError
        If a step's overlap tracking and its continued energy disagree.
    StepSizeUnderflowError
        If the adaptive controller cannot meet the tolerances.
    StepBudgetError
        If the run exceeds the step budget (see ``_STEP_BUDGET``).
    NonFiniteError
        If the coefficients leave the representable range.

    The error raised is the one a step-by-step walk meets first: when the
    stepper fails, the frames of the steps it accepted are checked first.
    """
    initial = StateVector.coerce(initial)
    if n_output < 2:
        raise ValueError("n_output must be >= 2")
    _scan_contour(params, loop, ep_tol, n=max(1024, 2 * n_output))
    T = loop.duration_T
    guard = ep_tol * ep_tol

    kernel = _traceless_kernel(loop, params)

    def rhs(t: float, b0: complex, b1: complex) -> tuple:
        a, g, a_dot, g_dot = kernel(t)
        w2 = a * a + g * g
        disc = 4.0 * w2
        if abs(disc) <= guard:
            raise EPProximityError(f"|discriminant| = {abs(disc):.3e} <= tol^2 = {guard:.3e}")
        e0 = _nearest_root(disc, energy)
        v = det * (0.5 * (a * g_dot - g * a_dot) / w2)  # _theta_dot
        return -1j * e0 * b0 + v * b1, 1j * e0 * b1 - v * b0

    grid = _output_grid(T, n_output)
    started = time.perf_counter()
    try:
        # the t = 0 frame, slot 0 on the instantaneous '+' branch; a continuously
        # tracked c-orthonormal pair keeps its determinant, so det is fixed here
        first = frames._initial(params, loop, ep_tol)
        vs0 = first.eig.v_plus[0].tolist(), first.eig.v_minus[0].tolist()
        det = _det_sign(vs0)
        a, g, _, _ = kernel(0.0)
        energy = 0.5 * _root_plus(4.0 * (a * a + g * g))
        c0 = (initial.c1, initial.c2)
        b = (c_product(vs0[0], c0), c_product(vs0[1], c0))
        steps = frames._Steps()
        rows = [(0.0, b, 0.0, 0)]  # (t, coefficients, log scale, frame): see frames._Steps
        log_b = 0.0
        gi = 1
        stepper = _Dopri5(rhs, b, T, config)
        try:
            while stepper.t < T:
                stepper.step()
                t, b = stepper.t, stepper.y
                if grid[gi] < t:
                    interp = stepper.dense()
                    while grid[gi] < t:
                        rows.append((grid[gi], interp(grid[gi]), log_b, steps.inside(grid[gi])))
                        gi += 1
                a, g, _, _ = kernel(t)
                root = 0.5 * cmath.sqrt(4.0 * (a * a + g * g))
                energy = _nearer(root, energy)
                frame = steps.end(t, root, energy)
                if grid[gi] == t:
                    rows.append((t, b, log_b, frame))
                    gi += 1
                elif record_internal:
                    rows.append((t, b, log_b, frame))
                if stepper.accepted > _STEP_BUDGET and T - t > _STEP_BUDGET_REMAINING * stepper.h:
                    raise StepBudgetError(_budget_message(stepper.accepted, T, t, stepper.h))
                n2 = abs(b[0]) ** 2 + abs(b[1]) ** 2
                if n2 > 0 and not (_LOG_WORK_LO < math.log(n2) < _LOG_WORK_HI):
                    stepper.rescale(math.sqrt(n2))
                    log_b += math.log(n2)
        except (EpdynError, OverflowError) as exc:  # raised once the accepted steps are checked
            failure = exc
        else:
            failure = None
        stepped = time.perf_counter()
        vectors, plus0 = frames._settle(params, loop, ep_tol, first, steps)
        if failure is not None:
            raise failure
        times, coeffs, logs, picked = (np.array(column) for column in zip(*rows))
        picked[picked < 0] = len(steps.ends) - picked[picked < 0]
        vs = vectors[picked]  # [row, slot, component]
        raw = np.empty_like(coeffs)
        for j in (0, 1):
            # b[0] * vs[0][j] + b[1] * vs[1][j] in Python complex arithmetic
            re0, im0 = _mul(coeffs.real[:, 0], coeffs.imag[:, 0], vs.real[:, 0, j], vs.imag[:, 0, j])
            re1, im1 = _mul(coeffs.real[:, 1], coeffs.imag[:, 1], vs.real[:, 1, j], vs.imag[:, 1, j])
            raw.real[:, j], raw.imag[:, j] = re0 + re1, im0 + im1
        labels = np.where(plus0[picked], "+", "-")
        states, norms, logs, coeffs = _finalize(params, loop, times, raw, logs, coeffs)
    except EPProximityError as exc:
        raise EPOnContourError(str(exc)) from exc
    except OverflowError as exc:
        # abs() and ** on Python scalars raise OverflowError instead of returning inf
        raise NonFiniteError("coefficients overflowed float64") from exc
    meta = {
        "method": "adiabatic",
        "params": params,
        "drive": loop,
        "config": config,
        "n_output": n_output,
        "ep_tol": ep_tol,
        "solver": stepper.counts(),
        "phase_s": {"stepping": stepped - started, "rows": time.perf_counter() - stepped},
    }
    return TrajectoryRecord(times, states, norms, logs, coeffs, labels, meta)


# ---------------------------------------------------------------------------
# branch tracking and loop integrals
# ---------------------------------------------------------------------------


def track_branches(
    params: SystemParams,
    loop: LoopSpec,
    n_samples: int = 2048,
    ep_tol: float = 1e-8,
) -> AdiabaticFrame:
    """Continuity-tracked eigenframes at uniform samples over one traversal.

    Slot assignments follow maximal |c-product| overlap between adjacent
    samples; the ``swapped`` property reports whether one traversal exchanged
    the instantaneous branches (the EP-encircling signature). The frames are
    solved and paired in array blocks (``frames._scan``): each sample's pick
    of branch depends only on it and the sample before, so slots follow from
    a cumulative parity and signs from a cumulative product, and the result
    is the bits of pairing one sample at a time.

    Raises
    ------
    AmbiguousTrackingError
        If adjacent overlaps are within 10% of each other (undersampled).
    EPOnContourError
        If any sample falls inside the eigenframe's EP guard.
    NonFiniteError
        If a frame overflows float64.
    """
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    times = np.linspace(0.0, loop.duration_T, n_samples + 1)
    energies = np.empty((n_samples + 1, 2), dtype=complex)
    vectors = np.empty((n_samples + 1, 2, 2), dtype=complex)
    labels = np.empty((n_samples + 1, 2), dtype="<U1")
    for rows, tracked in frames._scan(params, loop, times, ep_tol):
        energies[rows] = tracked.energies()
        vectors[rows] = tracked.vectors()
        labels[rows] = tracked.labels()
    return AdiabaticFrame(times=times, energies=energies, vectors=vectors, labels=labels)


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson's rule over samples y at strictly increasing x (at least 3).

    Operation for operation ``scipy.integrate.simpson(y, x=x)``, so the result
    is the same bits: a parabola through each pair of intervals with their own
    spacings and, for an even sample count, Cartwright's correction for the
    last interval (K. V. Cartwright, J. Math. Sci. Math. Educ. 12(2), 1-9).
    """
    n = len(y)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    w0, w1, w2 = 2.0 - 1.0 / h0divh1, hsum * (hsum / hprod), 2.0 - h0divh1
    y0, y1, y2 = y[0:stop:2], y[1 : stop + 1 : 2], y[2 : stop + 2 : 2]
    result = np.sum(hsum / 6.0 * (y0 * w0 + y1 * w1 + y2 * w2))
    if n % 2 == 0:
        # 0-d arrays as in scipy: numpy's array power can differ from its scalar power by an ulp
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def accumulated_phase(
    params: SystemParams,
    loop: LoopSpec,
    t: float,
    branch_pairing: str = "plus-minus",
    n_samples: int = 2048,
) -> complex:
    """Quadrature of the tracked branch-energy difference, int_0^t dE dt'.

    ``branch_pairing`` selects the orientation: "plus-minus" integrates
    E_a - E_b for the branches that start as '+' and '-'; "minus-plus"
    negates. The imaginary part is minus the accumulated width difference;
    over a full EP-encircling traversal it changes sign with the loop
    direction.
    """
    if branch_pairing not in ("plus-minus", "minus-plus"):
        raise ValueError("branch_pairing must be 'plus-minus' or 'minus-plus'")
    if not 0.0 <= t <= loop.duration_T:
        raise ValueError(f"t = {t} outside [0, {loop.duration_T}]")
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    if t == 0.0:
        return 0j
    times = np.linspace(0.0, t, n_samples + 1)
    gap = np.empty(len(times), dtype=complex)
    for rows, tracked in frames._scan(params, loop, times, ep_tol=1e-8):
        energies = tracked.energies()
        gap[rows] = energies[:, 0] - energies[:, 1]
    result = complex(_simpson(gap, times))
    return -result if branch_pairing == "minus-plus" else result


def average_decay_rate(
    params: SystemParams,
    loop: LoopSpec,
    branch: str = "plus",
    n_samples: int = 2048,
) -> float:
    """Loop-averaged decay rate of one tracked adiabatic branch.

    The decay rate convention is gamma = -Im E (so the bare widths are
    gamma1, gamma2 at zero drive). When the loop encircles the EP the
    tracked branches exchange, so each branch closes only after two
    traversals and its average covers both instantaneous sheets; both
    branches then share the same average, (gamma1 + gamma2)/2 in this model.
    Without the exchange each branch averages over its own single-traversal
    path.
    """
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    frame = track_branches(params, loop, n_samples=n_samples)
    rates = -frame.energies.imag  # (m, 2)
    t = frame.times
    if frame.swapped:
        # closed circuit = two traversals covering both slots
        total = _simpson(rates[:, 0], t) + _simpson(rates[:, 1], t)
        return float(total / (2.0 * loop.duration_T))
    slot = 0 if branch == "plus" else 1
    return float(_simpson(rates[:, slot], t) / loop.duration_T)
