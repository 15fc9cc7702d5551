"""One traversal map per loop: the 2x2 map U of a whole traversal, as a closed-form step product.

i dc/dt = H(t) c is linear, so one traversal of a loop is one matrix: from
any initial state c0 the final state is U c0 times the trace factor
exp(-i int_0^T tr H / 2 dt), which the propagators also remove and restore
in closed form (``propagation``). U belongs to the traceless
H0 = [[a, g], [g, -a]] (``model._traceless``). It is nearly rank 1 on an
EP-encircling loop, which is the paper's "any initial state" ends in the
selected one. ``traversal_maps`` computes U for a batch of loops.

Step. n uniform steps of length h = T/n, each the 4th-order
commutator-free Magnus step with two exponentials at the Gauss points
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sec. 5; Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011)). Every generator here is a
traceless 2x2 matrix M = [[p, q], [r, -p]], and M^2 = sigma^2 I with
sigma^2 = p^2 + q r, so each exponential is closed form:

    exp(M) = cosh(sigma) I + sinh(sigma)/sigma M    (1 at sigma = 0).

Frames. The eigenframe b = R(th)^T c, R(th) = [[cos th, -sin th],
[sin th, cos th]], has the generator K = [[-i lam, th'], [-th', i lam]],
where lam = +/-sqrt(a^2 + g^2) is continued along the samples by the nearer
sign and th' = (a g' - g a')/(2 (a^2 + g^2)) is the closed form the
adiabatic route uses. At both ends e^{2 i th} = (a + i g)/lam; th_T takes
the multiple of pi nearest th_0 plus the quadrature of th' over the steps.
The e^29 growth of the diode loop (criterion 04b) sits on K's diagonal
there, so each coefficient keeps its own relative precision, and
U = R(th_T) U_b R(th_0)^T.
A loop takes the bare frame, K = -i H0, with the same closed form, when
the eigenframe fails it at some step count: a sample meets the EP guard
(|discriminant| <= 1e-16, as ``propagate_adiabatic``), or the frame turns
by more than half a radian in one step (|th'| h > 1/2: an EP on or near
the contour that the steps do not resolve; through an EP the eigenframe
product converges to a wrong map); or when the eigenframe does not settle
(below). That depends on the loop alone.

Steps and floor. Each frame doubles n from 256 and compares U with the one
before: the change is max |U_n - U_{n/2}| / max |U_n| on the common scale.
For a 4th-order product the change is 15 times the error of U_n (Richardson),
so the doubling stops when change / 15 is at most ``rel_tol``; or, at a
change of at most ``_FLOOR_MAX``, when the change shrank less than 8-fold
over the last doubling where a 4th-order step shrinks it 16-fold: rounding,
not the step, sets it there. Either way the last change is reported with U
as the loop's floor. Past ``_STEP_CAP`` steps the frame has not settled; in
the bare frame that raises ``StepBudgetError``.

Bits. Every operation is elementwise over (loops, steps) arrays or runs
along one loop's steps, so a loop's U is the same bits alone and in any
batch. The steps are multiplied in a fixed pairwise tree (step 2k+1 times
step 2k, level by level), each node rescaled by a power of two to a largest
component in [0.5, 1); the exponents add up exactly into ``log_scale``.
Steps are evaluated in blocks of a power-of-two length, so memory stays
bounded, and a block is a subtree of the same tree, so the block length
changes no bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EpdynError, NonFiniteError, StepBudgetError
from .loops import LoopSpec, _motion_at
from .model import SystemParams, _traceless, _traceless_drive

__all__ = ["TraversalMap", "traversal_maps"]

# Gauss points of a step and the weights of the two exponentials: the
# first factor applied is exp(h (_W[0] K(c1) + _W[1] K(c2))), the second
# exp(h (_W[1] K(c1) + _W[0] K(c2)))
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_W = (0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0)

_FIRST_STEPS = 256
#: The largest step count a frame tries; past it the frame has not settled.
_STEP_CAP = 2**17
#: A 4th-order product's change over one doubling is 2^4 - 1 = 15 times the
#: error of the finer product, and it shrinks 16-fold from one doubling to
#: the next; a change that shrank less than 8-fold has stalled.
_RICHARDSON = 15.0
_STALL = 1.0 / 8.0
#: The largest change at which a stalled doubling counts as the float64 floor
#: (above it U has no three digits; the diode loop passes it near T = 435).
_FLOOR_MAX = 1e-3
#: The largest turn |th'| h of the eigenframe in one step: an EP on or near
#: the contour that the steps do not resolve turns it by more.
_MAX_TURN = 0.5
#: The eigenframe's EP guard on |discriminant| = 4 |a^2 + g^2| (ep_tol 1e-8 squared).
_EP_GUARD = 1e-16
#: Steps evaluated at once over all loops of a batch (bounds the memory).
_BLOCK_STEPS = 2**13
# the exponentials' power series in zeta = sigma^2, up to zeta^_SERIES_TERMS
_SERIES_TERMS = 9
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(2 * _SERIES_TERMS + 2))


class TraversalMap(NamedTuple):
    """The map of one traversal: the traceless dynamics take c0 to U c0 e^log_scale.

    ``U`` is scaled to a largest component in [0.5, 1). ``steps`` is the
    step count of the reported U, ``frame`` is "eigen" or "bare", and
    ``floor`` the normalized change of U at the last doubling.
    """

    U: np.ndarray
    log_scale: float
    steps: int
    frame: str
    floor: float


def traversal_maps(
    params: SystemParams, loops: Sequence[LoopSpec], rel_tol: float
) -> list[TraversalMap]:
    """The traversal map of each loop (see the module docstring).

    Raises
    ------
    NonFiniteError
        If the drive overflows float64 along a loop.
    StepBudgetError
        If a loop's bare frame has not settled at ``_STEP_CAP`` steps.
    """
    maps = _maps(params, loops, rel_tol)
    for m in maps:
        if isinstance(m, EpdynError):
            raise m
    return maps


def _maps(params: SystemParams, loops: Sequence[LoopSpec], rel_tol: float) -> list:
    """``traversal_maps``, with each loop's error in its place instead of raised."""
    out, _ = _settle(params, loops, rel_tol, eigen=True)
    bare = [k for k, m in enumerate(out) if m is None]
    maps, smallest = _settle(params, [loops[k] for k in bare], rel_tol, eigen=False)
    for k, m, change in zip(bare, maps, smallest):
        out[k] = m if m is not None else StepBudgetError(
            f"the traversal map of {loops[k]} has not settled at {_STEP_CAP} steps "
            f"(smallest change {change:.1e})"
        )
    return out


def _settle(params: SystemParams, loops: Sequence[LoopSpec], rel_tol: float, eigen: bool) -> tuple:
    """Double each loop's steps in one frame until it settles.

    Returns each loop's map, error or None (not settled), and the smallest
    change each loop showed.
    """
    out: list = [None] * len(loops)
    smallest = [math.inf] * len(loops)
    last = {}  # loop index -> (U, exponent, change) at the step count before
    active = list(range(len(loops)))
    n = _FIRST_STEPS
    while active and n <= _STEP_CAP:
        us, exps, ok, drive_ok = _product(params, [loops[k] for k in active], n, eigen)
        still = []
        for k, u, e, good, finite in zip(active, us, exps, ok, drive_ok):
            if not finite:  # the same at every step count
                out[k] = NonFiniteError(f"the drive (a, g) overflows float64 on {loops[k]}")
                continue
            if not good:
                if not eigen:
                    last.pop(k, None)
                    still.append(k)
                continue  # the guard or the turn rules the eigenframe out
            before = last.get(k)
            last[k] = (u, e, math.inf)
            if before is not None:
                change = _change(u, e, before[0], before[1])
                last[k] = (u, e, change)
                smallest[k] = min(smallest[k], change)
                stalled = change > _STALL * before[2] and change <= _FLOOR_MAX
                if change <= _RICHARDSON * rel_tol or stalled:
                    frame = "eigen" if eigen else "bare"
                    out[k] = TraversalMap(u, float(e) * math.log(2.0), n, frame, change)
                    continue
            still.append(k)
        active = still
        n *= 2
    return out, smallest


def _change(u: np.ndarray, e: int, v: np.ndarray, f: int) -> float:
    """max |U - V| / max |U| of the maps U 2^e and V 2^f (non-finite: inf)."""
    with np.errstate(all="ignore"):
        d = np.max(np.abs(u - v * np.ldexp(1.0, f - e))) / np.max(np.abs(u))
    return float(d) if np.isfinite(d) else math.inf


def _columns(loops: Sequence[LoopSpec]) -> SimpleNamespace:
    """The loops' constants as (m, 1) columns under ``LoopSpec``'s attribute names.

    ``loops._motion_at`` then evaluates every loop at once, each element by
    the operations it does for one loop, so with that loop's bits.
    """
    def column(values):
        return np.array(values, dtype=float)[:, None]

    return SimpleNamespace(
        center=SimpleNamespace(
            omega=column([x.center.omega for x in loops]), eps0=column([x.center.eps0 for x in loops])
        ),
        semi_axis_omega=column([x.semi_axis_omega for x in loops]),
        semi_axis_eps=column([x.semi_axis_eps for x in loops]),
        direction=SimpleNamespace(sign=column([x.direction.sign for x in loops])),
        duration_T=column([x.duration_T for x in loops]),
        start_phase=column([x.start_phase for x in loops]),
    )


def _drive(params: SystemParams, loops: SimpleNamespace, times: np.ndarray):
    """(a, g, a', g', finite) of each loop at its row of ``times`` (m, s).

    (a, g) is ``model._traceless`` at the contour point and (a', g') is
    ``model._traceless_drive`` at its velocity (``loops._motion_at``).
    ``finite`` (m,) is False for a loop whose a^2 + g^2 overflows.
    """
    omega, eps0, omega_dot, eps0_dot = _motion_at(loops, times)
    a, g = _traceless(params, omega, eps0)
    a_dot, g_dot = _traceless_drive(params, omega_dot, eps0_dot)
    return a, g, a_dot, g_dot, np.isfinite(a * a + g * g).all(axis=1)


class _Phase:
    """The eigenframe's continuation along a loop's samples, block after block.

    lam is the root of a^2 + g^2 nearer the one before (a cumulative parity
    on the principal roots). th is closed form at both ends, e^{2 i th} =
    (a + i g)/lam, which fixes it up to a multiple of pi; th_T takes the
    multiple nearest th_0 plus the Gauss quadrature of th' over the steps
    (an integer, so the quadrature's rounding cannot reach U's bits).
    ``ok`` turns False where a sample meets the EP guard.
    """

    def __init__(self, a: np.ndarray, g: np.ndarray) -> None:
        w2 = a * a + g * g
        self.ok = 4.0 * np.abs(w2) > _EP_GUARD
        self.root = np.sqrt(w2)
        self.parity = np.zeros(len(a), dtype=np.int64)
        self.z = self.z0 = (a + 1j * g) / self.root
        self.turned = np.zeros(len(a))  # Re of the integral of th' so far

    def follow(self, a: np.ndarray, g: np.ndarray) -> tuple:
        """(lam, a^2 + g^2) at the next block of samples (m, s)."""
        w2 = a * a + g * g
        self.ok &= (4.0 * np.abs(w2) > _EP_GUARD).all(axis=1)
        root = np.sqrt(w2)
        before = np.concatenate([self.root[:, None], root[:, :-1]], axis=1)
        flips = root.real * before.real + root.imag * before.imag < 0.0
        parity = (self.parity[:, None] + np.cumsum(flips, axis=1)) & 1
        lam = root * (1.0 - 2.0 * parity)
        self.root, self.parity = root[:, -1], parity[:, -1]
        self.z = (a[:, -1] + 1j * g[:, -1]) / lam[:, -1]
        return lam, w2

    def turn(self, th_dot: np.ndarray, h: np.ndarray) -> None:
        """Add the block's Gauss quadrature of Re th' (two samples per step, weights h/2)."""
        self.turned += 0.5 * h[:, 0] * th_dot.real.sum(axis=1)

    def rotations(self) -> tuple:
        """R(th_0) and R(th_T) as (cos, sin) pairs."""
        th0 = 0.5 * np.angle(self.z0) - 0.5j * np.log(np.abs(self.z0))
        base = 0.5 * np.angle(self.z)
        turns = np.rint((th0.real + self.turned - base) / math.pi)
        th_t = base + math.pi * turns - 0.5j * np.log(np.abs(self.z))
        return [(np.cos(th), np.sin(th)) for th in (th0, th_t)]


def _product(params: SystemParams, loops: Sequence[LoopSpec], n: int, eigen: bool):
    """(U (m, 2, 2), exponent (m,), ok (m,), finite drive (m,)) of n steps on each loop, in one frame.

    ok is False where U is not finite, and in the eigenframe where a sample
    meets the EP guard or the frame turns by more than ``_MAX_TURN`` in a
    step.
    """
    m = len(loops)
    columns = _columns(loops)
    h = columns.duration_T / n
    block = min(n, max(1, _BLOCK_STEPS // m))
    block = 1 << (block.bit_length() - 1)  # a power of two, so a block is a subtree
    ok = np.ones(m, dtype=bool)
    with np.errstate(all="ignore"):  # overflow and the guard are reported through ok
        a, g, _, _, finite = _drive(params, columns, np.zeros((m, 1)))
        phase = _Phase(a[:, 0], g[:, 0]) if eigen else None
        nodes, exps = [], []
        for start in range(0, n, block):
            steps = np.arange(start, start + block)[:, None] + np.array(_GAUSS)
            a, g, a_dot, g_dot, good = _drive(params, columns, steps.ravel() * h)
            finite &= good
            if eigen:  # K = [[-i lam, th'], [-th', i lam]]
                lam, w2 = phase.follow(a, g)
                th_dot = 0.5 * (a * g_dot - g * a_dot) / w2
                ok &= (np.abs(th_dot) * h <= _MAX_TURN).all(axis=1)
                phase.turn(th_dot, h)
                maps = _steps(-1j * lam, th_dot, -1.0, h)
            else:  # K = -i H0
                maps = _steps(-1j * a, -1j * g, 1.0, h)
            node, e = _tree(maps, np.zeros((m, block), dtype=np.int64))
            nodes.append(node)
            exps.append(e)
        u, e = _tree(np.stack(nodes, axis=-1), np.stack(exps, axis=-1))
        if eigen:
            a, g, _, _, good = _drive(params, columns, columns.duration_T)
            finite &= good
            phase.follow(a, g)
            (c0, s0), (c1, s1) = phase.rotations()
            r0, r1 = (np.array([[c, -s], [s, c]]) for c, s in ((c0, s0), (c1, s1)))
            u, e = _rescale(_mat(_mat(r1, u), r0.transpose(1, 0, 2)), e)
            ok &= phase.ok
        u = np.moveaxis(u, -1, 0)
        ok &= np.isfinite(u).all(axis=(1, 2))
    return u, e, ok, finite


def _steps(p: np.ndarray, q: np.ndarray, sign: float, h: np.ndarray) -> np.ndarray:
    """The step maps (2, 2, m, b) of the generators [[p, q], [sign q, -p]] at the Gauss points (m, 2 b).

    Both exponentials of every step are evaluated together, along an axis
    of length 2: the weights of the first applied, then of the second.
    """
    w = np.array([_W, _W[::-1]])[:, :, None, None]
    hp = h * (w[:, 0] * p[:, 0::2] + w[:, 1] * p[:, 1::2])
    hq = h * (w[:, 0] * q[:, 0::2] + w[:, 1] * q[:, 1::2])
    c, s = _cosh_sinhc(hp * hp + sign * (hq * hq))
    sp, sq = s * hp, s * hq
    factors = np.array([[c + sp, sq], [sign * sq, c - sp]])
    return _mat(factors[:, :, 1], factors[:, :, 0])


def _cosh_sinhc(zeta: np.ndarray) -> tuple:
    """(cosh sigma, sinh sigma / sigma) for sigma^2 = zeta; both are entire in zeta, 1 at 0.

    Where |zeta| <= 1 they are their power series in zeta, summed by Horner
    to the zeta^9 term (the next term is below 5e-19); elsewhere numpy's
    cosh and sinh of sigma.
    """
    c = np.full_like(zeta, _INV_FACTORIALS[2 * _SERIES_TERMS])
    s = np.full_like(zeta, _INV_FACTORIALS[2 * _SERIES_TERMS + 1])
    for k in range(_SERIES_TERMS - 1, -1, -1):
        c *= zeta
        c += _INV_FACTORIALS[2 * k]
        s *= zeta
        s += _INV_FACTORIALS[2 * k + 1]
    big = ~(np.abs(zeta) <= 1.0)
    if big.any():
        sigma = np.sqrt(zeta[big])
        c[big], s[big] = np.cosh(sigma), np.sinh(sigma) / sigma
    return c, s


def _mat(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 2x2 products x y of matrices stored entries first: x[i, j] is an array of entries (i, j)."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    for i in (0, 1):
        for k in (0, 1):
            np.multiply(x[i, 0], y[0, k], out=out[i, k])
            out[i, k] += x[i, 1] * y[1, k]
    return out


def _rescale(x: np.ndarray, e: np.ndarray) -> tuple:
    """x scaled by a power of two to a largest component in [0.5, 1), the power added to e."""
    _, shift = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(0, 1)))
    x *= np.ldexp(1.0, -shift)
    return x, e + shift


def _tree(x: np.ndarray, e: np.ndarray) -> tuple:
    """The time-ordered product over the last axis (a power of two long) in the fixed pairwise tree."""
    while x.shape[-1] > 1:
        x, e = _rescale(_mat(x[..., 1::2], x[..., 0::2]), e[..., 1::2] + e[..., 0::2])
    return x[..., 0], e[..., 0]
