"""Closed-form step products: the traversal map of a loop and the prefix maps of its rows.

i dc/dt = H(t) c is linear, so one traversal of a loop is one matrix: from
any initial state c0 the final state is U c0 times the trace factor
exp(-i int_0^T tr H / 2 dt), which the propagators also remove and restore
in closed form (``propagation``). U belongs to the traceless
H0 = [[a, g], [g, -a]] (``model._traceless``). It is nearly rank 1 on an
EP-encircling loop, which is the paper's "any initial state" ends in the
selected one. ``traversal_maps`` computes U for a batch of loops;
``eigen_rows`` gives the adiabatic route (``propagation``) U from t = 0
to each of its rows, and ``branch_frames`` gives branch tracking and the
phase integrals the eigenframe itself at uniform samples.

Step. n uniform steps of length h = T/n, each the 4th-order
commutator-free Magnus step with two exponentials at the Gauss points
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sec. 5; Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011)). Every generator here is a
traceless 2x2 matrix M = [[p, q], [r, -p]], and M^2 = sigma^2 I with
sigma^2 = p^2 + q r, so each exponential is closed form:

    exp(M) = cosh(sigma) I + sinh(sigma)/sigma M    (1 at sigma = 0).

Frames. The eigenframe b = R(th)^T c, R(th) = [[cos th, -sin th],
[sin th, cos th]], has the generator K = [[-i lam, th'], [-th', i lam]],
where lam = +/-sqrt(a^2 + g^2) starts on the '+' root (Re >= 0, tie
Im >= 0) and is continued along the samples by the nearer sign, and
th' = (a g' - g a')/(2 (a^2 + g^2)). At t = 0 and at each interval end
e^{2 i th} = (a + i g)/lam, with lam continued from the sample before; th
takes the multiple of pi nearest th_0 plus the Gauss quadrature of th' up
to there. The e^29 growth of the diode loop (criterion 04b) sits on K's
diagonal there, so each coefficient keeps its own relative precision, and
U = R(th_T) U_b R(th_0)^T. ``branch_frames`` takes the same root and angle
at uniform samples for branch tracking; it judges a sample by the overlap
of adjacent frames (``_AMBIGUITY``), not by the turn rule below.
The eigenframe is unresolved at a step count where the frame turns by
more than half a radian in one step (|th'| h > 1/2: an EP on or near the
contour that the steps do not resolve; through an EP the eigenframe
product converges to a wrong map), or where the quadrature of th' lands
more than a quarter turn (pi/4) from a multiple of pi at an interval end,
so that lam and the frame disagree on the branch. A sample on the EP
(``model._on_ep``: t = 0 or a Gauss point; the interval ends are read
before any step, ``_batch``) rules the eigenframe out at that step count.
``traversal_maps`` then takes the bare frame, K = -i H0, with the same
closed form, as it does when the eigenframe does not settle (below); that
depends on the loop alone.

Steps and floor. One loop, ``_settle``, doubles n from 256 in one frame
and compares U with the one before: the change is max |U_n - U_{n/2}| /
max |U_n| on the common scale. For a 4th-order product the change is 15
times the error of U_n (Richardson), so the doubling stops when change / 15
is at most ``rel_tol``; or, at a change of at most ``_FLOOR_MAX``, when the
change shrank less than 8-fold over the last doubling where a 4th-order
step shrinks it 16-fold: rounding, not the step, sets it there. Either way
the last change is reported with U as the loop's floor. The step is
symmetric, so U's error expands in even powers of h (Hairer, Lubich &
Wanner, Geometric Numerical Integration, ch. II), and R_n = (16 U_n -
U_{n/2}) / 15, formed as U_n + (U_n - U_{n/2}) / 15, is a 6th-order map
from the two counts at hand. Where U's rules do not stop a map (one
interval), R does: when R's change over the doubling, divided by 63, is at
most ``rel_tol`` and has shrunk at least 32-fold since the doubling before
(an h^6 error shrinks it 64-fold). R is reported, rescaled, with its
change undivided as the floor: where rounding sets R's change, the 63rd
part understates the error (38-fold on the README sweep's CW cell T = 375,
amp_scale 0.7643). The shrink asks for four resolved counts in a row, so R
stops a map at 2048 steps at the earliest; a first change of R can be
small by chance (perfbench's CCW sweep cell T = 300, amp_scale 1.3: 6.2e-11
after the division at 1024 steps, where R is 7.9e-9 off). The rows of
``eigen_rows`` keep U's rules: their prefix maps are U_n's, 4th order at the
settled count. A change that stalls above ``_FLOOR_MAX`` will not settle:
the frame stops there. Each of these stops only at a step count where every
step is resolved (|sigma^2| <= 1 for both exponentials; R asks it of both
its counts): an unresolved step's change can be small by
chance (the README diode config with e1 = 18 changes by 1.3e-9 from 256 to
512 steps and by 4.1e-7 from 512 to 1024). Past ``_STEP_CAP`` steps the
frame has not settled either; the cap alone bounds the doubling, a step
count whose map overflows included. A map's eigenframe falls back: it
leaves a loop to the bare frame where it is ruled out, stalls or meets the
cap. The bare frame and the adiabatic route have no fallback: they double on
past an unresolved frame or a map that is not finite, and raise what ends
them, with one message per condition.

Bits. Every operation is elementwise over (loops, steps) arrays or runs
along one loop's steps, so a loop's U is the same bits alone and in any
batch; so is what ``_settle`` takes once for all its step counts
(``_batch``: the drive at t = 0, the frame's start, R(th_0), the interval ends).
The steps are multiplied in a fixed pairwise tree (step 2k+1 times
step 2k, level by level), each node rescaled by a power of two to a largest
component in [0.5, 1); the exponents add up exactly into the map's ``exponent``.
Steps are evaluated in blocks of a power-of-two length, so memory stays
bounded, and a block is a subtree of the same tree, so the block length
changes no bit. A block's arrays are written into one workspace per
``_settle`` call (``_Work``) by the same operations, so they keep their bits. The rows' prefix maps take the tree over each row interval
and an inclusive Hillis-Steele scan (Commun. ACM 29, 1170 (1986)) over the
intervals, rescaled the same way. Level d of the scan multiplies each
element by the one d before it, so for a power-of-two number of intervals
its last element takes, level by level, the very products of the tree: it
is the tree over all steps, with its bits. ``_settle`` therefore reads the
map off that last element at every step count, and the rows of
``eigen_rows`` take the settled count's scan, so that count runs one
product pass. A map's one interval is both. One ``_rotate`` takes an
eigenframe product P_j to the bare frame, R(th_j) P_j R(th_0)^T rescaled,
for the map at T and, once per loop, for every row, so the last row is the
map's bits.
``_mat`` forms the products of every entry at once by broadcasting: each
element still gets the same two products and the same sum, in the same
order, so the same bits.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousTrackingError, EPOnContourError, EpdynError, NonFiniteError, StepBudgetError
from .loops import LoopSpec, _Contour, _contour, _contours, _motion_at, _samples, _traceless_at
from .model import (
    SystemParams, _angle, _complex, _ep_contact, _gauge, _on_ep, _root_plus, _traceless, _traceless_drive, locate_ep,
)

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
#: A map settles on R_n = (16 U_n - U_{n/2}) / 15 too, a 6th-order map: its change
#: over one doubling is 2^6 - 1 = 63 times its error, and it shrinks 64-fold from
#: one doubling to the next; R stops a map only after it shrank at least 32-fold.
_RICHARDSON_6 = 63.0
_SHRINK_6 = 1.0 / 32
#: The largest change at which a stalled doubling counts as the float64 floor
#: (above it U has no three digits; the diode loop passes it near T = 435).
_FLOOR_MAX = 1e-3
#: The largest turn |th'| h of the eigenframe in one step: an EP on or near
#: the contour that the steps do not resolve turns it by more.
_MAX_TURN = 0.5
#: The largest distance, in turns of pi, of th_0 plus the quadrature of th'
#: from the multiple of pi that the closed form at an interval end allows.
_MAX_MISMATCH = 0.25
#: Steps evaluated at once over all loops of a batch (bounds the memory).
_BLOCK_STEPS = 2**13
#: The complex values per step and loop of a block that a ``_Work`` holds: the
#: most a block's arrays take at once (23), with room to spare.
_WORK_VALUES = 28
#: A ``_Work`` hands out whole lines of this many bytes.
_LINE = 64
#: The most loops a sweep passes to one ``_maps`` call: the most whose first
#: step count still runs as one block, which also bounds a batch's tree nodes.
_BATCH_LOOPS = _BLOCK_STEPS // _FIRST_STEPS
#: A sample's pairing is ambiguous when the c-product with the other slot's
#: vector before exceeds this fraction of the one with its own.
_AMBIGUITY = 0.9
#: The largest |dth| up to which that cannot happen: there |sin dth| < 0.74 |cos dth|.
_TURN_UNAMBIGUOUS = 0.5
# the exponentials' power series in zeta = sigma^2, up to zeta^_SERIES_TERMS
_SERIES_TERMS = 9
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(2 * _SERIES_TERMS + 2))


class TraversalMap(NamedTuple):
    """The map of one traversal: the traceless dynamics take c0 to U c0 2^exponent = U c0 e^log_scale.

    ``U`` is scaled to a largest component in [0.5, 1) and ``exponent`` is
    the integer power of two the products' rescales add up to. ``steps`` is
    the step count of the reported U, ``frame`` is "eigen" or "bare", and
    ``floor`` the normalized change at the last doubling of what is
    reported: U_n's, or for a map that stopped on the extrapolated pair
    R_n's, undivided (see the module docstring).
    """

    U: np.ndarray
    exponent: int
    steps: int
    frame: str
    floor: float

    @property
    def log_scale(self) -> float:
        """exponent ln 2, the natural log of U's scale."""
        return self.exponent * math.log(2.0)


def traversal_maps(
    params: SystemParams, loops: Sequence[LoopSpec], rel_tol: float
) -> list[TraversalMap]:
    """The traversal map of each loop (see the module docstring).

    Raises
    ------
    ValueError
        If a loop's duration is so small that its steps T/n are subnormal.
    NonFiniteError
        If the drive overflows float64 along a loop.
    StepBudgetError
        If a loop's bare frame has not settled at ``_STEP_CAP`` steps, or
        stalled above ``_FLOOR_MAX``.
    """
    maps = _maps(params, loops, rel_tol)
    for m in maps:
        if isinstance(m, Exception):
            raise m
    return maps


def _too_short(drive):
    """The ``ValueError`` of a drive whose steps T/n are subnormal at the cap, else None.

    The one duration limit of the uniform steps, which the maps (``table1``,
    the sweep) and the adiabatic route's rows share.
    """
    T = drive.duration_T
    if T / _STEP_CAP >= sys.float_info.min:
        return None
    return ValueError(f"duration_T = {T:.3g}: duration_T is too small, its steps T/n are subnormal")


def _maps(params: SystemParams, loops: Sequence[LoopSpec], rel_tol: float) -> list:
    """``traversal_maps`` with each loop's error in its place; the bare frame takes what the eigenframe leaves."""
    out: list = [_too_short(loop) for loop in loops]
    for eigen in (True, False):
        left = [k for k, m in enumerate(out) if m is None]
        drives = [loops[k] for k in left]
        maps = _settle(params, drives, _batch(params, drives, eigen), rel_tol, 1)[0] if left else []
        for k, m in zip(left, maps):
            out[k] = m
    return out


def eigen_rows(params: SystemParams, drive, rel_tol: float, n_output: int):
    """U from t = 0 to each row of the adiabatic route, in the bare frame (see the module docstring).

    The full-loop map settles first (``_settle`` over the n_output row
    intervals on a ``_Batch`` whose interval ends are the row scan's); the
    rows are then every (2^k)-th step end of the smallest n_output * 2^k
    steps at or above that count. Where that is the settled
    count, the rows take its prefix scan; a finer count runs again on the
    batch. ``_rotate`` takes the scan to the bare frame. Returns (the settled
    ``TraversalMap``, the row step count, the row times, the maps U(t_j)
    (N + 1, 2, 2) rescaled as ``_rotate`` leaves them, row 0 the identity,
    and their exponents (N + 1, 2), U(t_j) = maps[j] 2^exponents[j], one
    exponent for both columns).

    Raises
    ------
    ValueError
        If the drive's duration is so small that its steps T/n are subnormal
        (before any step).
    MemoryError
        If the n_output + 1 row times do not fit in an array (before any step).
    EPOnContourError, NonFiniteError
        If a row time or, for a ``LoopSpec``, the contour point at the EP's
        own ellipse angle is on the EP or past float64 (one
        ``loops._traceless_at`` scan before any step), or a sample of the
        steps is.
    AmbiguousTrackingError
        If the frame is unresolved at every step count up to the cap.
    StepBudgetError
        If the map stalls above ``_FLOOR_MAX``, or does not settle (or
        overflows float64 at the last step count) up to the cap, or a row's
        map overflows float64.
    """
    error = _too_short(drive)
    if error is not None:
        raise error
    times = _samples(drive.duration_T, n_output)
    t_ep = _ep_time(params, drive)
    scan = _traceless_at(params, drive, times if t_ep is None else np.append(times, t_ep))  # raises before any step
    batch = _batch(params, [drive], True, np.stack(scan[:3])[None, :, 1:n_output + 1])
    (tmap,), run, (x, e) = _settle(params, [drive], batch, rel_tol, n_output)
    if isinstance(tmap, EpdynError):
        raise tmap
    n = n_output
    while n < tmap.steps:
        n *= 2
    if n != tmap.steps:  # the rows take a finer step count
        run = _intervals(params, batch, n, n // n_output, _block_work(1))
        error = _ruled_out(run, 0, drive, n)
        if error or not run.smooth[0]:
            raise error or AmbiguousTrackingError(f"the eigenframe of {drive} is unresolved at {n} steps")
        with np.errstate(all="ignore"):
            x, e = _scan(run.x, run.e)
    x, e = _rotate(run, x, e)
    maps = np.concatenate([np.eye(2, dtype=complex)[:, :, None], x[:, :, 0]], axis=-1).transpose(2, 0, 1)
    if not np.isfinite(maps).all():
        raise StepBudgetError(f"the eigenframe map of {drive} overflows float64 at {n} steps")
    return tmap, n, times, maps, np.repeat(np.concatenate([[0], e[0]])[:, None], 2, axis=1)


def _ep_time(params: SystemParams, drive):
    """The time of the contour point at the EP's own ellipse angle, the one point of a loop that can be the EP.

    None for a ``StaticDrive``, and for a model whose ``locate_ep`` finds
    no finite EP on the eps0 >= 0 side: it has none to meet.
    """
    if not isinstance(drive, LoopSpec):
        return None
    try:
        ep = locate_ep(params).field
    except EpdynError:
        return None
    c = _contour(drive)
    th = math.atan2((ep.eps0 - c.cy) / c.ay, (ep.omega - c.cx) / c.ax)
    return c.T * ((th - c.th0) / (c.sign * 2.0 * math.pi) % 1.0)


def _verdict(change: float, before: float, resolved: bool, rel_tol: float,
             extrapolated: float = math.inf, extrapolated_before: float = math.inf):
    """'settled', 'extrapolated', 'stalled' (above ``_FLOOR_MAX``) or None (double on); only a resolved count stops.

    ``change`` and ``before`` are U's changes over this doubling and the one
    before, ``extrapolated`` and ``extrapolated_before`` the extrapolated
    map's (inf where it was not formed). U's two rules come first, so where
    they stop a map it keeps U's bits.
    """
    if not resolved:
        return None
    stalled = change > _STALL * before
    if change <= _RICHARDSON * rel_tol or (stalled and change <= _FLOOR_MAX):
        return "settled"
    if stalled:
        return "stalled"
    # the chain also asks for a change before: an infinite one shows no shrinking
    if extrapolated <= _RICHARDSON_6 * rel_tol and extrapolated <= _SHRINK_6 * extrapolated_before < math.inf:
        return "extrapolated"
    return None


class _Count(NamedTuple):
    """What ``_settle`` keeps of a drive's last step count.

    U 2^e; whether its steps are resolved; U's change over the doubling to
    it (inf where it shows no stall: the first count, or an unresolved one);
    for a map, the extrapolated R 2^e (None where not formed) and R's
    change over the doubling (inf where not formed).
    """

    u: np.ndarray
    e: int
    resolved: bool
    change: float = math.inf
    r: np.ndarray | None = None
    r_change: float = math.inf


def _settle(params: SystemParams, drives: Sequence, batch: "_Batch", rel_tol: float, intervals: int) -> tuple:
    """Double each drive's steps in one frame until its map settles (see the module docstring).

    Each step count runs ``intervals`` intervals (1 for a map, the rows' for
    the adiabatic route) where they are a power of two that divides it, else
    one, and takes the map off their prefix scan. Only a map, of one
    interval, may also stop on the extrapolated pair. A map in the
    eigenframe falls back: a drive whose frame is ruled out, stalls or meets
    the cap ends with None, for the bare frame to take. The bare frame and
    the rows double on past an unresolved frame or a map that is not finite,
    up to the cap, and each stop but a settled map is the drive's error.
    ``batch`` holds, in its frame, what no step count changes (``_batch``);
    each count reads the rows of the drives still doubling. Returns each
    drive's map, error or None, and the ``_Run`` and scan of the last step
    count: for one drive, the count that settles it.
    """
    eigen = batch.origin is not None
    what = "eigenframe" if eigen else "traversal"
    frame = "eigen" if eigen else "bare"
    extrapolate = intervals == 1  # the rows' prefix maps are 4th order at the settled count
    fallback = eigen and extrapolate  # the bare frame stands behind a map's eigenframe
    out: list = [None] * len(drives)
    last = {}  # drive index -> _Count at the step count before
    ending = {}  # drive index -> (error type, reason) if the cap ends it

    def end(k: int, kind: type, reason: str) -> None:
        out[k] = None if fallback else kind(f"the {what} map of {drives[k]} {reason}")

    active, n, run, scan = list(range(len(drives))), _FIRST_STEPS, None, None
    work = _block_work(len(drives))
    while active and n <= _STEP_CAP:
        every = n // intervals if n % intervals == 0 and intervals & (intervals - 1) == 0 else n
        run = _intervals(params, batch if len(active) == len(drives) else _take(batch, active), n, every, work)
        with np.errstate(all="ignore"):  # overflow shows as a map that is not finite
            scan = _scan(run.x, run.e)  # its last element is the tree over the intervals
        u, e = scan[0][..., -1:], scan[1][..., -1:]
        if eigen:
            u, e = _rotate(run, u, e)
        still = []
        for i, k in enumerate(active):
            error = _ruled_out(run, i, drives[k], n)
            if error is not None:  # with a fallback, a sample on the EP leaves the drive to the other frame
                out[k] = None if fallback and run.finite[i] else error
                continue
            uk, ek = u[:, :, i, 0], int(e[i, 0])
            if not (run.smooth[i] and np.isfinite(uk).all()):
                last.pop(k, None)
                ending[k] = ((StepBudgetError, f"overflows float64 at every step count up to {_STEP_CAP}: no step fits")
                             if run.smooth[i] else
                             (AmbiguousTrackingError, f"is unresolved at every step count up to {_STEP_CAP}"))
                if not fallback:
                    still.append(k)
                continue
            before = last.get(k)
            resolved = bool(run.resolved[i])
            ending[k] = (StepBudgetError, f"has not settled at {_STEP_CAP} steps")
            count = _Count(uk, ek, resolved)
            if before is not None:
                change = _change(uk, ek, before.u, before.e)
                r, r_change = None, math.inf
                if extrapolate and resolved and before.resolved:
                    with np.errstate(all="ignore"):
                        r = uk + (uk - before.u * np.ldexp(1.0, before.e - ek)) / _RICHARDSON
                    if before.r is not None:
                        r_change = _change(r, ek, before.r, before.e)
                verdict = _verdict(change, before.change, resolved, rel_tol, r_change, before.r_change)
                if verdict == "settled":
                    out[k] = TraversalMap(uk, ek, n, frame, change)
                    continue
                if verdict == "extrapolated":
                    r, er = _rescale(r, ek, _Work())
                    out[k] = TraversalMap(r, int(er), n, frame, r_change)
                    continue
                if verdict == "stalled":
                    end(k, StepBudgetError, f"does not settle in float64: its change stalled at {change:.1e} at {n} steps")
                    continue
                # an unresolved change shows no stall
                count = _Count(uk, ek, resolved, change if resolved else math.inf, r, r_change)
            last[k] = count
            still.append(k)
        active = still
        n *= 2
    for k in active:
        end(k, *ending[k])
    return out, run, scan


def _ruled_out(run: "_Run", i: int, drive, n: int):
    """The error where drive i of ``run`` overflows float64 or, at n steps, has a sample on the EP; else None."""
    if not run.finite[i]:  # the same at every step count
        return NonFiniteError(f"the drive (a, g) overflows float64 on {drive}")
    if not run.clear[i]:
        return EPOnContourError(f"a sample of {drive} at {n} steps comes within the EP: {_ep_contact()}")
    return None


def _change(u: np.ndarray, e: int, v: np.ndarray, f: int) -> float:
    """max |U - V| / max |U| of the maps U 2^e and V 2^f (non-finite: inf)."""
    with np.errstate(all="ignore"):
        d = np.max(np.abs(u - v * np.ldexp(1.0, f - e))) / np.max(np.abs(u))
    return float(d) if np.isfinite(d) else math.inf


def _drive(params: SystemParams, contours: _Contour, times: np.ndarray):
    """(a, g, a', g', w2, finite) of each drive of a ``loops._contours`` batch at its row of ``times`` (m, s).

    (a, g) is ``model._traceless`` at the contour point and (a', g') is
    ``model._traceless_drive`` at its velocity (``loops._motion_at``).
    w2 is a^2 + g^2, and ``finite`` (m,) is False for a loop where it overflows.
    """
    omega, eps0, omega_dot, eps0_dot = _motion_at(contours, times)
    a, g = _traceless(params, omega, eps0)
    a_dot, g_dot = _traceless_drive(params, omega_dot, eps0_dot)
    w2 = a * a + g * g
    return a, g, a_dot, g_dot, w2, np.isfinite(w2).all(axis=1)


class _Origin(NamedTuple):
    """The eigenframe of each drive (m,) at t = 0, where ``_Phase`` starts (``_origin``)."""

    lam0: np.ndarray  # the '+' root of a^2 + g^2
    root: np.ndarray  # numpy's root; ``_Phase.follow`` counts its flips from lam0, its negative at a tie
    parity: np.ndarray  # lam0 != root
    z0: np.ndarray  # e^{2 i th_0} = (a + i g) / lam0
    th0: np.ndarray  # th_0, with R(th_0) as its cosine and sine
    cos0: np.ndarray
    sin0: np.ndarray


def _origin(a: np.ndarray, g: np.ndarray, w2: np.ndarray) -> _Origin:
    """The ``_Origin`` of drives whose t = 0 sample is (a, g), w2 = a^2 + g^2."""
    lam0 = _root_plus(w2)
    root = np.sqrt(w2)
    z0 = (a + 1j * g) / lam0
    th0 = _angle(z0)
    return _Origin(lam0, root, lam0 != root, z0, th0, np.cos(th0), np.sin(th0))


class _Phase:
    """The eigenframe's continuation along a loop's samples, block after block.

    lam is the root of a^2 + g^2 nearer the one before (a cumulative parity
    on the principal roots), the '+' root at t = 0. th is closed form at
    t = 0 and at the interval ends (every ``every`` steps), e^{2 i th} =
    (a + i g)/lam, which fixes it up to a multiple of pi; the multiple is
    the one nearest th_0 plus the Gauss quadrature of th' up to there (an
    integer, so the quadrature's rounding cannot reach a map's bits).
    ``smooth`` turns False where the frame turns by more than ``_MAX_TURN``
    in a step or the quadrature misses the closed form by more than
    ``_MAX_MISMATCH`` turns.
    """

    def __init__(self, origin: _Origin, every: int) -> None:
        self.every = every
        self.lam0, self.root, self.parity, self.z0, self.th0, self.cos0, self.sin0 = origin
        self.smooth = np.ones(len(self.lam0), dtype=bool)
        self.turned = np.zeros(len(self.lam0))  # Re of the integral of th' so far
        self.marks = []  # (lam at the sample before, turned) at the interval ends of each block

    def follow(self, w2: np.ndarray) -> np.ndarray:
        """lam at the next block of samples (m, s), where a^2 + g^2 is w2."""
        root = np.sqrt(w2)
        before = np.concatenate([self.root[:, None], root[:, :-1]], axis=1)
        flips = root.real * before.real + root.imag * before.imag < 0.0
        parity = (self.parity[:, None] + np.cumsum(flips, axis=1)) & 1
        self.root, self.parity = root[:, -1], parity[:, -1]
        return root * (1.0 - 2.0 * parity)

    def turn(self, th_dot: np.ndarray, h: np.ndarray, lam: np.ndarray, start: int) -> None:
        """Check the block's turns and add its Gauss quadrature of Re th' (weights h/2 per sample).

        The block's first step is step ``start`` of the loop.
        """
        self.smooth &= (np.abs(th_dot) * h <= _MAX_TURN).all(axis=1)
        turned = self.turned[:, None] + np.cumsum(0.5 * h * (th_dot.real[:, 0::2] + th_dot.real[:, 1::2]), axis=1)
        self.turned = turned[:, -1]
        ends = np.flatnonzero((start + 1 + np.arange(turned.shape[1])) % self.every == 0)
        if ends.size:
            self.marks.append((lam[:, 2 * ends + 1], turned[:, ends]))

    def rotations(self, a: np.ndarray, g: np.ndarray, w2: np.ndarray) -> tuple:
        """R(th_0) and R(th) at the interval ends, where the drive is (a, g) (m, N), as (cos, sin) pairs.

        w2 is a^2 + g^2 there; the root there is the one nearer the sample before.
        """
        before, turned = (np.concatenate(column, axis=1) for column in zip(*self.marks))
        root = np.sqrt(w2)
        z = (a + 1j * g) / np.where(root.real * before.real + root.imag * before.imag < 0.0, -root, root)
        base = 0.5 * np.angle(z)
        k = (self.th0.real[:, None] + turned - base) / math.pi
        turns = np.rint(k)
        self.smooth &= (np.abs(k - turns) <= _MAX_MISMATCH).all(axis=1)
        th = base + math.pi * turns - 0.5j * np.log(np.abs(z))
        return (self.cos0, self.sin0), (np.cos(th), np.sin(th))


def branch_frames(params: SystemParams, drive, times: np.ndarray) -> tuple:
    """The eigenframe continued along ``times`` (from 0): (a, lam, th, signs).

    At each time a is the traceless drive term (``loops._traceless_at``),
    lam the root of a^2 + g^2 continued by ``_Phase.follow`` (the '+' root
    at t = 0) and th the frame angle, e^{2 i th} = (a + i g)/lam, at the
    multiple of pi nearest th before. Slot 0 holds the energy tr(H)/2 + lam
    and the vector signs[0] (cos th, sin th), slot 1 tr(H)/2 - lam and
    signs[1] (-sin th, cos th); ``signs`` is the gauge of the t = 0 frame
    (``model._gauge``). Between adjacent samples the c-products of these
    vectors are cos dth (same slot) and sin dth (other slot), so a sample
    pairs with the one before unless |sin dth| > ``_AMBIGUITY`` |cos dth|.
    Where |dth| <= 1/2 that cannot hold (|sin dth| < 0.74 |cos dth|;
    ``notes/decisions.md``, "Work that cannot change a bit, done once"), so
    the test runs only at the other samples. The samples are taken in one
    pass. A sample on the EP or past float64 anywhere raises first; then
    the first sample whose frame fails. Where the squares of (a, g)
    underflow, the scan's samples come scaled by a power of two
    (``loops._traceless_at``), which the frame does not see; a and lam are
    scaled back.

    Raises
    ------
    EPOnContourError, NonFiniteError
        If a sample is on the EP or past float64 (``loops._traceless_at``).
    NonFiniteError
        If the frame overflows float64.
    AmbiguousTrackingError
        If the sample's overlaps with the frame before are too close to call.
    """
    a, g, w2, shift = _traceless_at(params, drive, times)
    with np.errstate(all="ignore"):  # a frame that is not finite is reported below
        phase = _Phase(_origin(a[:1], g[:1], w2[:1]), 1)
        lam = np.concatenate([phase.lam0, phase.follow(w2[None, 1:])[0]])
        th = _angle((a + 1j * g) / lam)
        base = th.real
        # a zero count is +0.0 (0.0 +), so th + pi * count makes a -0.0 real part +0.0 at every sample after t = 0
        half_turns = 0.0 + np.cumsum(np.rint((base[:-1] - base[1:]) / np.pi))
        th[1:] += np.pi * half_turns
        turn = np.diff(th)
        wide = np.flatnonzero(~(np.abs(turn) <= _TURN_UNAMBIGUOUS))  # the only turns that can be ambiguous
        ambiguous = 1 + wide[np.abs(np.sin(turn[wide])) > _AMBIGUITY * np.abs(np.cos(turn[wide]))]
    signs = _gauge(phase.z0[0], np.cos(th[0]), np.sin(th[0]))
    bad = np.concatenate([np.flatnonzero(~np.isfinite(th)), ambiguous])
    if bad.size:
        k = bad.min()
        if not np.isfinite(th[k]):
            raise NonFiniteError("eigenframe overflows float64")
        overlaps = sorted(abs(f(th[k] - th[k - 1])) for f in (np.cos, np.sin))
        raise AmbiguousTrackingError(f"branch overlaps too close to call: {overlaps[1]:.3f} vs {overlaps[0]:.3f}")
    if shift.any():
        a, lam = (_complex(np.ldexp(z.real, shift), np.ldexp(z.imag, shift)) for z in (a, lam))
    return a, lam, th, signs


class _Work:
    """Scratch memory for the repeated arrays of one call: one flat byte buffer of ``size`` bytes, taken as a stack.

    A block's arrays are 128 KiB to 1 MiB at the largest blocks, where glibc
    maps each one fresh and unmaps or trims it again once it is freed, so
    every block faulted its pages in anew (``notes/decisions.md``, "A
    block's arrays stay mapped"); the trajectory writers' chunks did the
    same ("A file's text arrays stay mapped"). ``take`` gives the next free
    bytes as a contiguous array of any dtype, and leaving a
    ``with work.scope()`` block gives back what was taken in it, so a
    block's arrays reuse the buffer's pages. The same operations write the
    same bits there as into a fresh array. What does not fit is a fresh
    array, and so is everything taken from ``_Work()``, the workspace of no
    bytes, which the products whose results are kept take (the tree over
    the blocks' nodes, the scan, the rotations).
    """

    def __init__(self, size: int = 0) -> None:
        self.buffer = np.empty(-(-size // _LINE) * _LINE, dtype=np.uint8)
        self.flat: dict = {}  # the buffer viewed as each dtype taken
        self.top = 0  # the bytes taken
        self.marks: list = []

    def take(self, shape: tuple, dtype=complex) -> np.ndarray:
        """An array of ``shape`` on the next free whole lines of the buffer, or a fresh one past its end."""
        flat = self.flat.get(dtype)
        if flat is None:
            flat = self.flat[dtype] = self.buffer.view(dtype)
        start = self.top // flat.itemsize
        end = start + math.prod(shape)
        if end > flat.size:
            return np.empty(shape, dtype)
        self.top = -(-end * flat.itemsize // _LINE) * _LINE
        return flat[start:end].reshape(shape)

    def scope(self) -> "_Work":
        """The workspace as a context manager that gives back, on exit, what was taken since this call."""
        self.marks.append(self.top)
        return self

    def __enter__(self) -> "_Work":
        return self

    def __exit__(self, *exc) -> None:
        self.top = self.marks.pop()


def _block_work(loops: int) -> _Work:
    """The workspace of a ``_settle`` call over ``loops`` loops: a block holds at most max(_BLOCK_STEPS, loops) steps."""
    return _Work(_WORK_VALUES * max(_BLOCK_STEPS, loops) * np.dtype(complex).itemsize)


class _Run(NamedTuple):
    """What ``_intervals`` gives: interval products, checks and the eigenframe's rotations."""

    x: np.ndarray  # (2, 2, m, N) product of each interval's steps
    e: np.ndarray  # (m, N) its power-of-two exponent
    finite: np.ndarray  # (m,) the drive is finite at t = 0 and the Gauss points
    resolved: np.ndarray  # (m,) |sigma^2| <= 1 in every exponential
    clear: np.ndarray  # (m,) neither t = 0 nor a Gauss point is on the EP (eigenframe)
    smooth: np.ndarray  # (m,) the frame is resolved (eigenframe)
    rotations: tuple  # ((cos th_0, sin th_0) (m,), (cos th, sin th) (m, N)) (eigenframe)


class _Batch(NamedTuple):
    """Drives in one frame with what ``_intervals`` reads of them at every step count alike (``_batch``).

    Each array holds one row per drive; ``_take`` keeps the rows of the
    drives still doubling. The eigenframe's fields are None in the bare frame.
    """

    contours: _Contour  # ``loops._contours`` (m, 1)
    finite: np.ndarray  # (m,) the drive is finite at t = 0
    clear: np.ndarray | None = None  # (m,) t = 0 is not on the EP
    origin: _Origin | None = None  # where ``_Phase`` starts
    ends: np.ndarray | None = None  # (m, 3, N) (a, g, a^2 + g^2) at the N interval ends


def _batch(params: SystemParams, drives: Sequence, eigen: bool, ends: np.ndarray | None = None) -> _Batch:
    """The ``_Batch`` of the drives, in the eigenframe or the bare frame: the drive at t = 0, once.

    ``ends`` are the eigenframe's interval-end samples: the adiabatic rows'
    ``loops._traceless_at`` scan of row times 1..N (``eigen_rows``), which
    raises at a row on the EP or past float64; by default a map's one end,
    T, whose sample is the t = 0 one to the bit (``loops._angle`` reduces t/T
    mod 1). Each value is elementwise per drive, so a drive's row is the
    same bits in any batch, and ``_settle`` takes it once for all its counts.
    """
    contours = _contours(drives)
    with np.errstate(all="ignore"):  # overflow and the EP are reported in the runs
        a, g, _, _, w2, finite = _drive(params, contours, np.zeros((len(drives), 1)))
        if not eigen:
            return _Batch(contours, finite)
        ends = np.stack([a, g, w2], axis=1) if ends is None else ends
        return _Batch(contours, finite, ~_on_ep(a, g, w2)[:, 0], _origin(a[:, 0], g[:, 0], w2[:, 0]), ends)


def _take(x, rows: list):
    """``x`` at the drive rows ``rows``: an array's rows, a ``NamedTuple``'s fields each so, and None as None."""
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return x[rows]
    return type(x)(*(_take(field, rows) for field in x))


def _intervals(params: SystemParams, batch: _Batch, n: int, every: int, work: _Work) -> _Run:
    """The products of each run of ``every`` steps of n steps on each drive of the batch, in its frame.

    ``every`` is a power of two that divides n, and n / every divides the
    number N of the batch's ``ends``; the eigenframe's rotations take every
    (N every / n)-th of them, so the drive is read only at the Gauss points.
    Each block's arrays are taken from ``work``.
    """
    contours, finite, clear = batch.contours, batch.finite, batch.clear
    eigen = batch.origin is not None
    m = len(finite)
    h = contours.T / n
    block = min(n, max(1, _BLOCK_STEPS // m))
    block = 1 << (block.bit_length() - 1)  # a power of two, so a block is a subtree
    per = min(every, block)  # divides the block, n and every block start
    resolved = np.ones(m, dtype=bool)
    phase = _Phase(batch.origin, every) if eigen else None
    with np.errstate(all="ignore"):  # overflow and the EP are reported in the result
        nodes, exps = [], []
        for start in range(0, n, block):
            size = min(block, n - start)
            with work.scope():
                means = work.take((2, 2, m, size))  # (h p, h q) of both exponentials of every step
                steps = np.arange(start, start + size)[:, None] + np.array(_GAUSS)
                times = np.multiply(steps.ravel(), h, out=work.take((m, 2 * size), float))
                good, on_ep, sign = _block_means(params, contours, times, h, phase, start, means, work)
                finite = finite & good
                if eigen:
                    clear = clear & ~on_ep
                maps, small = _steps(*means, sign, work)
                resolved &= small.all(axis=(0, 2))
                shape = (m, size // per, per)
                node, e = _tree(maps.reshape(2, 2, *shape), np.zeros(shape, dtype=np.int64), work)
                nodes.append(node.copy())  # the next block takes its workspace again
                exps.append(e)
        shape = (m, n // every, every // per)
        x, e = _tree(np.concatenate(nodes, axis=-1).reshape(2, 2, *shape), np.concatenate(exps, axis=-1).reshape(shape),
                     _Work())
        if not eigen:
            return _Run(x, e, finite, resolved, np.ones(m, dtype=bool), np.ones(m, dtype=bool), ())
        stride = batch.ends.shape[-1] * every // n
        rotations = phase.rotations(*batch.ends[..., stride - 1::stride].transpose(1, 0, 2))
    return _Run(x, e, finite, resolved, clear, phase.smooth, rotations)


def _block_means(params: SystemParams, contours: _Contour, times: np.ndarray, h: np.ndarray,
                 phase: "_Phase | None", start: int, means: np.ndarray, work: _Work) -> tuple:
    """A block's (h p, h q) (2, 2, m, b) into ``means``, from the drive at its Gauss points ``times`` (m, 2 b).

    The generator is the eigenframe's K = [[-i lam, th'], [-th', i lam]],
    which ``phase`` follows from step ``start`` on, or without a phase the
    bare frame's K = -i H0. Returns whether each drive is finite there,
    whether a sample is on the EP (eigenframe; else None) and the sign of
    K's lower left entry against its upper right.
    """
    a, g, a_dot, g_dot, w2, finite = _drive(params, contours, times)
    if phase is None:
        _means(-1j * a, -1j * g, h, means, work)
        return finite, None, 1.0
    lam = phase.follow(w2)
    th_dot = 0.5 * (a * g_dot - g * a_dot) / w2
    phase.turn(th_dot, h, lam, start)
    _means(-1j * lam, th_dot, h, means, work)
    return finite, _on_ep(a, g, w2).any(axis=1), -1.0


def _rotate(run: _Run, x: np.ndarray, e: np.ndarray) -> tuple:
    """R(th_j) x_j R(th_0)^T of the eigenframe maps x (2, 2, m, k) at the last k interval ends, rescaled."""
    (c0, s0), (c1, s1) = run.rotations
    k = x.shape[-1]
    r0, r1 = (np.array([[c, -s], [s, c]]) for c, s in ((c0[:, None], s0[:, None]), (c1[:, -k:], s1[:, -k:])))
    work = _Work()
    with np.errstate(all="ignore"):  # overflow shows as a map that is not finite
        return _rescale(_mat(_mat(r1, x, work), r0.transpose(1, 0, 2, 3), work), e, work)


def _means(p: np.ndarray, q: np.ndarray, h: np.ndarray, out: np.ndarray, work: _Work) -> None:
    """(h p, h q) of both exponentials of every step into ``out`` (2, 2, m, b), from p and q at the Gauss points (m, 2 b).

    ``out`` holds h p, then h q, each with the exponentials along its first
    axis: the weights of the first applied, then of the second.
    """
    w = np.array([_W, _W[::-1]])[:, :, None, None]
    for x, mean in zip((p, q), out):
        np.multiply(w[:, 0], x[:, 0::2], out=mean)
        with work.scope():
            np.add(mean, np.multiply(w[:, 1], x[:, 1::2], out=work.take(mean.shape)), out=mean)
        np.multiply(h, mean, out=mean)


def _steps(hp: np.ndarray, hq: np.ndarray, sign: float, work: _Work) -> tuple:
    """The step maps (2, 2, m, b) of the exponentials of [[hp, hq], [sign hq, -hp]] (2, m, b).

    Both exponentials of every step are evaluated together, and the second
    is applied after the first. Also returns where their |sigma^2| <= 1 (2, m, b).
    """
    zeta = np.multiply(hp, hp, out=work.take(hp.shape))
    with work.scope():
        square = np.multiply(hq, hq, out=work.take(hq.shape))
        np.add(zeta, np.multiply(sign, square, out=square), out=zeta)
    factors = work.take((2, 2) + zeta.shape)  # [i, j, exponential, m, b]
    with work.scope():
        c, s, small = _cosh_sinhc(zeta, work)
        sp = np.multiply(s, hp, out=work.take(zeta.shape))
        np.add(c, sp, out=factors[0, 0])
        np.multiply(s, hq, out=factors[0, 1])
        np.multiply(sign, factors[0, 1], out=factors[1, 0])
        np.subtract(c, sp, out=factors[1, 1])
    return _mat(factors[:, :, 1], factors[:, :, 0], work), small


def _cosh_sinhc(zeta: np.ndarray, work: _Work) -> tuple:
    """(cosh sigma, sinh sigma / sigma, |zeta| <= 1) for sigma^2 = zeta; the first two are entire in zeta, 1 at 0.

    Where |zeta| <= 1 they are their power series in zeta, summed by Horner
    to the zeta^9 term (the next term is below 5e-19); elsewhere numpy's
    cosh and sinh of sigma. The mask is fresh, so it outlives ``work``'s scope.
    """
    c, s = work.take(zeta.shape), work.take(zeta.shape)
    c.fill(_INV_FACTORIALS[2 * _SERIES_TERMS])
    s.fill(_INV_FACTORIALS[2 * _SERIES_TERMS + 1])
    for k in range(_SERIES_TERMS - 1, -1, -1):
        c *= zeta
        c += _INV_FACTORIALS[2 * k]
        s *= zeta
        s += _INV_FACTORIALS[2 * k + 1]
    with work.scope():
        small = np.abs(zeta, out=work.take(zeta.shape, float)) <= 1.0
    if not small.all():
        big = ~small
        sigma = np.sqrt(zeta[big])
        c[big], s[big] = np.cosh(sigma), np.sinh(sigma) / sigma
    return c, s, small


def _mat(x: np.ndarray, y: np.ndarray, work: _Work) -> np.ndarray:
    """The 2x2 products x y of matrices stored entries first, taken from ``work``: x[i, j] is an array of entries (i, j).

    Entry (i, k) is x[i, 0] y[0, k] + x[i, 1] y[1, k]. The first products
    are broadcast over (i, k) at once, and so are the second, so each
    element gets the same two products and the same sum, in the same order,
    as one entry at a time. x and y have as many axes, each of one length
    or 1, so the product's shape is their larger lengths.
    """
    out = np.multiply(x[:, :1], y[:1], out=work.take(tuple(map(max, x.shape, y.shape))))
    with work.scope():
        return np.add(out, np.multiply(x[:, 1:], y[1:], out=work.take(out.shape)), out=out)


def _rescale(x: np.ndarray, e: np.ndarray, work: _Work) -> tuple:
    """x scaled by a power of two to a largest component in [0.5, 1), the power added to e."""
    with work.scope():
        parts = work.take((2, *x.shape), float)
        np.maximum(np.abs(x.real, out=parts[0]), np.abs(x.imag, out=parts[1]), out=parts[0])
        _, shift = np.frexp(parts[0].max(axis=(0, 1)))
    x *= np.ldexp(1.0, -shift)
    return x, e + shift


def _tree(x: np.ndarray, e: np.ndarray, work: _Work) -> tuple:
    """The time-ordered product over the last axis (a power of two long) in the fixed pairwise tree.

    Its levels are taken from ``work``.
    """
    while x.shape[-1] > 1:
        x, e = _rescale(_mat(x[..., 1::2], x[..., 0::2], work), e[..., 1::2] + e[..., 0::2], work)
    return x[..., 0], e[..., 0]


def _scan(x: np.ndarray, e: np.ndarray) -> tuple:
    """The inclusive time-ordered prefix products over the last axis (Hillis-Steele), each rescaled."""
    work = _Work()
    d = 1
    while d < x.shape[-1]:
        y, f = _rescale(_mat(x[..., d:], x[..., :-d], work), e[..., d:] + e[..., :-d], work)
        x = np.concatenate([x[..., :d], y], axis=-1)
        e = np.concatenate([e[..., :d], f], axis=-1)
        d *= 2
    return x, e
