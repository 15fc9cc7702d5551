"""Closed contours in the (omega, eps0) drive plane and their topology.

A loop is an ellipse traversed at uniform angular speed over duration T,
either clockwise (CW) or counter-clockwise (CCW). Whether the loop encircles
the exceptional point is measured two independent ways: geometrically through
the signed proximity ``rho`` and topologically through the winding number of
the discriminant around the complex origin.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import EPOnContourError, NonFiniteError, UndersampledError
from .model import (
    EPLocation,
    FieldPoint,
    SystemParams,
    _contact,
    _ep_contact,
    _require_finite,
    _pow2_scaled,
    _traceless,
    locate_ep,
)

__all__ = [
    "Direction",
    "LoopSpec",
    "StaticDrive",
    "field_at",
    "field_velocity",
    "winding_number",
    "rho",
    "contains_ep",
]


class Direction(enum.Enum):
    CW = "cw"
    CCW = "ccw"

    @property
    def sign(self) -> int:
        """Angular orientation: +1 for CCW, -1 for CW."""
        return 1 if self is Direction.CCW else -1


@dataclass(frozen=True)
class LoopSpec:
    """Elliptical contour center +/- (a*cos, b*sin) with direction and duration.

    The drive amplitude must stay physical (eps0 >= 0) along the whole
    contour, which requires center.eps0 >= semi_axis_eps. Equality is allowed
    and makes the loop touch eps0 = 0, where bare and adiabatic states
    coincide; that is the natural start/end point for pulse-like protocols.
    """

    center: FieldPoint
    semi_axis_omega: float
    semi_axis_eps: float
    direction: Direction
    duration_T: float
    start_phase: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "center.omega", "center.eps0", "semi_axis_omega",
                        "semi_axis_eps", "duration_T", "start_phase")
        if self.semi_axis_omega <= 0:
            raise ValueError("semi_axis_omega must be > 0")
        if self.semi_axis_eps <= 0:
            raise ValueError("semi_axis_eps must be > 0")
        if self.duration_T <= 0:
            raise ValueError("duration_T must be > 0")
        if math.isinf(2.0 * math.pi / self.duration_T):
            raise ValueError("duration_T is too small: the angular rate 2*pi/T overflows")
        if self.center.eps0 < self.semi_axis_eps:
            raise ValueError("center.eps0 must be >= semi_axis_eps (eps0 >= 0 on contour)")


@dataclass(frozen=True)
class StaticDrive:
    """Constant field held for a finite duration.

    The degenerate (zero-area) limit of a loop, exposed directly so constant
    drives do not need fake ellipse axes.
    """

    field: FieldPoint
    duration_T: float

    def __post_init__(self) -> None:
        _require_finite(self, "field.omega", "field.eps0", "duration_T")
        if self.duration_T <= 0:
            raise ValueError("duration_T must be > 0")


def _check_time(drive, t: float) -> None:
    """Raise ValueError unless t lies in [0, T]."""
    if not (0.0 <= t <= drive.duration_T):
        raise ValueError(f"t = {t} outside [0, {drive.duration_T}]")


#: A drive's constants: duration T, start phase th0, direction sign, centre (cx, cy)
#: and axes (ax, ay); floats for one drive, (m, 1) columns for a batch
#: (``_contours``). The generated direct run unpacks them in this order.
_Contour = namedtuple("_Contour", "T th0 sign cx ax cy ay")


def _contour(drive) -> _Contour:
    """The constants of a loop or static drive, the one reader of both.

    A ``StaticDrive`` is the contour with both axes -0.0 at the fixed angle 0
    (start phase 0.0, sign 0.0): cos 0 = 1.0 and sin 0 = 0.0 make each axis
    term -0.0, and x + -0.0 is x for every x, signed zeros included, so it
    gives the bits of the constant field and a zero velocity.
    """
    if isinstance(drive, StaticDrive):
        return _Contour(drive.duration_T, 0.0, 0.0, drive.field.omega, -0.0, drive.field.eps0, -0.0)
    return _Contour(drive.duration_T, drive.start_phase, drive.direction.sign, drive.center.omega,
                    drive.semi_axis_omega, drive.center.eps0, drive.semi_axis_eps)


def _contours(drives) -> _Contour:
    """The drives' ``_contour`` fields as (m, 1) columns, so one evaluation takes every drive with its bits."""
    return _Contour(*(np.array(column, dtype=float)[:, None] for column in zip(*map(_contour, drives))))


def _angle(c: _Contour, t):
    """Angle th0 + sign*2*pi*(t/T mod 1) at a time or an array of times.

    Reducing t/T mod 1 makes t = T reproduce t = 0 bit for bit.
    """
    return c.th0 + c.sign * 2.0 * np.pi * np.fmod(t / c.T, 1.0)


def _ellipse(c: _Contour, cos, sin):
    """Contour point (omega, eps0) at the angle with cosine ``cos`` and sine ``sin``, floats or arrays."""
    return c.cx + c.ax * cos, c.cy + c.ay * sin


def _velocity(c: _Contour, cos, sin):
    """Contour velocity (omega', eps0') at the angle with cosine ``cos`` and sine ``sin``, floats or arrays."""
    rate = c.sign * 2.0 * math.pi / c.T
    return -c.ax * sin * rate, c.ay * cos * rate


def field_at(loop: LoopSpec, t: float) -> FieldPoint:
    """Contour point at time t (a static drive's field): the floats of ``_fields_at``."""
    _check_time(loop, t)
    return FieldPoint(*map(float, _fields_at(loop, t)))


def field_velocity(loop: LoopSpec, t: float) -> tuple[float, float]:
    """Analytic time derivative of field_at, ``_motion_at``'s floats; scales as 1/T for fixed geometry."""
    _check_time(loop, t)
    return tuple(map(float, _motion_at(_contour(loop), t)[2:]))


def _fields_at(drive, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, eps0) arrays at ``times`` along a loop or static drive."""
    c = _contour(drive)
    th = _angle(c, times)
    return _ellipse(c, np.cos(th), np.sin(th))


def _motion_at(c: _Contour, times: np.ndarray) -> tuple:
    """(omega, eps0, omega', eps0') arrays at ``times`` along a contour or batch of them, from one angle.

    The bits of ``_fields_at`` and of ``field_velocity`` at each time.
    """
    th = _angle(c, times)
    cos, sin = np.cos(th), np.sin(th)
    return (*_ellipse(c, cos, sin), *_velocity(c, cos, sin))


def _omega_integral(drive, t: np.ndarray) -> np.ndarray:
    """Closed form of int_0^t omega(t') dt' at an array of times in [0, T]; a static drive's (sign 0) is cx * t."""
    c = _contour(drive)
    if not c.sign:
        return c.cx * t
    rate = c.sign * 2.0 * math.pi / c.T
    return c.cx * t + c.ax * ((np.sin(c.th0 + rate * t) - math.sin(c.th0)) / rate)


def _samples(T: float, n: int) -> np.ndarray:
    """The n + 1 uniform times over [0, T]; a count too large for an array raises MemoryError.

    numpy refuses some counts before it allocates anything, with a
    ValueError or an IndexError that names no argument; as a MemoryError
    such a count ends like one whose allocation fails.
    """
    try:
        return np.linspace(0.0, T, n + 1)
    except (ValueError, IndexError) as exc:
        raise MemoryError(f"{n + 1} samples do not fit in an array") from exc


def _traceless_at(params: SystemParams, drive, times: np.ndarray) -> tuple:
    """(a, g, a^2 + g^2, shift) of ``model._traceless`` at ``times``, (a, g) over 2^shift: the one scan of a drive.

    shift is 0 wherever |a|^2 + |g|^2 is a normal float. Where it is not,
    the squares have underflowed, and the sample's (a, g) is scaled by the
    power of two that puts its largest part in [0.5, 1)
    (``model._pow2_scaled``), so that a^2 + g^2 keeps its digits. Each use
    of the scan (the argument of a^2 + g^2, the frame angle, contact with
    the EP) is free of that scale. Raises at the first sample that is on
    the EP (``model._on_ep``: ``EPOnContourError``) or whose a^2 + g^2 is
    not finite (``NonFiniteError``), whichever comes first.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        a, g = _traceless(params, *_fields_at(drive, times))
        w2 = a * a + g * g
    on, low = _contact(a, g, w2)
    shift = np.zeros(len(times), dtype=int)
    if low is not None:
        pair, shift[low] = _pow2_scaled(np.stack([a[low], g[low]], axis=-1))
        a[low], g[low] = pair[:, 0], pair[:, 1]
        w2[low] = a[low] * a[low] + g[low] * g[low]
    bad = np.flatnonzero(on | ~np.isfinite(w2))
    if bad.size:
        k = bad[0]
        if np.isfinite(w2[k]):
            raise EPOnContourError(f"the contour point at t = {times[k]:.6g} of {drive} comes within the EP: "
                                   f"{_ep_contact(a[k], g[k])}")
        raise NonFiniteError(f"the drive (a, g) overflows float64 at t = {times[k]:.6g} of {drive}")
    return a, g, w2, shift


def winding_number(loop: LoopSpec, params: SystemParams, n_samples: int = 1024) -> int:
    """Integer winding of the discriminant around the complex origin.

    Accumulates the continuous argument of Delta = 4 (a^2 + g^2), which is
    that of a^2 + g^2, along one traversal. The result is -1 for a CCW loop
    enclosing the EP of this model (+1 for CW) and 0 otherwise; the sign
    convention follows from Delta circling the origin opposite to the
    parameter-space orientation here.

    Raises
    ------
    EPOnContourError, NonFiniteError
        At the first sample on the EP or past float64 (``_traceless_at``).
    UndersampledError
        If any adjacent-sample argument jump exceeds pi/2.
    """
    if n_samples < 64:
        raise ValueError("n_samples must be >= 64")
    _, _, w2, _ = _traceless_at(params, loop, _samples(loop.duration_T, n_samples))
    jumps = np.diff(np.angle(w2))
    jumps = (jumps + np.pi) % (2.0 * np.pi) - np.pi
    worst = float(np.max(np.abs(jumps)))
    if worst > 0.5 * np.pi:
        raise UndersampledError(
            f"argument jump {worst:.3f} rad > pi/2 between samples; raise n_samples"
        )
    total = float(np.sum(jumps))
    w = total / (2.0 * np.pi)
    w_int = round(w)
    # closed contour: the accumulated argument must come out an exact multiple
    if abs(w - w_int) > 1e-6:
        raise UndersampledError(f"winding accumulated to non-integer {w:.6f}")
    return int(w_int)


def rho(loop: LoopSpec, ep: EPLocation) -> float:
    """Signed EP-to-loop proximity in model units.

    r_hat is the elliptical radius of the EP in loop coordinates; rho =
    (1 - r_hat) * min(a, b) is positive when the EP lies strictly inside,
    zero on the contour, negative outside.
    """
    rx = (ep.field.omega - loop.center.omega) / loop.semi_axis_omega
    ry = (ep.field.eps0 - loop.center.eps0) / loop.semi_axis_eps
    r_hat = math.hypot(rx, ry)
    return (1.0 - r_hat) * min(loop.semi_axis_omega, loop.semi_axis_eps)


def contains_ep(loop: LoopSpec, params: SystemParams) -> bool:
    """True iff the loop strictly encircles the model's EP (rho > 0)."""
    return rho(loop, locate_ep(params)) > 0.0
