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
from dataclasses import dataclass

import numpy as np

from .errors import EPOnContourError, NonFiniteError, UndersampledError
from .model import (
    EPLocation,
    FieldPoint,
    SystemParams,
    _require_finite,
    _traceless,
    _traceless_drive,
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

    def reversed(self) -> "Direction":
        return Direction.CW if self is Direction.CCW else Direction.CCW


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
            raise ValueError("duration_T is too small: the angular rate 2*pi/duration_T overflows")
        if self.center.eps0 < self.semi_axis_eps:
            raise ValueError("center.eps0 must be >= semi_axis_eps (eps0 >= 0 on contour)")

    def reversed(self) -> "LoopSpec":
        return LoopSpec(
            center=self.center,
            semi_axis_omega=self.semi_axis_omega,
            semi_axis_eps=self.semi_axis_eps,
            direction=self.direction.reversed(),
            duration_T=self.duration_T,
            start_phase=self.start_phase,
        )

    # -- drive protocol ----------------------------------------------------

    def field_at(self, t: float) -> FieldPoint:
        return field_at(self, t)

    def velocity_at(self, t: float) -> tuple[float, float]:
        return field_velocity(self, t)

    def omega_integral(self, t, xp=math):
        """Closed form of int_0^t omega(t') dt' (used to factor the mean phase).

        ``xp`` is math for a time, numpy for an array of times, as for ``_angle``.
        """
        _check_time(self, t, xp)
        th0 = self.start_phase
        rate = self.direction.sign * 2.0 * math.pi / self.duration_T
        return self.center.omega * t + self.semi_axis_omega * (
            (xp.sin(th0 + rate * t) - math.sin(th0)) / rate
        )


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

    def field_at(self, t: float) -> FieldPoint:
        _check_time(self, t)
        return self.field

    def velocity_at(self, t: float) -> tuple[float, float]:
        _check_time(self, t)
        return (0.0, 0.0)

    def omega_integral(self, t, xp=math):
        _check_time(self, t, xp)
        return self.field.omega * t


def _check_time(drive, t, xp=math) -> None:
    """Raise ValueError unless t (every time of an array, for ``xp`` numpy) lies in [0, T]."""
    lo, hi = (t, t) if xp is math else (t.min(), t.max())
    if not (0.0 <= lo and hi <= drive.duration_T):
        raise ValueError(f"t = {t} outside [0, {drive.duration_T}]")


def _angle(loop: LoopSpec, t, xp=math):
    """Angle start_phase + sign*2*pi*(t/T mod 1); ``xp`` is math for scalars, numpy for arrays.

    Reducing t/T mod 1 makes t = T reproduce t = 0 bit for bit.
    """
    frac = xp.fmod(t / loop.duration_T, 1.0)
    return loop.start_phase + loop.direction.sign * 2.0 * xp.pi * frac


def _ellipse(loop: LoopSpec, th, xp=math):
    """Contour point (omega, eps0) at angle th, scalars or arrays as for ``_angle``."""
    return (
        loop.center.omega + loop.semi_axis_omega * xp.cos(th),
        loop.center.eps0 + loop.semi_axis_eps * xp.sin(th),
    )


def field_at(loop: LoopSpec, t: float) -> FieldPoint:
    """Contour point at time t: theta(t) = start_phase + sign*2*pi*t/T."""
    _check_time(loop, t)
    return FieldPoint(*_ellipse(loop, _angle(loop, t)))


def field_velocity(loop: LoopSpec, t: float) -> tuple[float, float]:
    """Analytic time derivative of field_at; scales as 1/T for fixed geometry."""
    _check_time(loop, t)
    th = _angle(loop, t)
    rate = loop.direction.sign * 2.0 * math.pi / loop.duration_T
    return (
        -loop.semi_axis_omega * math.sin(th) * rate,
        loop.semi_axis_eps * math.cos(th) * rate,
    )


def _traceless_kernel(drive, params: SystemParams):
    """The closure t -> (a, g, a', g') along a loop or static drive, read once per run.

    The propagators' right-hand sides call it at every stage. It clamps t to
    [0, T] as min(max(t, 0.0), T) does: RK stages can poke epsilon outside,
    and the contour is periodic and smooth, so clamping is exact there. Then
    it does the operations of ``_traceless(params, *field_at(drive, t))`` and
    ``_traceless_drive(params, *field_velocity(drive, t))`` in their order,
    on constants taken from the drive and ``params`` here, so every value is
    the bits of that reference path without its calls and objects.
    """
    if isinstance(drive, StaticDrive):
        values = (*_traceless(params, drive.field.omega, drive.field.eps0),
                  *_traceless_drive(params, 0.0, 0.0))
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


def _fields_at(drive, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, eps0) arrays at ``times`` along a loop or static drive, the bits of ``field_at``."""
    if isinstance(drive, StaticDrive):
        return tuple(np.full_like(times, x) for x in (drive.field.omega, drive.field.eps0))
    return _ellipse(drive, _angle(drive, times, np), np)


def _discriminant_on_loop(drive, params: SystemParams, times: np.ndarray) -> np.ndarray:
    """Vectorized discriminant 4 (a^2 + g^2) along a loop or static drive (keeps scans fast)."""
    a, g = _traceless(params, *_fields_at(drive, times))
    return 4.0 * (a * a + g * g)


def winding_number(
    loop: LoopSpec,
    params: SystemParams,
    n_samples: int = 1024,
    tol: float = 1e-12,
) -> int:
    """Integer winding of the discriminant around the complex origin.

    Accumulates the continuous argument of Delta along one traversal. The
    result is -1 for a CCW loop enclosing the EP of this model (+1 for CW)
    and 0 otherwise; the sign convention follows from Delta circling the
    origin opposite to the parameter-space orientation here.

    Raises
    ------
    EPOnContourError
        If |Delta| < tol at any sample (contour touches the degeneracy).
    NonFiniteError
        If Delta overflows float64 at any sample.
    UndersampledError
        If any adjacent-sample argument jump exceeds pi/2.
    """
    if n_samples < 64:
        raise ValueError("n_samples must be >= 64")
    times = np.linspace(0.0, loop.duration_T, n_samples + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        delta = _discriminant_on_loop(loop, params, times)
    if not np.all(np.isfinite(delta)):
        raise NonFiniteError("discriminant is not finite in float64 along the contour")
    mags = np.abs(delta)
    if np.any(mags < tol):
        k = int(np.argmin(mags))
        raise EPOnContourError(
            f"|discriminant| = {mags[k]:.3e} < tol at sample t = {times[k]:.6g}"
        )
    args = np.angle(delta)
    jumps = np.diff(args)
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
