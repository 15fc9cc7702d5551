"""Documented default parameter set and loop geometries.

The physical constants of a concrete molecular or optical realization are
not reproducible at desk scale, so the package ships an illustrative
dimensionless parameter set. Its exceptional point sits at (omega, eps0) =
(1, 0.2), which keeps all the protocol geometry easy to reason about.
"""

from __future__ import annotations

import dataclasses

from .loops import Direction, LoopSpec
from .model import FieldPoint, SystemParams

__all__ = [
    "DEFAULT_PARAMS",
    "HERMITIAN_PARAMS",
    "DIODE_DURATION",
    "encircling_loop",
    "diode_loop",
    "diode_control_loop",
    "hermitian_loop",
]

#: Illustrative defaults (invented, dimensionless): EP at omega = 1, eps0 = 0.2.
DEFAULT_PARAMS = SystemParams(e1=0.0, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1.0 + 0.0j)

#: Same level structure with no decay; used for closed-system controls.
HERMITIAN_PARAMS = SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=0.0, d12=1.0 + 0.0j)

#: Traversal duration at which the direction-selective state exchange on
#: diode_loop() is strongest for DEFAULT_PARAMS (numerically tuned; the
#: selectivity is interference-modulated in T, so this sits mid-plateau).
DIODE_DURATION = 348.75


def encircling_loop(
    duration_T: float,
    direction: Direction = Direction.CCW,
    radius: float = 0.05,
) -> LoopSpec:
    """Small circle-like loop centered on the default EP."""
    return LoopSpec(
        center=FieldPoint(1.0, 0.2),
        semi_axis_omega=radius,
        semi_axis_eps=radius,
        direction=direction,
        duration_T=duration_T,
        start_phase=0.0,
    )


def diode_loop(
    direction: Direction = Direction.CW,
    duration_T: float = DIODE_DURATION,
) -> LoopSpec:
    """EP-encircling protocol whose traversal direction selects the final state.

    Geometry tuned numerically for DEFAULT_PARAMS: the end point sits at
    weak drive and large detuning, where both eigenvectors are nearly pure
    bare states, while the traversal builds up a direction-asymmetric
    width-difference exponent. At DIODE_DURATION, CW traversal funnels any
    initial state into bare state 1 and CCW into bare state 2, each with a
    population ratio above 10^3.
    """
    return LoopSpec(
        center=FieldPoint(0.92005, 0.64976),
        semi_axis_omega=2.02446,
        semi_axis_eps=0.64973,
        direction=direction,
        duration_T=duration_T,
        start_phase=4.35017,
    )


def diode_control_loop(
    direction: Direction = Direction.CW,
    duration_T: float = DIODE_DURATION,
) -> LoopSpec:
    """The diode protocol translated in omega so the EP stays outside.

    Same shape, schedule, and duration; rho < 0. Both traversal directions
    relax to the same (longer-lived) bare state: the selectivity vanishes
    without the enclosed EP.
    """
    return dataclasses.replace(diode_loop(direction, duration_T), center=FieldPoint(3.52005, 0.64976))


def hermitian_loop(duration_T: float, direction: Direction = Direction.CCW) -> LoopSpec:
    """Loop for the no-decay control runs.

    With HERMITIAN_PARAMS the spectrum has no degeneracy at positive drive;
    the gap along this contour makes the slow-traversal leakage fall
    monotonically over duration doublings from 25 to 200 time units.
    """
    return LoopSpec(
        center=FieldPoint(1.0, 0.25),
        semi_axis_omega=0.05,
        semi_axis_eps=0.05,
        direction=direction,
        duration_T=duration_T,
        start_phase=0.0,
    )
