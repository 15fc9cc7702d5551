"""The non-adiabatic couplings at one time, two ways, kept as a reference.

``na_coupling`` differences two nearby frames of the null-vector oracle
(``frame_reference._eigensystem``); ``na_coupling_at`` takes the closed form
th' = (a g' - g a') / (2 (a^2 + g^2)) that the adiabatic route's eigenframe
steps take (see the ``traversal`` docstring), with the sign of the oracle's
frame. Nothing in the package calls them: the tests check the closed form
against the finite difference and its growth towards the EP.
"""

from __future__ import annotations

import numpy as np

from epdyn import loops
from epdyn.loops import LoopSpec
from epdyn.model import SystemParams, _traceless, _traceless_drive, build_hamiltonian, c_product
from frame_reference import KAPPA, _aligned_next, _eigensystem


def _det_sign(vs) -> float:
    """det(v0, v1) = +/-1 of a c-orthonormal pair, as a sign."""
    v0, v1 = vs
    return 1.0 if (v0[0] * v1[1] - v0[1] * v1[0]).real > 0.0 else -1.0


def _theta_dot(params: SystemParams, a: complex, g: complex, velocity) -> complex:
    """th' = (a g' - g a') / (2 (a^2 + g^2)); see the ``propagation`` docstring."""
    a_dot, g_dot = _traceless_drive(params, *velocity)
    return 0.5 * (a * g_dot - g * a_dot) / (a * a + g * g)


def na_coupling(frame_a: tuple, frame_b: tuple, dt: float, velocity: tuple[float, float]) -> tuple[complex, complex]:
    """Non-adiabatic couplings (V_{+/-}, V_{-/+}) from two nearby frames.

    ``frame_a`` and ``frame_b`` are ``_eigensystem`` frames (e_plus,
    e_minus, v_plus, v_minus, ...) at parameter points placed symmetrically
    around the evaluation point along the velocity direction, separated by
    ``velocity * dt``; the central difference (v_b - v_a)/dt is then the
    velocity-weighted parameter derivative of each eigenvector, and the
    couplings are its c-products with the opposite branch. Zero velocity
    returns (0, 0) exactly. This finite difference is the independent
    reference for the closed form of :func:`na_coupling_at`.

    The gauge convention fixes signs only piecewise, so frame_b is re-aligned
    (branch pairing and sign) to frame_a before differencing; overlaps too
    close to pair raise AmbiguousTrackingError, the divergent-derivative
    signature near the EP.
    """
    if velocity[0] == 0.0 and velocity[1] == 0.0:
        return 0j, 0j
    if dt <= 0:
        raise ValueError("dt must be > 0")
    va = frame_a[2:4]
    _, vb, _ = _aligned_next(va, *frame_b[:4])
    va, vb = np.array(va), np.array(vb)  # [slot, component]
    mid = 0.5 * (va + vb)
    dv = (vb - va) / dt
    return complex(c_product(mid[0], dv[1])), complex(c_product(mid[1], dv[0]))


def na_coupling_at(
    params: SystemParams,
    loop: LoopSpec,
    t: float,
) -> tuple[complex, complex]:
    """Couplings (V_{+/-}, V_{-/+}) at time t on a loop, in closed form.

    With the traceless H = [[a, g], [g, -a]] and
    th' = (a g' - g a') / (2 (a^2 + g^2)) taken from the loop velocity,
    V_{+/-} = -det th' and V_{-/+} = +det th', where det = +/-1 is the
    determinant of the oracle frame's (v_plus, v_minus). Raises
    EPOnContourError on the EP (the oracle's rule).
    """
    fp = loops.field_at(loop, t)
    _, _, v_plus, v_minus, _, _ = _eigensystem(build_hamiltonian(params, fp), KAPPA)
    theta_dot = _theta_dot(params, *_traceless(params, fp.omega, fp.eps0), loops.field_velocity(loop, t))
    det = _det_sign((v_plus, v_minus))
    return -det * theta_dot, det * theta_dot
