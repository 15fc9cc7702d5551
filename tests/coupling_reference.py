"""The non-adiabatic couplings at one time, two ways, kept as a reference.

``na_coupling`` differences two nearby eigenframes; ``na_coupling_at`` takes
the closed form th' = (a g' - g a') / (2 (a^2 + g^2)) that the adiabatic
route's eigenframe steps take (see the ``traversal`` docstring). Nothing in the
package calls them: the tests check the closed form against the finite
difference and its growth towards the EP.
"""

from __future__ import annotations

import numpy as np

from epdyn.errors import AmbiguousTrackingError, EPProximityError
from epdyn.loops import LoopSpec
from epdyn.model import (
    EigenFrame,
    SystemParams,
    _traceless,
    _traceless_drive,
    build_hamiltonian,
    c_product,
    eigenframe,
)
from frame_reference import _aligned_next


def _det_sign(vs) -> float:
    """det(v0, v1) = +/-1 of a c-orthonormal pair, as a sign."""
    v0, v1 = vs
    return 1.0 if (v0[0] * v1[1] - v0[1] * v1[0]).real > 0.0 else -1.0


def _theta_dot(params: SystemParams, a: complex, g: complex, velocity) -> complex:
    """th' = (a g' - g a') / (2 (a^2 + g^2)); see the ``propagation`` docstring."""
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
    va = (frame_a.v_plus, frame_a.v_minus)
    try:
        _, vb, _ = _aligned_next(va, frame_b.e_plus, frame_b.e_minus, frame_b.v_plus, frame_b.v_minus)
    except AmbiguousTrackingError as exc:
        raise EPProximityError("frames too close to the EP to pair branches") from exc
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
    determinant of the frame's (v_plus, v_minus). Raises EPProximityError
    on the EP (``model._on_ep``).
    """
    fp = loop.field_at(t)
    frame = eigenframe(build_hamiltonian(params, fp))
    theta_dot = _theta_dot(params, *_traceless(params, fp.omega, fp.eps0), loop.velocity_at(t))
    det = _det_sign((frame.v_plus.tolist(), frame.v_minus.tolist()))
    return -det * theta_dot, det * theta_dot
