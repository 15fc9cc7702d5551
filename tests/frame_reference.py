"""The null-vector eigenframe recipe, kept as the oracle of the closed form.

``_eigensystem`` solves one frame in Python complex arithmetic for the
better conditioned null vector of H - e, ``_aligned_next`` pairs it with
the previous one by c-product overlap, and ``_tracked_frames`` walks a list
of times one sample at a time. The package takes its frames in closed form
instead (``traversal.branch_frames``); the tests check that its energies,
vectors and phase samples agree with these within stated bounds, and that
labels, swaps and error types are the same. The eigenvalues are the
oracle's own too: tr(H)/2 +/- root/2, with ``cmath``'s root of the
discriminant turned to the '+' side. ``tests/coupling_reference.py``
differences two of these frames, paired with ``_aligned_next``.
"""

import cmath

import numpy as np

from epdyn import loops
from epdyn.errors import AmbiguousTrackingError, EPOnContourError
from epdyn.model import (
    HamiltonianMatrix,
    SystemParams,
    build_hamiltonian,
    c_product,
    discriminant,
)
from epdyn.propagation import Drive

#: kappa of the package's EP-contact rule, which the oracle applies on its own
KAPPA = 1e-11


def _eigenvalues(h: HamiltonianMatrix) -> tuple[complex, complex]:
    """(e_plus, e_minus) = tr(H)/2 +/- root/2, root the discriminant's root with Re > 0 (tie: Im >= 0)."""
    root = cmath.sqrt(discriminant(h))
    if not (root.real > 0.0 or (root.real == 0.0 and root.imag >= 0.0)):
        root = -root
    half_trace = 0.5 * (h.h11 + h.h22)
    return half_trace + 0.5 * root, half_trace - 0.5 * root


def _eigvec_raw(h: HamiltonianMatrix, e: complex) -> tuple[complex, complex]:
    """Unnormalized right eigenvector for eigenvalue e.

    (h12, e - h11) and (e - h22, h12) are parallel null vectors of (H - e);
    pick whichever is better conditioned.
    """
    cand_a = (h.h12, e - h.h11)
    cand_b = (e - h.h22, h.h12)
    na = abs(cand_a[0]) + abs(cand_a[1])
    nb = abs(cand_b[0]) + abs(cand_b[1])
    if na == 0.0 and nb == 0.0:
        # diagonal matrix: eigenvectors are the basis vectors
        return (1.0 + 0j, 0j) if e == h.h11 else (0j, 1.0 + 0j)
    return cand_a if na >= nb else cand_b


def _gauge_sign(v: tuple[complex, complex]) -> float:
    """Sign that puts the largest-magnitude component's real part > 0."""
    lead = v[0] if abs(v[0]) >= abs(v[1]) else v[1]
    if lead.real != 0.0:
        return 1.0 if lead.real > 0.0 else -1.0
    return 1.0 if lead.imag >= 0.0 else -1.0


def _eigensystem(h: HamiltonianMatrix, kappa: float):
    """Scalar-arithmetic eigen-solve of one matrix.

    Returns (e_plus, e_minus, v_plus, v_minus, cnorm_plus, cnorm_minus) with
    vectors as plain complex 2-tuples. Raises EPOnContourError on the EP,
    |Delta| <= 4 kappa (|a|^2 + |g|^2) with a = (h11 - h22)/2 and g = h12,
    where c-normalization becomes singular.
    """
    delta = discriminant(h)
    bound = 4.0 * kappa * (abs(0.5 * (h.h11 - h.h22)) ** 2 + abs(h.h12) ** 2)
    if abs(delta) <= bound:
        raise EPOnContourError(
            f"|discriminant| = {abs(delta):.3e} <= 4 kappa (|a|^2 + |g|^2) = {bound:.3e}: "
            "eigenvectors are (nearly) self-orthogonal"
        )
    e_p, e_m = _eigenvalues(h)
    out = []
    for e in (e_p, e_m):
        raw = _eigvec_raw(h, e)
        cnrm = c_product(raw, raw)
        # cnorm diagnostic: c-norm of the Euclidean-normalized vector
        eunit = abs(raw[0]) ** 2 + abs(raw[1]) ** 2
        diag = cnrm / eunit
        scale = cmath.sqrt(cnrm)
        v = (raw[0] / scale, raw[1] / scale)
        s = _gauge_sign(v)
        out.append(((s * v[0], s * v[1]), diag))
    (v_p, c_p), (v_m, c_m) = out
    return e_p, e_m, v_p, v_m, c_p, c_m


def _aligned_next(ref_vs, e_p, e_m, v_p, v_m, ambiguity: float = 0.9):
    """Pair the '+'/'-' eigenpairs with the reference vector pair.

    Returns ((e0, e1), (v0, v1), (lab0, lab1)) where slot i continues
    ref_vs[i], its sign chosen so that c_product(ref_vs[i], v_i) has a
    non-negative real part. Labels are the instantaneous '+'/'-' identity of
    each slot. Raises AmbiguousTrackingError when a slot's two overlaps are
    too close to call or both slots pick the same branch.
    """
    inst = ((e_p, v_p, "+"), (e_m, v_m, "-"))
    out_e = [None, None]
    out_v = [None, None]
    out_l = [None, None]
    taken = [False, False]
    for slot in (0, 1):
        ov = [c_product(ref_vs[slot], cand[1]) for cand in inst]
        mags = [abs(o) for o in ov]
        best = 0 if mags[0] >= mags[1] else 1
        if mags[1 - best] > ambiguity * mags[best]:
            raise AmbiguousTrackingError(
                f"branch overlaps too close to call: {mags[best]:.3f} vs {mags[1 - best]:.3f}"
            )
        if taken[best]:
            raise AmbiguousTrackingError("both tracked slots matched the same branch")
        taken[best] = True
        e_b, v_b, lab = inst[best]
        sign = 1.0 if ov[best].real >= 0.0 else -1.0
        out_e[slot] = e_b
        out_v[slot] = (sign * v_b[0], sign * v_b[1])
        out_l[slot] = lab
    return tuple(out_e), tuple(out_v), tuple(out_l)


def _initial_frame(params: SystemParams, drive: Drive, kappa: float):
    """The t = 0 frame ((e0, e1), (v0, v1), labels), slot 0 on the '+' branch."""
    e_p, e_m, v_p, v_m, _, _ = _eigensystem(build_hamiltonian(params, loops.field_at(drive, 0.0)), kappa)
    return (e_p, e_m), (v_p, v_m), ("+", "-")


def _tracked_frames(params: SystemParams, drive: Drive, times: np.ndarray, kappa: float):
    """Yield the tracked frame ((e0, e1), (v0, v1), labels) at each of ``times`` (from 0)."""
    frame = _initial_frame(params, drive, kappa)
    yield frame
    for t in times[1:]:
        eig = _eigensystem(build_hamiltonian(params, loops.field_at(drive, float(t))), kappa)
        frame = _aligned_next(frame[1], *eig[:4])
        yield frame

