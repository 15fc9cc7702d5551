"""Two-resonance driven model: Hamiltonian, spectrum, and exceptional point.

The model couples two metastable levels through a classical drive with
frequency ``omega`` and amplitude ``eps0`` (hbar = 1, rotating frame for the
one-photon level). The resulting 2x2 matrix is complex symmetric, so its
bi-orthogonal eigenvectors are their own left partners under the c-product
(the bilinear product without complex conjugation). The two eigenvalues
coalesce, together with their eigenvectors, at an exceptional point (EP) in
the (omega, eps0) plane; this module locates it in closed form and provides
the instantaneous eigenframes everywhere else.

The physics lives in the traceless part H - tr(H)/2 I = [[a, g], [g, -a]],
with a = (e1 - e2 + omega)/2 + i delta_gamma/2 and g = eps0 d12/2; the trace
only adds a common phase and decay. The EP is where a^2 + g^2 = 0, and the
eigenvectors turn with th, tan 2th = g/a. ``_traceless`` is the one
definition of (a, g). It is plain arithmetic, so omega and eps0 may be floats
or numpy arrays; the propagators' right-hand sides, their closed-form
couplings and the vectorized contour scans in ``loops`` all use it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import EPProximityError, NegativeAmplitudeError, NoFiniteEPError

__all__ = [
    "SystemParams",
    "FieldPoint",
    "HamiltonianMatrix",
    "EigenFrame",
    "EPLocation",
    "build_hamiltonian",
    "discriminant",
    "eigenvalues",
    "c_product",
    "eigenframe",
    "locate_ep",
    "verify_ep",
]

GAUGE_TAG = "c-normalized; sign fixed so the largest-magnitude component has positive real part"


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the two-resonance model (dimensionless units, hbar = 1).

    ``e1``/``e2`` are the level energies, ``gamma1``/``gamma2`` their decay
    rates (amplitude convention: |c|^2 of an isolated level decays as
    exp(-2*gamma*t)), and ``d12`` the complex transition dipole element.
    """

    e1: float
    e2: float
    gamma1: float
    gamma2: float
    d12: complex

    def __post_init__(self) -> None:
        _require_finite(self, "e1", "e2", "gamma1", "gamma2", "d12")
        if self.gamma1 < 0:
            raise ValueError("gamma1 must be >= 0")
        if self.gamma2 < 0:
            raise ValueError("gamma2 must be >= 0")
        # the drive-independent factors of ``_traceless`` (a at omega = 0, g per
        # unit eps0), stored because the right-hand sides call it at every stage
        object.__setattr__(self, "_a_static", 0.5 * complex(self.e1 - self.e2, self.delta_gamma))
        object.__setattr__(self, "_half_d12", 0.5 * complex(self.d12))

    @property
    def delta_gamma(self) -> float:
        """Gain/loss imbalance gamma2 - gamma1 (always derived, never stored)."""
        return self.gamma2 - self.gamma1


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first attribute (dotted path) that is NaN or infinite."""
    for name in names:
        if not cmath.isfinite(attrgetter(name)(obj)):
            raise ValueError(f"{name} must be finite")


def _traceless(params: SystemParams, omega, eps0):
    """(a, g) of the traceless part [[a, g], [g, -a]] at (omega, eps0), scalars or arrays."""
    a_drive, g = _traceless_drive(params, omega, eps0)
    return params._a_static + a_drive, g


def _traceless_drive(params: SystemParams, omega, eps0):
    """The part of (a, g) linear in the drive; at the field velocity it is (a', g')."""
    return 0.5 * omega, params._half_d12 * eps0


@dataclass(frozen=True)
class FieldPoint:
    """One point (omega, eps0) of the drive-parameter plane."""

    omega: float
    eps0: float

    def __post_init__(self) -> None:
        if self.eps0 < 0:
            raise ValueError("eps0 must be >= 0")


@dataclass(frozen=True)
class HamiltonianMatrix:
    """2x2 complex-symmetric Hamiltonian; h12 == h21 is enforced exactly."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex

    def __post_init__(self) -> None:
        if self.h12 != self.h21:
            raise ValueError("model Hamiltonian must be complex symmetric (h12 == h21)")

    @classmethod
    def symmetric(cls, h11: complex, h12: complex, h22: complex) -> "HamiltonianMatrix":
        return cls(h11, h12, h12, h22)

    @property
    def trace(self) -> complex:
        return self.h11 + self.h22

    def as_array(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h21, self.h22]], dtype=complex)


@dataclass(frozen=True)
class EigenFrame:
    """Instantaneous bi-orthogonal eigen-decomposition at one field point.

    ``v_plus``/``v_minus`` are right eigenvectors normalized to
    c_product(v, v) = 1; for a complex-symmetric matrix they are also the
    left eigenvectors under the c-product. ``cnorm_plus``/``cnorm_minus``
    are the c-norms of the Euclidean-normalized eigenvectors *before*
    c-normalization; their magnitude drops to zero on approach to the EP
    (self-orthogonality) and is therefore the standard proximity diagnostic.
    """

    e_plus: complex
    e_minus: complex
    v_plus: np.ndarray
    v_minus: np.ndarray
    cnorm_plus: complex
    cnorm_minus: complex
    gauge_tag: str = GAUGE_TAG


@dataclass(frozen=True)
class EPLocation:
    """Closed-form EP field point plus the |discriminant| residual there."""

    field: FieldPoint
    residual: float


def build_hamiltonian(params: SystemParams, field: FieldPoint) -> HamiltonianMatrix:
    """Assemble the driven 2x2 matrix at one field point.

    h11 = e1 + omega - i*gamma1, h22 = e2 - i*gamma2, and the drive couples
    the levels through h12 = h21 = eps0*d12/2.
    """
    h11 = complex(params.e1 + field.omega, -params.gamma1)
    h22 = complex(params.e2, -params.gamma2)
    h12 = 0.5 * field.eps0 * complex(params.d12)
    return HamiltonianMatrix(h11, h12, h12, h22)


def discriminant(h: HamiltonianMatrix) -> complex:
    """(h11 - h22)^2 + 4*h12*h21; zero exactly at a spectral degeneracy."""
    d = h.h11 - h.h22
    return d * d + 4.0 * h.h12 * h.h21


def _root_plus(delta: complex) -> complex:
    """Square root of the discriminant on the branch with Re >= 0.

    Ties (purely imaginary roots) resolve to Im >= 0, so the '+' eigenvalue
    is deterministic for every input including negative real discriminants.
    """
    w = cmath.sqrt(delta)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def eigenvalues(h: HamiltonianMatrix) -> tuple[complex, complex]:
    """Both eigenvalues, ordered by the fixed branch convention.

    The '+' branch takes the discriminant root with non-negative real part
    (tie: non-negative imaginary part). Only relative statements about the
    two branches are physical; the convention just makes results reproducible.
    """
    return _split(h, discriminant(h))


def _split(h: HamiltonianMatrix, delta: complex) -> tuple[complex, complex]:
    """Eigenvalues tr(H)/2 +/- root(delta)/2 from an already computed discriminant."""
    w = _root_plus(delta)
    half_trace = 0.5 * h.trace
    return half_trace + 0.5 * w, half_trace - 0.5 * w


def c_product(u, v) -> complex:
    """Bilinear product u1*v1 + u2*v2 with no complex conjugation.

    This is the natural pairing for complex-symmetric operators; EP
    eigenvectors are self-orthogonal under it.
    """
    return u[0] * v[0] + u[1] * v[1]


def _eigvec_raw(h: HamiltonianMatrix, e: complex) -> tuple[complex, complex]:
    """Unnormalized right eigenvector for eigenvalue e.

    (h12, e - h11) and (e - h22, h21) are parallel null vectors of (H - e);
    pick whichever is better conditioned.
    """
    cand_a = (h.h12, e - h.h11)
    cand_b = (e - h.h22, h.h21)
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


def _eigensystem(h: HamiltonianMatrix, tol: float):
    """Scalar-arithmetic eigen-solve shared by eigenframe and the propagators.

    Returns (e_plus, e_minus, v_plus, v_minus, cnorm_plus, cnorm_minus) with
    vectors as plain complex 2-tuples. Raises EPProximityError inside the
    |Delta| <= tol^2 guard, where c-normalization becomes singular.
    """
    delta = discriminant(h)
    if abs(delta) <= tol * tol:
        raise EPProximityError(
            f"|discriminant| = {abs(delta):.3e} <= tol^2 = {tol * tol:.3e}: "
            "eigenvectors are (nearly) self-orthogonal"
        )
    e_p, e_m = _split(h, delta)
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


def eigenframe(h: HamiltonianMatrix, tol: float = 1e-8) -> EigenFrame:
    """Bi-orthogonal eigenframe of a complex-symmetric 2x2 matrix.

    Parameters
    ----------
    h:
        The matrix to decompose.
    tol:
        EP proximity guard: refuses when |discriminant| <= tol^2 rather than
        returning arbitrarily large normalized vectors (derivative couplings
        diverge there).

    Raises
    ------
    EPProximityError
        Within the guard region around the EP.
    """
    e_p, e_m, v_p, v_m, c_p, c_m = _eigensystem(h, tol)
    return EigenFrame(
        e_plus=e_p,
        e_minus=e_m,
        v_plus=np.array(v_p, dtype=complex),
        v_minus=np.array(v_m, dtype=complex),
        cnorm_plus=c_p,
        cnorm_minus=c_m,
    )


def locate_ep(params: SystemParams) -> EPLocation:
    """Closed-form exceptional point of the driven model.

    eps0_ep = delta_gamma / Re[d12] and
    omega_ep = e2 - e1 - Im[d12] * eps0_ep (hbar = 1).

    Raises
    ------
    NoFiniteEPError
        If Re[d12] = 0 (no finite drive amplitude degenerates the spectrum),
        or if float64 cannot resolve the closed form: it overflows, or its
        |discriminant| residual is >= 1e-10 (e.g. for level energies near 1e20).
    NegativeAmplitudeError
        If the closed form gives eps0_ep < 0 (unreachable amplitude).
    """
    d12 = complex(params.d12)
    if d12.real == 0.0:
        raise NoFiniteEPError("Re[d12] = 0: no finite-amplitude EP exists")
    eps0_ep = params.delta_gamma / d12.real
    if eps0_ep < 0.0:
        raise NegativeAmplitudeError(
            f"delta_gamma / Re[d12] = {eps0_ep:.6g} < 0: EP amplitude not physical"
        )
    omega_ep = params.e2 - params.e1 - d12.imag * eps0_ep
    if not (math.isfinite(omega_ep) and math.isfinite(eps0_ep)):
        raise NoFiniteEPError(f"closed-form EP ({omega_ep:.6g}, {eps0_ep:.6g}) overflows float64")
    field = FieldPoint(omega=omega_ep, eps0=eps0_ep)
    residual = abs(discriminant(build_hamiltonian(params, field)))
    if not residual < 1e-10:  # NaN too
        raise NoFiniteEPError(
            f"closed-form EP residual {residual:.3e} >= 1e-10: float64 cannot resolve the EP "
            "for these parameters"
        )
    return EPLocation(field=field, residual=residual)


def verify_ep(params: SystemParams, field: FieldPoint) -> float:
    """Residual of the two degeneracy conditions at a field point; 0 at an EP.

    The conditions pair Re and Im of (h11 - h22) against +/-2 times the
    square root of h12*h21 with correlated signs; both pairings are evaluated
    and the smaller Euclidean residual returned, so the answer does not
    depend on which root the square function picks.
    """
    h = build_hamiltonian(params, field)
    dh = h.h11 - h.h22
    r = cmath.sqrt(h.h12 * h.h21)
    res_a = math.hypot(dh.real + 2.0 * r.imag, dh.imag - 2.0 * r.real)  # dh = +2i*r
    res_b = math.hypot(dh.real - 2.0 * r.imag, dh.imag + 2.0 * r.real)  # dh = -2i*r
    return min(res_a, res_b)
