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
or numpy arrays; the closed-form couplings and the vectorized contour
scans in ``loops`` use it, and the propagators' right-hand sides get the
same bits from ``loops._traceless_kernel``, which spells its operations
out on constants read once per run.

Eigenframes have one code path, on arrays: ``_eigensystems`` solves any
number of matrices elementwise, and ``eigenframe`` is its one-matrix case.
It spells out CPython's complex arithmetic on real and imaginary parts, so
each frame is the same bits as the scalar recipe (kept in the tests as the
oracle). Bit identity, not just closeness, is what keeps every printed
digit and every branch decision of the propagators the same.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .errors import EPProximityError, NegativeAmplitudeError, NoFiniteEPError, NonFiniteError

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
        # unit eps0), stored because every scan and drive kernel reads them
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
    h11, h12, h22 = _hamiltonians(params, field.omega, field.eps0)
    return HamiltonianMatrix.symmetric(complex(h11), complex(h12), h22)


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


# ---------------------------------------------------------------------------
# eigenframes on arrays, in CPython's scalar arithmetic
# ---------------------------------------------------------------------------
#
# The helpers below spell out CPython's complex arithmetic on pairs of real
# arrays (re, im), operation for operation, so an array of eigenframes is the
# same bits as the scalar formulas evaluated one sample at a time. numpy's own
# complex multiply and divide round differently in the last bit, and a float
# times a complex in CPython (up to 3.13) first widens the float to
# complex(x, 0.0), which decides the sign of zero components. Moduli are the C
# library's hypot, which abs() on a Python complex calls too, and numpy's
# complex square root gives the bits of cmath.sqrt (the same algorithm, up to
# exact scalings by powers of two).


def _mul(ar, ai, br, bi):
    """The complex product a * b as CPython computes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _fmul(x, br, bi):
    """float * complex as CPython computes it: x is widened to complex(x, 0.0) first."""
    return x * br - 0.0 * bi, x * bi + 0.0 * br


def _quotients(br, bi, *numerators):
    """Each complex numerator (re, im) divided by b, by Smith's algorithm as CPython does it."""
    wide = np.abs(br) >= np.abs(bi)
    big, small = np.where(wide, br, bi), np.where(wide, bi, br)
    ratio = small / big
    denom = big + small * ratio
    out = []
    for ar, ai in numerators:
        p, q = np.where(wide, ar, ai), np.where(wide, ai, ar)
        pr = p * ratio
        out.append(((p + q * ratio) / denom, np.where(wide, q - pr, pr - q) / denom))
    return out


def _complex(re, im) -> np.ndarray:
    """Complex array from its parts; unlike re + 1j * im it keeps every signed zero."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


def _hamiltonians(params: SystemParams, omega, eps0):
    """(h11, h12, h22) at field points, floats or arrays (then h11, h12 are arrays, h22 a scalar).

    The one definition of the matrix: h12 = (0.5 eps0) * d12 is taken as
    CPython multiplies a float by a complex.
    """
    d12 = complex(params.d12)
    h11 = _complex(params.e1 + omega, -params.gamma1)
    h12 = _complex(*_fmul(0.5 * eps0, d12.real, d12.imag))
    return h11, h12, complex(params.e2, -params.gamma2)


class _Eigensystems(NamedTuple):
    """Eigenframes of n matrices, one per row: what ``eigenframe`` returns for each.

    ``abs_delta`` is |discriminant|, for the EP guard, and ``half_trace`` is
    tr(H)/2. ``finite`` is False where the scalar recipe overflows float64
    (there Python raises OverflowError). ``cnorm`` ((n, 2), '+' then '-') is
    computed on request only.
    """

    e_plus: np.ndarray  # (n,)
    e_minus: np.ndarray  # (n,)
    v_plus: np.ndarray  # (n, 2)
    v_minus: np.ndarray  # (n, 2)
    half_trace: np.ndarray  # (n,)
    abs_delta: np.ndarray  # (n,)
    finite: np.ndarray  # (n,) bool
    cnorm: Optional[np.ndarray] = None  # (n, 2)


def _eigensystems(h11, h12, h21, h22, with_cnorm: bool = False) -> _Eigensystems:
    """Eigenframes of the matrices [[h11, h12], [h21, h22]], elementwise over arrays.

    Bit for bit the scalar recipe: the '+' eigenvalue takes the discriminant
    root with Re >= 0 (tie: Im >= 0); each eigenvector is the better
    conditioned of the null vectors (h12, e - h11) and (e - h22, h21) (the
    basis vectors for a diagonal matrix), divided by the square root of its
    c-norm, with the sign that gives its largest-magnitude component a
    positive real part (tie: non-negative imaginary part). The EP guard is
    left to the caller, through ``abs_delta``.
    """
    h11, h12, h21, h22 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(h, dtype=complex)) for h in (h11, h12, h21, h22))
    )
    with np.errstate(all="ignore"):  # overflow and the EP are reported through the result
        dr, di = h11.real - h22.real, h11.imag - h22.imag
        dd_r, dd_i = _mul(dr, di, dr, di)
        q_r, q_i = _mul(*_fmul(4.0, h12.real, h12.imag), h21.real, h21.imag)
        delta = _complex(dd_r + q_r, dd_i + q_i)
        del dr, di, dd_r, dd_i, q_r, q_i
        abs_delta = np.hypot(delta.real, delta.imag)
        w = np.sqrt(delta)
        w = np.where((w.real < 0.0) | ((w.real == 0.0) & (w.imag < 0.0)), -w, w)
        half_w = _fmul(0.5, w.real, w.imag)
        half_trace = _complex(*_fmul(0.5, h11.real + h22.real, h11.imag + h22.imag))
        del delta, w
        e_plus = _complex(half_trace.real + half_w[0], half_trace.imag + half_w[1])
        e_minus = _complex(half_trace.real - half_w[0], half_trace.imag - half_w[1])
        del half_w
        m12, m21 = np.hypot(h12.real, h12.imag), np.hypot(h21.real, h21.imag)
        v_plus, ok_plus, c_plus = _eigvec(h11, h12, h21, h22, m12, m21, e_plus, with_cnorm)
        v_minus, ok_minus, c_minus = _eigvec(h11, h12, h21, h22, m12, m21, e_minus, with_cnorm)
    finite = np.isfinite(abs_delta) & ok_plus & ok_minus
    cnorm = np.stack([c_plus, c_minus], axis=1) if with_cnorm else None
    return _Eigensystems(e_plus, e_minus, v_plus, v_minus, half_trace, abs_delta, finite, cnorm)


def _eigvec(h11, h12, h21, h22, m12, m21, e, with_cnorm: bool):
    """(gauged c-normalized eigenvectors (n, 2), finite mask, cnorm or None) for eigenvalues e.

    ``m12`` and ``m21`` are |h12| and |h21|.
    """
    a1 = e - h11  # candidate a is (h12, e - h11), candidate b is (e - h22, h21)
    b0 = e - h22
    m_a1, m_b0 = np.hypot(a1.real, a1.imag), np.hypot(b0.real, b0.imag)
    na, nb = m12 + m_a1, m_b0 + m21
    use_a = na >= nb
    r0, r1 = np.where(use_a, h12, b0), np.where(use_a, a1, h21)
    m0, m1 = np.where(use_a, m12, m_b0), np.where(use_a, m_a1, m21)
    diagonal = (na == 0.0) & (nb == 0.0)
    del a1, b0, m_a1, m_b0, na, nb
    if diagonal.any():  # the basis vectors, (1, 0) for the eigenvalue h11
        first = e == h11
        r0 = np.where(diagonal, np.where(first, 1.0, 0.0), r0)
        r1 = np.where(diagonal, np.where(first, 0.0, 1.0), r1)
        m0, m1 = np.where(diagonal, r0.real, m0), np.where(diagonal, r1.real, m1)
    c_r, c_i = _mul(r0.real, r0.imag, r0.real, r0.imag)
    d_r, d_i = _mul(r1.real, r1.imag, r1.real, r1.imag)
    cnrm = _complex(c_r + d_r, c_i + d_i)
    del c_r, c_i, d_r, d_i
    scale = np.sqrt(cnrm)
    (v0_r, v0_i), (v1_r, v1_i) = _quotients(
        scale.real, scale.imag, (r0.real, r0.imag), (r1.real, r1.imag)
    )
    lead_first = np.hypot(v0_r, v0_i) >= np.hypot(v1_r, v1_i)
    lead_r, lead_i = np.where(lead_first, v0_r, v1_r), np.where(lead_first, v0_i, v1_i)
    sign = np.where(
        lead_r != 0.0, np.where(lead_r > 0.0, 1.0, -1.0), np.where(lead_i >= 0.0, 1.0, -1.0)
    )
    v = np.empty(v0_r.shape + (2,), dtype=complex)
    v.real[:, 0], v.imag[:, 0] = _fmul(sign, v0_r, v0_i)
    v.real[:, 1], v.imag[:, 1] = _fmul(sign, v1_r, v1_i)
    # abs(raw) ** 2 (the cnorm diagnostic) overflows in the scalar recipe first
    finite = np.isfinite(m0 * m0) & np.isfinite(m1 * m1) & np.isfinite(v.view(float)).all(axis=1)
    cnorm = None
    if with_cnorm:
        # c-norm of the Euclidean-normalized vector; x ** 2 on a Python float is C pow
        unit = np.float_power(m0, 2.0) + np.float_power(m1, 2.0)
        ((n_r, n_i),) = _quotients(unit, np.zeros_like(unit), (cnrm.real, cnrm.imag))
        cnorm = _complex(n_r, n_i)
    return v, finite, cnorm


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
    NonFiniteError
        If the frame overflows float64.
    """
    eig = _eigensystems(h.h11, h.h12, h.h21, h.h22, with_cnorm=True)
    _check_frame(eig, 0, tol)
    return EigenFrame(
        e_plus=complex(eig.e_plus[0]),
        e_minus=complex(eig.e_minus[0]),
        v_plus=eig.v_plus[0],
        v_minus=eig.v_minus[0],
        cnorm_plus=complex(eig.cnorm[0, 0]),
        cnorm_minus=complex(eig.cnorm[0, 1]),
    )


def _check_frame(eig: _Eigensystems, k: int, tol: float) -> None:
    """Raise for sample k what the scalar eigen-solve raises there, if anything."""
    abs_delta = float(eig.abs_delta[k])
    if abs_delta <= tol * tol:
        raise EPProximityError(
            f"|discriminant| = {abs_delta:.3e} <= tol^2 = {tol * tol:.3e}: "
            "eigenvectors are (nearly) self-orthogonal"
        )
    if not eig.finite[k]:
        raise NonFiniteError("eigenframe overflows float64")


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
