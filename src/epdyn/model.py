"""Two-resonance driven model: Hamiltonian, spectrum, and exceptional point.

The model couples two metastable levels through a classical drive with
frequency ``omega`` and amplitude ``eps0`` (hbar = 1, rotating frame for the
one-photon level). The resulting 2x2 matrix is complex symmetric, so its
bi-orthogonal eigenvectors are their own left partners under the c-product
(the bilinear product without complex conjugation). The two eigenvalues
coalesce, together with their eigenvectors, at an exceptional point (EP) in
the (omega, eps0) plane; this module locates it in closed form and holds
the pieces of the instantaneous eigenframes everywhere else.

The physics lives in the traceless part H - tr(H)/2 I = [[a, g], [g, -a]],
with a = (e1 - e2 + omega)/2 + i delta_gamma/2 and g = eps0 d12/2; the trace
only adds a common phase and decay. The EP is where a^2 + g^2 = 0, and the
eigenvectors turn with th, tan 2th = g/a. ``_traceless`` is the one
definition of (a, g). It is plain arithmetic, so omega and eps0 may be floats
or numpy arrays; the closed-form couplings, the step products of
``traversal`` and the one scan of a drive's samples
(``loops._traceless_at``) use it, and the direct route's generated run
gets the same bits from the drive's
``loops._contour`` and the model's constants, read once per run, with its
operations inlined (``propagation._drive_constants``;
``tests/dop853_reference.py`` keeps the scalar closure as the reference).

Eigenframes have one closed form. The eigenvalues are tr(H)/2 +/- lam with
lam = +/-sqrt(a^2 + g^2), and the c-normalized eigenvectors are
(cos th, sin th) and (-sin th, cos th) with e^{2 i th} = (a + i g)/lam.
``traversal`` continues lam by the nearer root from the '+' root at t = 0,
and th by the nearer multiple of pi, for the tracked frames and the
adiabatic route alike; the '+' root (``_root_plus``), ``_angle`` and the
gauge (``_gauge``) are defined here for both.
One rule, free of units as the dynamics are, decides contact with the EP
everywhere: |a^2 + g^2| <= ``_EP_CONTACT`` (|a|^2 + |g|^2) (``_on_ep``; its
message is ``_ep_contact``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import NegativeAmplitudeError, NoFiniteEPError

__all__ = [
    "SystemParams",
    "FieldPoint",
    "HamiltonianMatrix",
    "EPLocation",
    "build_hamiltonian",
    "discriminant",
    "c_product",
    "locate_ep",
]

#: kappa of the one EP-contact rule (``_on_ep``): off the EP it bounds
#: |e^{2 i th}|^2 = |a + i g|^2 / |a^2 + g^2| below 2 / kappa, and with it the
#: condition number of the eigenframe, whose vectors are self-orthogonal at the EP.
_EP_CONTACT = 1e-11


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


def _on_ep(a, g, w2):
    """Whether (a, g), complexes or arrays with w2 = a^2 + g^2, is on the EP: |w2| <= kappa (|a|^2 + |g|^2).

    A w2 that is not finite is not on the EP: its error is the overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.abs(w2) <= _EP_CONTACT * _norm2(a, g)) & np.isfinite(w2)


def _norm2(a, g):
    """|a|^2 + |g|^2, without a square root."""
    return a.real * a.real + a.imag * a.imag + g.real * g.real + g.imag * g.imag


def _ep_contact(a=None, g=None) -> str:
    """The EP-contact rule as message text; given a sample (a, g), its |a^2 + g^2| against the bound."""
    rule = f"{_EP_CONTACT:.0e} (|a|^2 + |g|^2)"
    if a is None:
        return f"|a^2 + g^2| <= {rule}"
    w2 = a * a + g * g
    return f"|a^2 + g^2| = {np.abs(w2):.3e} {'<=' if _on_ep(a, g, w2) else '>'} {rule} = {_EP_CONTACT * _norm2(a, g):.3e}"


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
    """2x2 complex-symmetric Hamiltonian [[h11, h12], [h12, h22]]."""

    h11: complex
    h12: complex
    h22: complex

    @property
    def trace(self) -> complex:
        return self.h11 + self.h22

    def as_array(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h12, self.h22]], dtype=complex)


@dataclass(frozen=True)
class EPLocation:
    """Closed-form EP field point plus the |discriminant| residual there."""

    field: FieldPoint
    residual: float


def build_hamiltonian(params: SystemParams, field: FieldPoint) -> HamiltonianMatrix:
    """Assemble the driven 2x2 matrix at one field point.

    h11 = e1 + omega - i*gamma1, h22 = e2 - i*gamma2, and the drive couples
    the levels through h12 = eps0*d12/2.
    """
    d12 = complex(params.d12)
    h12 = complex(*_fmul(0.5 * field.eps0, d12.real, d12.imag))
    return HamiltonianMatrix(
        complex(params.e1 + field.omega, -params.gamma1), h12, complex(params.e2, -params.gamma2)
    )


def discriminant(h: HamiltonianMatrix) -> complex:
    """(h11 - h22)^2 + 4*h12^2; zero exactly at a spectral degeneracy."""
    d = h.h11 - h.h22
    return d * d + 4.0 * h.h12 * h.h12


def _root_plus(w2):
    """The square root of w2, a complex or an array, on the '+' branch: Re >= 0, tie Im >= 0.

    numpy's root has Re >= 0, but at a tie (a negative real w2 with a -0.0
    imaginary part) it is the one with Im < 0, which is negated, so the '+'
    eigenvalue is deterministic for every input. A root with a NaN part
    stays as it is. ``traversal._Phase`` takes it at the first sample of
    each loop.
    """
    root = np.sqrt(w2)
    return np.where(_plus(root) | np.isnan(root), root, -root)


def _plus(z):
    """Where z, a complex or an array, is on the '+' side: Re > 0, tie Im >= 0 (a NaN part: False)."""
    return (z.real > 0.0) | ((z.real == 0.0) & (z.imag >= 0.0))


def c_product(u, v) -> complex:
    """Bilinear product u1*v1 + u2*v2 with no complex conjugation.

    This is the natural pairing for complex-symmetric operators; EP
    eigenvectors are self-orthogonal under it.
    """
    return u[0] * v[0] + u[1] * v[1]


# ---------------------------------------------------------------------------
# CPython's complex arithmetic on arrays
# ---------------------------------------------------------------------------
#
# The helpers below spell out CPython's complex arithmetic on pairs of real
# arrays (re, im), operation for operation, so an array pass is the same bits
# as the scalar formulas evaluated one value at a time. numpy's own complex
# multiply rounds differently in the last bit, and a float times a complex in
# CPython (up to 3.13) first widens the float to complex(x, 0.0), which
# decides the sign of zero components.


def _mul(ar, ai, br, bi):
    """The complex product a * b as CPython computes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _fmul(x, br, bi):
    """float * complex as CPython computes it: x is widened to complex(x, 0.0) first."""
    return x * br - 0.0 * bi, x * bi + 0.0 * br


def _complex(re, im) -> np.ndarray:
    """Complex array from its parts; unlike re + 1j * im it keeps every signed zero."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


# ---------------------------------------------------------------------------
# the eigenframe's angle and gauge
# ---------------------------------------------------------------------------


def _angle(z):
    """The frame angle th with e^{2 i th} = z and Re th in [-pi/2, pi/2], elementwise."""
    return 0.5 * np.angle(z) - 0.5j * np.log(np.abs(z))


def _gauge(z, c, s) -> np.ndarray:
    """Signs (..., 2) that gauge the vectors (c, s) and (-s, c) of the frame angle th.

    c = cos th, s = sin th and e^{2 i th} = z. Each signed vector's
    largest-magnitude component has a positive real part (tie: a
    non-negative imaginary part), and the first component leads a tie of
    magnitudes. Which component leads is read off Re z, not off the rounded
    moduli: |cos th|^2 - |sin th|^2 has the sign of Re z, which is exactly 0
    at a tie (a = 0 with a real g) where the rounded moduli differ.
    """
    lead = np.stack([np.where(z.real >= 0.0, c, s), np.where(z.real <= 0.0, -s, c)], axis=-1)
    return np.where(_plus(lead), 1.0, -1.0)


def locate_ep(params: SystemParams) -> EPLocation:
    """Closed-form exceptional point of the driven model.

    eps0_ep = delta_gamma / Re[d12] and
    omega_ep = e2 - e1 - Im[d12] * eps0_ep (hbar = 1).

    Raises
    ------
    NoFiniteEPError
        If Re[d12] = 0 (no finite drive amplitude degenerates the spectrum),
        or if float64 cannot resolve the closed form: it overflows, or it is
        not on the EP by ``_on_ep`` (e.g. for level energies near 1e16).
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
    h = build_hamiltonian(params, field)
    a, g, delta = 0.5 * (h.h11 - h.h22), h.h12, discriminant(h)
    if not _on_ep(a, g, 0.25 * delta):  # 0.25 delta is a^2 + g^2, exactly
        raise NoFiniteEPError(f"closed-form EP residual {abs(delta):.3e}: {_ep_contact(a, g)}: "
                              "float64 cannot resolve the EP for these parameters")
    return EPLocation(field=field, residual=abs(delta))
